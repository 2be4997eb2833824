package crosscheck

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/runtime"
	"ssrmin/internal/scenario"
)

// membershipScripts are valid churn scripts covering every way the ring
// can be rewired: a join, a leave, a splice, joins after splices and
// churn anchored on joiners.
var membershipScripts = []struct {
	name   string
	n      int
	faults []scenario.Fault
}{
	{"join", 5, []scenario.Fault{{At: 1, Type: "join", Node: 2}}},
	{"leave", 5, []scenario.Fault{{At: 1, Type: "leave", Node: 3}}},
	{"splice", 7, []scenario.Fault{{At: 1, Type: "splice", Node: 1, Count: 3}}},
	{"splice to bottom", 6, []scenario.Fault{{At: 1, Type: "splice", Node: 3, Count: 2}}},
	{"joins after splices", 6, []scenario.Fault{
		{At: 1, Type: "splice", Node: 0, Count: 2},
		{At: 2, Type: "join", Node: 0},
		{At: 3, Type: "splice", Node: 3, Count: 1},
		{At: 4, Type: "join", Node: 3},
		{At: 5, Type: "join", Node: 5},
	}},
	{"anchors on joiners", 4, []scenario.Fault{
		{At: 1, Type: "join", Node: 3},
		{At: 2, Type: "join", Node: 4},
		{At: 3, Type: "leave", Node: 4},
		{At: 4, Type: "join", Node: 5},
		{At: 5, Type: "splice", Node: 5, Count: 1},
		{At: 6, Type: "leave", Node: 5},
	}},
	{"leave and rejoin", 5, []scenario.Fault{
		{At: 1, Type: "leave", Node: 1},
		{At: 2, Type: "leave", Node: 2},
		{At: 3, Type: "join", Node: 0},
		{At: 4, Type: "join", Node: 5},
	}},
}

// membershipTiers are the two executors that rewire a live ring: the
// CST ring over msgnet and the sharded engine.
type membershipTiers struct {
	ring *cst.Ring[core.State]
	eng  *runtime.Engine[core.State]
}

func newMembershipTiers(n, spare int) membershipTiers {
	alg := core.New(n, n+spare+1)
	init := alg.InitialLegitimate()
	ring := cst.NewRing[core.State](alg, init, cst.Options[core.State]{
		Link:           msgnet.LinkParams{Delay: 0.01},
		Refresh:        0.05,
		Seed:           1,
		CoherentCaches: true,
		Spare:          spare,
	})
	eng := runtime.NewEngine[core.State](alg, init, runtime.Options[core.State]{
		Delay:          10 * time.Millisecond,
		Refresh:        50 * time.Millisecond,
		Seed:           1,
		CoherentCaches: true,
		Spare:          spare,
	})
	return membershipTiers{ring, eng}
}

// apply applies one churn fault to the CST ring at its instant.
func (m membershipTiers) apply(f scenario.Fault) {
	m.ring.Net.Run(msgnet.Time(f.At))
	switch f.Type {
	case "join":
		m.ring.Join(f.Node, core.State{})
	case "leave":
		m.ring.Leave(f.Node)
	case "splice":
		m.ring.Splice(f.Node, f.Count)
	}
}

// schedule schedules one churn fault on the engine.
func (m membershipTiers) schedule(f scenario.Fault) {
	switch f.Type {
	case "join":
		m.eng.ScheduleJoin(f.At, f.Node, core.State{})
	case "leave":
		m.eng.ScheduleLeave(f.At, f.Node)
	case "splice":
		m.eng.ScheduleSplice(f.At, f.Node, f.Count)
	}
}

// TestMembershipAgreesAcrossTiers: the churn plan, the CST ring and the
// engine rewire the ring the same way. At every fault instant (and once
// after the last) scenario.Replay's members, cst.Ring.Members and
// runtime.Engine.Members are equal, so a differential verdict on a churn
// script compares two executions of one topology.
func TestMembershipAgreesAcrossTiers(t *testing.T) {
	for _, sc := range membershipScripts {
		t.Run(sc.name, func(t *testing.T) {
			last := sc.faults[len(sc.faults)-1].At
			// A trailing non-churn fault makes Replay report the final
			// membership too.
			faults := append(slices.Clone(sc.faults), scenario.Fault{At: last + 1, Type: "loss-on"})
			spare, _, err := scenario.ChurnPlan(sc.n, faults)
			if err != nil {
				t.Fatalf("ChurnPlan: %v", err)
			}
			m := newMembershipTiers(sc.n, spare)
			for _, f := range faults {
				m.schedule(f)
			}
			_, _, err = scenario.Replay(sc.n, faults, func(f scenario.Fault, members []int) {
				m.ring.Net.Run(msgnet.Time(f.At))
				m.eng.RunUntil(f.At - 0.5)
				plan := slices.Clone(members)
				if got := m.ring.Members(); !slices.Equal(got, plan) {
					t.Errorf("t=%v: cst members %v, plan %v", f.At, got, plan)
				}
				if got := m.eng.Members(); !slices.Equal(got, plan) {
					t.Errorf("t=%v: engine members %v, plan %v", f.At, got, plan)
				}
				if f.IsChurn() {
					m.apply(f)
				}
			})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			m.eng.Stop()
		})
	}
}

// TestMembershipRejectsAcrossTiers: the three tiers reject the same
// invalid churn: the plan with an error, the CST ring and the engine by
// panicking (a validated script never reaches them).
func TestMembershipRejectsAcrossTiers(t *testing.T) {
	for _, sc := range []struct {
		name   string
		n      int
		faults []scenario.Fault
	}{
		{"node 0 leaves", 5, []scenario.Fault{{At: 1, Type: "leave", Node: 0}}},
		{"splice through node 0", 6, []scenario.Fault{{At: 1, Type: "splice", Node: 4, Count: 2}}},
		{"leave below 3", 4, []scenario.Fault{
			{At: 1, Type: "leave", Node: 1},
			{At: 2, Type: "leave", Node: 2},
		}},
		{"splice below 3", 5, []scenario.Fault{{At: 1, Type: "splice", Node: 0, Count: 3}}},
		{"join on a leaver", 5, []scenario.Fault{
			{At: 1, Type: "leave", Node: 2},
			{At: 2, Type: "join", Node: 2},
		}},
		{"splice after a leaver", 6, []scenario.Fault{
			{At: 1, Type: "leave", Node: 2},
			{At: 2, Type: "splice", Node: 2, Count: 1},
		}},
		{"leave of a spliced node", 6, []scenario.Fault{
			{At: 1, Type: "splice", Node: 1, Count: 2},
			{At: 2, Type: "leave", Node: 3},
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			if _, _, err := scenario.ChurnPlan(sc.n, sc.faults); err == nil {
				t.Error("churn plan accepted the script")
			}
			spare := 0
			for _, f := range sc.faults {
				if f.Type == "join" {
					spare++
				}
			}
			m := newMembershipTiers(sc.n, spare)
			if err := panics(func() {
				for _, f := range sc.faults {
					m.apply(f)
				}
			}); err == nil {
				t.Error("cst ring accepted the script")
			}
			if err := panics(func() {
				for _, f := range sc.faults {
					m.schedule(f)
				}
				m.eng.RunUntil(sc.faults[len(sc.faults)-1].At + 1)
			}); err == nil {
				t.Error("engine accepted the script")
			}
			m.eng.Stop()
		})
	}
}

// panics runs f and returns what it panicked with, or nil.
func panics(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	f()
	return nil
}
