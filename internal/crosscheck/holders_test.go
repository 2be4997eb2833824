package crosscheck

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/runtime"
	"ssrmin/internal/scenario"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/verify"
)

// randomScenario draws a storm or churn scenario for the state and msgnet
// tiers, redrawing until it validates.
func randomScenario(rng *rand.Rand, i int) Scenario {
	for {
		n := 3 + rng.Intn(5)
		sc := Scenario{
			Name:             fmt.Sprintf("rescan-%d", i),
			N:                n,
			K:                2*n + 4,
			Seed:             rng.Int63(),
			Horizon:          4,
			Settle:           2,
			Daemon:           []string{"central-random", "synchronous", "distributed"}[rng.Intn(3)],
			RandomStart:      rng.Intn(2) == 0,
			IncoherentCaches: rng.Intn(2) == 0,
			Link: scenario.Link{
				Delay: 0.01, Jitter: 0.004 * rng.Float64(),
				Loss: 0.1 * rng.Float64(), Dup: 0.2 * rng.Float64(), Corrupt: 0.05 * rng.Float64(),
			},
			Engines: []string{EngineState, EngineMsgnet},
		}
		types := []string{"states", "caches", "cut", "heal", "loss-on", "loss-off", "join", "leave", "splice"}
		for f := rng.Intn(6); f > 0; f-- {
			ft := scenario.Fault{At: rng.Float64() * sc.Horizon, Type: types[rng.Intn(len(types))]}
			switch ft.Type {
			case "states", "caches":
				ft.Count = 1 + rng.Intn(n)
			case "cut", "heal":
				ft.Link = rng.Intn(n)
			case "join", "leave", "splice":
				ft.Node = rng.Intn(n + 2)
				ft.Count = 1 + rng.Intn(2)
				if ft.Type != "splice" {
					ft.Count = 0
				}
			}
			sc.Faults = append(sc.Faults, ft)
		}
		if sc.Validate() == nil {
			return sc
		}
	}
}

// wantSingleton is the singleton holder of a full-scan holder set, or -1.
func wantSingleton(holders []int) int {
	if len(holders) == 1 {
		return holders[0]
	}
	return -1
}

// checkTracked compares the tracker with a full scan's census, singleton
// holders and their ring distance.
func checkTracked(t *testing.T, where string, h *holderTracker, census int, prim, sec, members []int) {
	t.Helper()
	p, s := h.singletons()
	wp, ws := wantSingleton(prim), wantSingleton(sec)
	if h.census != census || p != wp || s != ws {
		t.Fatalf("%s: tracked census %d holders (%d,%d), full scan %d (%d,%d)", where, h.census, p, s, census, wp, ws)
	}
	if p >= 0 && s >= 0 {
		if got, want := h.distance(p, s), ringDistance(members, p, s); got != want {
			t.Fatalf("%s: tracked distance %d, full scan %d", where, got, want)
		}
	}
}

// TestTrackedMatchesRescan checks, at every state step and every msgnet
// event of randomized storm and churn runs, that the tracked census,
// singleton holders and separation equal a full rescan.
func TestTrackedMatchesRescan(t *testing.T) {
	var steps, events int
	var where string
	hooks.state = func(h *holderTracker, c statemodel.Config[core.State]) {
		steps++
		var prim, sec, members []int
		for i := range c {
			v := c.View(i)
			if core.HasPrimary(v) {
				prim = append(prim, i)
			}
			if core.HasSecondary(v) {
				sec = append(sec, i)
			}
			members = append(members, i)
		}
		checkTracked(t, where+"/state", h, verify.Count(c).Privileged, prim, sec, members)
	}
	hooks.msgnet = func(h *holderTracker, ring *cst.Ring[core.State]) {
		events++
		checkTracked(t, where+"/msgnet", h, ring.Census(core.HasToken),
			ring.Holders(core.HasPrimary), ring.Holders(core.HasSecondary), ring.Members())
	}
	defer func() { hooks.state, hooks.msgnet = nil, nil }()

	rng := rand.New(rand.NewSource(1))
	churned := 0
	for i := 0; i < 40; i++ {
		sc := randomScenario(rng, i)
		where = fmt.Sprintf("%s %+v", sc.Name, sc.Faults)
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
		for _, f := range sc.Faults {
			if f.IsChurn() {
				churned++
				break
			}
		}
	}
	if steps == 0 || events == 0 || churned == 0 {
		t.Fatalf("rescan hooks ran %d state steps and %d msgnet events over %d churn scenarios", steps, events, churned)
	}
	t.Logf("%d state steps, %d msgnet events, %d churn scenarios", steps, events, churned)
}

// violationKinds counts one engine's violations by kind.
func violationKinds(e EngineResult) map[string]int {
	kinds := map[string]int{}
	for _, v := range e.Violations {
		kinds[v.Kind]++
	}
	return kinds
}

// TestTrackedMonitorsStillFire narrows the census bound to {1,1} and the
// separation bound to 0: instants that the paper's bounds accept must now
// be violations, reported through the tracked path of both deterministic
// tiers. The census case is an unperturbed legitimate run (two privileged
// processes at every handover); the separation case a random start judged
// from its first instant, whose holders come one hop apart but never two.
func TestTrackedMonitorsStillFire(t *testing.T) {
	sepCase := clean(5, 1)
	sepCase.RandomStart, sepCase.IncoherentCaches, sepCase.Settle = true, true, 0.001
	cases := []struct {
		name string
		sc   Scenario
		kind string
	}{
		{"census", clean(5, 1), "census"},
		{"separation", sepCase, "separation"},
	}
	narrow := func(chk *censusChecker, sep *SeparationMonitor) {
		chk.bounds = verify.CSBounds{L: 1, K: 1}
		sep.max = 0
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := Run(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			hooks.monitors = narrow
			narrowed, err := Run(tc.sc)
			hooks.monitors = nil
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range narrowed.Engines {
				if n := violationKinds(base.Engines[i])[tc.kind]; n != 0 {
					t.Fatalf("%s: %d %s violations under the paper's bounds", e.Engine, n, tc.kind)
				}
				if violationKinds(e)[tc.kind] == 0 {
					t.Errorf("%s: narrowed bounds raised no %s violation", e.Engine, tc.kind)
				}
			}
		})
	}
}

// TestTrackedObserveAllocs: a tracked observation — refreshing a marked
// node and feeding the census and separation monitors — allocates nothing.
func TestTrackedObserveAllocs(t *testing.T) {
	alg := core.New(5, 6)
	cfg := alg.InitialLegitimate()
	chk, sep := newMonitors(EngineState, 10, 1)
	h := newHolderTracker(len(cfg))
	h.setMembers([]int{0, 1, 2, 3, 4})
	eval := func(i int) uint8 { return holderBits(cfg.View(i)) }
	observeTracked(0, h, eval, chk, sep)
	step := 0
	allocs := testing.AllocsPerRun(1000, func() {
		step++
		h.mark(step % len(cfg))
		observeTracked(float64(step), h, eval, chk, sep)
	})
	if allocs != 0 {
		t.Fatalf("tracked observe allocates %v times", allocs)
	}
	if len(chk.violations)+len(sep.violations) != 0 || sep.observed == 0 {
		t.Fatalf("legitimate configuration: violations %v %v, %d separation observations",
			chk.violations, sep.violations, sep.observed)
	}
}

// TestHolderTrackerMarks: unmarked nodes keep their recorded bits until
// marked, markAll re-evaluates everything, and the XOR recovers singleton
// holders as they come and go.
func TestHolderTrackerMarks(t *testing.T) {
	bits := []uint8{bitPrimary, 0, bitSecondary, 0}
	eval := func(i int) uint8 { return bits[i] }
	h := newHolderTracker(len(bits))
	h.setMembers([]int{0, 1, 2, 3})
	h.refresh(eval)
	if p, s := h.singletons(); p != 0 || s != 2 || h.census != 2 || h.distance(p, s) != 2 {
		t.Fatalf("initial: holders (%d,%d) census %d", p, s, h.census)
	}
	bits[3] = bitPrimary | bitSecondary
	h.refresh(eval) // node 3 not marked: unchanged
	if h.census != 2 {
		t.Fatalf("unmarked change seen: census %d", h.census)
	}
	h.mark(3)
	h.mark(3)
	h.refresh(eval)
	if p, s := h.singletons(); p != -1 || s != -1 || h.census != 3 {
		t.Fatalf("after mark: holders (%d,%d) census %d", p, s, h.census)
	}
	bits[0], bits[2] = 0, 0
	h.mark(0)
	h.markAll()
	h.refresh(eval)
	if p, s := h.singletons(); p != 3 || s != 3 || h.census != 1 || h.distance(p, s) != 0 {
		t.Fatalf("after markAll: holders (%d,%d) census %d", p, s, h.census)
	}
	h.setMembers([]int{0, 1, 2})
	if d := h.distance(0, 3); d != -1 {
		t.Fatalf("distance to a non-member = %d", d)
	}
}

// TestLiveBitsMatchHolders checks, at every tick of randomized live-tier
// storm and churn runs on one worker and (without churn) on two, that the
// membership the tick used is the engine's and that the recorded holder
// bits of its members give exactly the engine's full-scan holder sets. One
// fixed scenario joins a node at an instant that ties exactly with a
// tick, which the engine applies only in the epoch after that tick.
func TestLiveBitsMatchHolders(t *testing.T) {
	var ticks int
	var where string
	hooks.live = func(l *liveHolders, members []int, eng *runtime.Engine[core.State]) {
		ticks++
		if want := eng.Members(); !slices.Equal(members, want) {
			t.Fatalf("%s t=%v: tick members %v, engine members %v", where, eng.Now(), members, want)
		}
		var prim, sec []int
		for _, id := range members {
			if l.bits[id]&bitPrimary != 0 {
				prim = append(prim, id)
			}
			if l.bits[id]&bitSecondary != 0 {
				sec = append(sec, id)
			}
		}
		slices.Sort(prim)
		slices.Sort(sec)
		if wp, ws := eng.Holders(core.HasPrimary), eng.Holders(core.HasSecondary); !slices.Equal(prim, wp) || !slices.Equal(sec, ws) {
			t.Fatalf("%s t=%v: recorded holders %v/%v, full scan %v/%v", where, eng.Now(), prim, sec, wp, ws)
		}
	}
	defer func() { hooks.live = nil }()

	tie := 0.0
	for range 150 {
		tie += 0.01 // the live tier's tick instants, accumulated as it does
	}
	scs := []Scenario{{
		Name: "join-on-tick", N: 5, K: 14, Seed: 3, Horizon: 3, Settle: 2,
		Link:    scenario.Link{Delay: 0.01, Jitter: 0.002},
		Faults:  []scenario.Fault{{At: tie, Type: "join", Node: 2}},
		Engines: []string{EngineLive},
	}}
	rng := rand.New(rand.NewSource(2))
	for i := 0; len(scs) < 40; i++ {
		sc := randomScenario(rng, i)
		sc.Engines = []string{EngineLive}
		sc.LiveWorkers = 1
		if !slices.ContainsFunc(sc.Faults, scenario.Fault.IsChurn) {
			sc.LiveWorkers = 1 + i%2
		}
		if sc.Validate() == nil {
			scs = append(scs, sc)
		}
	}
	churned, twoWorkers := 0, 0
	for _, sc := range scs {
		where = fmt.Sprintf("%s w=%d %+v", sc.Name, sc.LiveWorkers, sc.Faults)
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(sc.Faults, scenario.Fault.IsChurn) {
			churned++
		}
		if sc.LiveWorkers == 2 {
			twoWorkers++
		}
	}
	if ticks == 0 || churned < 2 || twoWorkers == 0 {
		t.Fatalf("%d ticks over %d churn scenarios and %d two-worker runs", ticks, churned, twoWorkers)
	}
	t.Logf("%d ticks, %d churn scenarios, %d two-worker runs", ticks, churned, twoWorkers)
}
