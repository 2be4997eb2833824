package trace

import (
	"strings"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/msgnet"
)

func TestSpaceTimeCapturesAndRenders(t *testing.T) {
	a := core.New(3, 4)
	r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
		Link:           msgnet.LinkParams{Delay: 0.01},
		Refresh:        0.05,
		Seed:           1,
		CoherentCaches: true,
	})
	st := NewSpaceTime(3)
	Attach(st, r.Net)
	for i, nd := range r.Nodes {
		id := i
		nd.OnExecute = func(now msgnet.Time, rule int) {
			st.Annotate(now, id, core.RuleName(rule))
		}
	}
	r.Net.Run(0.2)
	if len(st.events) == 0 {
		t.Fatal("no tap events collected")
	}
	var b strings.Builder
	if err := st.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"P0", "P1", "P2", "s→", "r←", "T", "R1/ready-secondary"} {
		if !strings.Contains(out, want) {
			t.Errorf("diagram missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("diagram too short:\n%s", out)
	}
}

func TestSpaceTimeLimit(t *testing.T) {
	a := core.New(3, 4)
	r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
		Link: msgnet.LinkParams{Delay: 0.01}, Refresh: 0.05, Seed: 1, CoherentCaches: true,
	})
	st := NewSpaceTime(3)
	st.Limit = 10
	Attach(st, r.Net)
	r.Net.Run(5)
	if len(st.events) != 10 {
		t.Fatalf("limit not enforced: %d events", len(st.events))
	}
}

func TestSpaceTimeLossMarks(t *testing.T) {
	a := core.New(3, 4)
	r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
		Link: msgnet.LinkParams{Delay: 0.01, LossProb: 0.5}, Refresh: 0.05, Seed: 2, CoherentCaches: true,
	})
	st := NewSpaceTime(3)
	Attach(st, r.Net)
	r.Net.Run(0.5)
	var b strings.Builder
	if err := st.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "x→") {
		t.Error("loss marks missing from diagram")
	}
}
