package crosscheck

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ssrmin/internal/scenario"
)

// TestChurnScenarioConverges drives joins, a leave, and a splice through
// the msgnet and sharded-live tiers: the census, link-rule, and
// separation invariants must all hold once the ring re-settles.
func TestChurnScenarioConverges(t *testing.T) {
	s := Scenario{
		Name:    "churn-storm",
		N:       5,
		K:       10,
		Seed:    3,
		Horizon: 40,
		Settle:  15,
		Link:    scenario.Link{Delay: 0.01, Jitter: 0.002},
		Engines: []string{EngineMsgnet, EngineLive},
		Faults: []scenario.Fault{
			{At: 4, Type: "join", Node: 1},
			{At: 8, Type: "leave", Node: 3},
			{At: 12, Type: "splice", Node: 0, Count: 1},
		},
	}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("churn scenario violated invariants: %v", rep.Violations())
	}
	for _, e := range rep.Engines {
		if e.SeparationObs == 0 {
			t.Errorf("%s: separation invariant never evaluable", e.Engine)
		}
		if e.MaxSeparation > 1 {
			t.Errorf("%s: settled separation reached %d", e.Engine, e.MaxSeparation)
		}
	}
}

// TestChurnCutOfSplicedEdgeIsNoop schedules a cut on an edge a splice
// already removed; the msgnet tier must treat it as a no-op.
func TestChurnCutOfSplicedEdgeIsNoop(t *testing.T) {
	s := Scenario{
		Name:    "cut-after-splice",
		N:       5,
		K:       10,
		Seed:    1,
		Horizon: 30,
		Settle:  12,
		Link:    scenario.Link{Delay: 0.01},
		Engines: []string{EngineMsgnet},
		Faults: []scenario.Fault{
			{At: 4, Type: "splice", Node: 1, Count: 1},
			{At: 8, Type: "cut", Link: 2},
			{At: 9, Type: "heal", Link: 2},
		},
	}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations())
	}
}

func TestValidateChurnRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"K below churn max size", func(s *Scenario) {
			s.K = 5
			s.Faults = []scenario.Fault{{At: 1, Type: "join", Node: 0}}
		}, "max ring size"},
		{"unrealizable plan", func(s *Scenario) {
			s.Faults = []scenario.Fault{{At: 1, Type: "leave", Node: 0}}
		}, "removes node 0"},
		{"negative separation bound", func(s *Scenario) {
			s.MaxSeparation = -1
		}, "maxSeparation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := clean(4, 1)
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestGracedSettleDeadlineInclusive pins the settle-window boundary
// semantics: an instant exactly on the deadline (perturb + grace) is
// still graced — the same closed-boundary rule the link monitor applies
// to exact arrival-instant ties — and the first violating instant is
// strictly after it.
func TestGracedSettleDeadlineInclusive(t *testing.T) {
	chk := newCensusChecker(EngineMsgnet, 5)
	chk.perturb(10)
	chk.observe(15, 0) // t == deadline: inside the window
	if len(chk.violations) != 0 {
		t.Fatalf("violation at the settle deadline: %v", chk.violations)
	}
	chk.observe(15.000001, 0) // strictly past the deadline
	if len(chk.violations) != 1 {
		t.Fatalf("no violation past the deadline: %v", chk.violations)
	}

	sep := NewSeparationMonitor(EngineMsgnet, 1, chk.windows)
	members := []int{0, 1, 2, 3, 4, 5}
	sep.Observe(15, members, []int{0}, []int{3}) // same deadline, same verdict
	if len(sep.violations) != 0 {
		t.Fatalf("separation violation at the settle deadline: %v", sep.violations)
	}
	sep.Observe(15.000001, members, []int{0}, []int{3})
	if len(sep.violations) != 1 {
		t.Fatalf("no separation violation past the deadline: %v", sep.violations)
	}
}

func TestSeparationMonitorSemantics(t *testing.T) {
	w := &settleWindows{grace: 1}
	m := NewSeparationMonitor(EngineState, 1, w)
	members := []int{0, 1, 2, 3, 4}

	m.Observe(5, members, []int{0}, []int{4}) // wraparound neighbors: distance 1
	m.Observe(6, members, []int{2}, []int{2}) // same holder: distance 0
	m.Observe(7, members, []int{0, 1}, []int{2})
	m.Observe(7.5, members, []int{0}, nil) // non-singleton sets: skipped
	m.Observe(8, members, []int{9}, []int{0})
	if m.observed != 2 || len(m.violations) != 0 {
		t.Fatalf("observed=%d violations=%v, want 2 clean observations", m.observed, m.violations)
	}

	m.Observe(9, members, []int{0}, []int{2}) // distance 2: a token escaped
	if len(m.violations) != 1 || m.violations[0].Kind != "separation" {
		t.Fatalf("violations = %v, want one separation violation", m.violations)
	}
	w.perturb(10)
	m.Observe(10.5, members, []int{0}, []int{2}) // same distance, but graced
	if len(m.violations) != 1 {
		t.Fatalf("graced observation reported: %v", m.violations)
	}
	if m.maxSeen != 2 {
		t.Fatalf("maxSeen = %d, want 2", m.maxSeen)
	}
}

// TestShrinkPreservesViolationSignature feeds the greedy loop a synthetic
// landscape where fault 0 causes a census violation, fault 1 a link
// violation, and fault 2 nothing. A signature-blind shrinker would drop
// fault 0 (the scenario "still fails" via the link violation); the
// shrinker must instead remove only the inert fault and keep both
// violations reproducible.
func TestShrinkPreservesViolationSignature(t *testing.T) {
	s := clean(5, 1)
	s.Engines = []string{EngineMsgnet}
	s.Faults = []scenario.Fault{
		{At: 1, Type: "states", Count: 1},
		{At: 2, Type: "caches", Count: 1},
		{At: 3, Type: "loss-on"},
	}
	runs := 0
	fake := func(c Scenario) (Report, error) {
		runs++
		res := EngineResult{Engine: EngineMsgnet}
		for _, f := range c.Faults {
			switch f.Type {
			case "states":
				res.Violations = append(res.Violations, Violation{Engine: EngineMsgnet, Kind: "census", At: f.At})
			case "caches":
				res.Violations = append(res.Violations, Violation{Engine: EngineMsgnet, Kind: "link", At: f.At})
			}
		}
		return Report{Scenario: c, Engines: []EngineResult{res}}, nil
	}
	shrunk, spent := shrinkWith(s, 100, fake)
	if spent != runs {
		t.Fatalf("spent = %d but runner ran %d times", spent, runs)
	}
	kinds := map[string]bool{}
	for _, f := range shrunk.Faults {
		kinds[f.Type] = true
	}
	if !kinds["states"] || !kinds["caches"] {
		t.Fatalf("shrink traded a violation away: remaining faults %+v", shrunk.Faults)
	}
	if kinds["loss-on"] {
		t.Fatalf("shrink kept the inert fault: %+v", shrunk.Faults)
	}
}

// TestShrinkWithRespectsBudget: the runner must never be invoked more
// than budget times, and a budget too small to even confirm the original
// violation returns the scenario unchanged.
func TestShrinkWithRespectsBudget(t *testing.T) {
	s := clean(4, 1)
	s.Faults = []scenario.Fault{{At: 1, Type: "states", Count: 1}}
	runs := 0
	fake := func(c Scenario) (Report, error) {
		runs++
		return Report{Scenario: c, Engines: []EngineResult{{
			Engine:     EngineMsgnet,
			Violations: []Violation{{Engine: EngineMsgnet, Kind: "census", At: 1}},
		}}}, nil
	}
	for _, budget := range []int{0, 1, 3} {
		runs = 0
		_, spent := shrinkWith(s, budget, fake)
		if runs > budget || spent != runs {
			t.Fatalf("budget %d: runner ran %d times, spent %d", budget, runs, spent)
		}
	}
}

// TestChurnTiersAgree sweeps a few seeds over a churn script and demands
// a unanimous verdict from the msgnet and sharded-live tiers.
func TestChurnTiersAgree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := Scenario{
				Name:    "churn-agree",
				N:       6,
				K:       12,
				Seed:    seed,
				Horizon: 30,
				Settle:  12,
				Link:    scenario.Link{Delay: 0.01, Jitter: 0.002, Loss: 0.02},
				Engines: []string{EngineMsgnet, EngineLive},
				Faults: []scenario.Fault{
					{At: 3, Type: "join", Node: 2},
					{At: 6, Type: "splice", Node: 1, Count: 2},
				},
			}
			rep, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("violations: %v (diff: %s)", rep.Violations(), rep.Diff())
			}
		})
	}
}

// TestStatesFaultVictimsAgreeUnderChurn: after a join and a leave, a
// states fault hits the same node ids in the msgnet and live tiers — the
// ring's members at that instant, the joiner included and the leaver not.
func TestStatesFaultVictimsAgreeUnderChurn(t *testing.T) {
	hit := map[string][]int{}
	hooks.injected = func(engine string, _ float64, nodes []int) {
		hit[engine] = append(hit[engine], nodes...)
	}
	defer func() { hooks.injected = nil }()
	s := Scenario{
		Name: "states-after-churn", N: 6, K: 9, Seed: 1, Horizon: 3,
		Engines: []string{EngineMsgnet, EngineLive},
		Faults: []scenario.Fault{
			{At: 1, Type: "join", Node: 0},
			{At: 1.5, Type: "leave", Node: 2},
			{At: 2, Type: "states", Count: 6},
		},
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	msg, live := hit[EngineMsgnet], hit[EngineLive]
	if !slices.Equal(msg, live) {
		t.Fatalf("states fault hit %v in msgnet but %v in live", msg, live)
	}
	got := slices.Clone(msg)
	slices.Sort(got)
	if !slices.Equal(got, []int{0, 1, 3, 4, 5, 6}) {
		t.Fatalf("states fault hit %v, want the members 0 1 3 4 5 6", got)
	}
}
