package crosscheck

import (
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ssrmin/internal/msgnet"
	"ssrmin/internal/obs"
	"ssrmin/internal/scenario"
)

func clean(n int, seed int64) Scenario {
	return Scenario{
		Name:    "t",
		N:       n,
		Seed:    seed,
		Horizon: 10,
		Link:    scenario.Link{Delay: 0.01, Jitter: 0.002},
		Engines: []string{EngineState, EngineMsgnet},
	}
}

func TestValidateDefaults(t *testing.T) {
	s := clean(4, 1)
	s.Engines = nil
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.K != 5 || s.Steps == 0 || s.Daemon != "central-random" ||
		s.Refresh != 0.05 || s.Settle != 5 || len(s.Engines) != 3 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

// TestValidateAcceptsSubNanosecondTimingsOffLive: only the live engine
// counts time in whole nanoseconds, so the state and msgnet tiers keep
// accepting timings it cannot represent.
func TestValidateAcceptsSubNanosecondTimingsOffLive(t *testing.T) {
	for _, mut := range []func(*Scenario){
		func(s *Scenario) { s.Link.Delay, s.Link.Jitter, s.Refresh = 1e-10, 1e-11, 1e-10 },
		func(s *Scenario) { s.Link.Delay, s.Refresh = 1e10, 1e11 },
	} {
		s := clean(4, 1)
		mut(&s)
		if err := s.Validate(); err != nil {
			t.Errorf("state+msgnet rejected %+v: %v", s.Link, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"no name", func(s *Scenario) { s.Name = "" }},
		{"small n", func(s *Scenario) { s.N = 2 }},
		{"bad k", func(s *Scenario) { s.K = 3 }},
		{"no horizon", func(s *Scenario) { s.Horizon = 0 }},
		{"bad daemon", func(s *Scenario) { s.Daemon = "chaos-monkey" }},
		{"bad engine", func(s *Scenario) { s.Engines = []string{"quantum"} }},
		{"bad dup", func(s *Scenario) { s.Link.Dup = 2 }},
		{"negative delay", func(s *Scenario) { s.Link.Delay = -1 }},
		{"NaN delay", func(s *Scenario) { s.Link.Delay = math.NaN() }},
		{"infinite delay", func(s *Scenario) { s.Link.Delay = math.Inf(-1) }},
		{"negative jitter", func(s *Scenario) { s.Link.Jitter = -1 }},
		{"NaN jitter", func(s *Scenario) { s.Link.Jitter = math.NaN() }},
		{"negative refresh", func(s *Scenario) { s.Refresh = -1 }},
		{"infinite refresh", func(s *Scenario) { s.Refresh = math.Inf(1) }},
		{"live sub-ns delay", func(s *Scenario) { s.Engines, s.Link.Delay, s.Refresh = []string{EngineLive}, 1e-10, 1 }},
		{"live sub-ns jitter", func(s *Scenario) { s.Engines, s.Link.Jitter = []string{EngineLive}, 1e-10 }},
		{"live sub-ns refresh", func(s *Scenario) { s.Engines, s.Refresh = []string{EngineLive}, 1e-10 }},
		{"live overflowing delay", func(s *Scenario) { s.Engines, s.Link.Delay = []string{EngineState, EngineLive}, 1e10 }},
		{"live overflowing jitter", func(s *Scenario) { s.Engines, s.Link.Jitter = []string{EngineLive}, 1e10 }},
		{"live overflowing refresh", func(s *Scenario) { s.Engines, s.Refresh = []string{EngineLive}, 1e10 }},
		{"bad fault", func(s *Scenario) { s.Faults = []scenario.Fault{{At: 1, Type: "meteor"}} }},
		{"late fault", func(s *Scenario) { s.Faults = []scenario.Fault{{At: 99, Type: "loss-on"}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := clean(4, 1)
			tc.mut(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("validation accepted %+v", s)
			}
		})
	}
}

// TestValidateRejectsHugeN: a ring size above scenario.MaxN is rejected
// before the churn plan allocates the ring, so a short repro file or
// ssrmin-soak flag cannot make Validate allocate in proportion to n.
func TestValidateRejectsHugeN(t *testing.T) {
	s := clean(scenario.MaxN+1, 1)
	s.Faults = []scenario.Fault{{At: 1, Type: "join", Node: 0}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.Validate()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
		t.Errorf("Validate = %v, want the MaxN rejection", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Validate allocated %d bytes, want < 1 MiB", alloc)
	}
}

// TestCleanScenarioAllEnginesAgree is the harness's own sanity check: a
// legitimate coherent start must satisfy every invariant in the
// deterministic tiers, and the differential verdict must be unanimous.
func TestCleanScenarioAllEnginesAgree(t *testing.T) {
	rep, err := Run(clean(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean scenario violated invariants: %v", rep.Violations())
	}
	if d := rep.Diff(); d != "" {
		t.Fatalf("diff on a clean scenario: %s", d)
	}
	for _, e := range rep.Engines {
		if e.Observations == 0 || e.RuleExecutions == 0 {
			t.Errorf("%s: observations=%d ruleExecs=%d — engine did not run",
				e.Engine, e.Observations, e.RuleExecutions)
		}
		if e.MinCensus < 1 || e.MaxCensus > 2 {
			t.Errorf("%s: census range [%d,%d]", e.Engine, e.MinCensus, e.MaxCensus)
		}
	}
}

// TestDuplicationScenarioIsConformant is the harness-level regression
// test for the duplicated-delivery bug: with duplication enabled, the
// link monitor must see zero one-message-per-direction violations.
// Reverting the busyUntil fix in msgnet.send makes this fail.
func TestDuplicationScenarioIsConformant(t *testing.T) {
	s := clean(4, 7)
	s.Link.Dup = 0.3
	s.Engines = []string{EngineMsgnet}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		if v.Kind == "link" {
			t.Fatalf("duplicate bypassed the one-message-per-link rule: %v", v)
		}
	}
	if !rep.OK() {
		t.Fatalf("dup scenario violated invariants: %v", rep.Violations())
	}
}

// TestFaultStormConverges drives the same seeded fault script through the
// state and msgnet tiers: both must re-stabilize within their settle
// windows.
func TestFaultStormConverges(t *testing.T) {
	s := clean(5, 3)
	s.Horizon = 30
	s.Settle = 15
	s.Link.Loss = 0.05
	s.RandomStart = true
	s.IncoherentCaches = true
	s.Faults = []scenario.Fault{
		{At: 4, Type: "states", Count: 2},
		{At: 8, Type: "caches", Count: 3},
	}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fault storm violated invariants: %v", rep.Violations())
	}
}

// TestLiveEngineClean runs the live tier on a legitimate coherent start;
// like runtime's own TestLiveMutualInclusion, the census must stay within
// [1,2] with zero tolerance.
func TestLiveEngineClean(t *testing.T) {
	s := clean(5, 1)
	s.Horizon = 5
	s.Engines = []string{EngineLive}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("live engine violated invariants: %v", rep.Violations())
	}
	if rep.Engines[0].Observations < 10 {
		t.Fatalf("only %d live samples", rep.Engines[0].Observations)
	}
}

func TestRunWithObsCounts(t *testing.T) {
	o := obs.New(nil)
	s := clean(4, 2)
	if _, err := RunWithObs(s, o); err != nil {
		t.Fatal(err)
	}
	if o.C.RuleFired.Load() == 0 || o.C.MsgSent.Load() == 0 {
		t.Errorf("observer counters empty: rules=%d msgs=%d",
			o.C.RuleFired.Load(), o.C.MsgSent.Load())
	}
}

// TestLinkMonitorConfirmsGhostFrame feeds the monitor a synthetic tap
// stream reproducing the pre-fix behaviour: a send admitted while a
// duplicate was still in transit.
func TestLinkMonitorConfirmsGhostFrame(t *testing.T) {
	m := NewLinkMonitor()
	ev := func(k msgnet.TapKind, at msgnet.Time) msgnet.TapEvent {
		return msgnet.TapEvent{At: at, Kind: k, From: 0, Node: 1}
	}
	m.Tap(ev(msgnet.TapSend, 0))      // frame 1 admitted
	m.Tap(ev(msgnet.TapDup, 0))       // duplicate of frame 1 scheduled
	m.Tap(ev(msgnet.TapDeliver, 1))   // frame 1 arrives
	m.Tap(ev(msgnet.TapSend, 1.2))    // frame 2 admitted — dup still in flight
	m.Tap(ev(msgnet.TapDeliver, 1.5)) // the duplicate arrives: confirms the breach
	m.Tap(ev(msgnet.TapDeliver, 2.2)) // frame 2 arrives
	vs := m.Finish()
	if len(vs) != 1 || vs[0].Kind != "link" || vs[0].At != 1.2 {
		t.Fatalf("violations = %v, want one link violation at t=1.2", vs)
	}
}

// TestLinkMonitorToleratesExactTies: a send admitted at exactly the
// instant the outstanding frame arrives is legal — the medium frees at
// the arrival instant, and tap ordering may report the send first.
func TestLinkMonitorToleratesExactTies(t *testing.T) {
	m := NewLinkMonitor()
	ev := func(k msgnet.TapKind, at msgnet.Time) msgnet.TapEvent {
		return msgnet.TapEvent{At: at, Kind: k, From: 0, Node: 1}
	}
	m.Tap(ev(msgnet.TapSend, 0))
	m.Tap(ev(msgnet.TapSend, 1))    // admitted at the arrival instant...
	m.Tap(ev(msgnet.TapDeliver, 1)) // ...which the tap reports just after
	m.Tap(ev(msgnet.TapDeliver, 2))
	if vs := m.Finish(); len(vs) != 0 {
		t.Fatalf("tie flagged as violation: %v", vs)
	}
}

// TestShrinkMinimizesFailingScenario builds a scenario that genuinely
// violates (a settle window far too short for a cold random start) and
// checks the shrinker returns a smaller scenario that still violates.
func TestShrinkMinimizesFailingScenario(t *testing.T) {
	s := Scenario{
		Name:             "shrinkme",
		N:                6,
		Seed:             7,
		Horizon:          10,
		Settle:           0.001,
		Link:             scenario.Link{Delay: 0.01, Jitter: 0.002, Loss: 0.1},
		RandomStart:      true,
		IncoherentCaches: true,
		Engines:          []string{EngineMsgnet},
		Faults:           []scenario.Fault{{At: 5, Type: "states", Count: 2}},
	}
	rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Skip("seed did not produce a violating base scenario")
	}
	shrunk, spent := Shrink(s, 40)
	if spent == 0 || spent > 40 {
		t.Fatalf("shrink spent %d runs", spent)
	}
	rep2, err := Run(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OK() {
		t.Fatal("shrunk scenario no longer violates")
	}
	if shrunk.N > s.N || shrunk.Horizon > s.Horizon || len(shrunk.Faults) > len(s.Faults) {
		t.Fatalf("shrink did not reduce: %+v", shrunk)
	}
}

func TestWriteLoadReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := Repro{Note: "test", Found: "unit test", Scenario: clean(4, 9)}
	path, err := WriteRepro(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("repro written to %s", path)
	}
	got, err := LoadRepros(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Note != "test" || got[0].Scenario.N != 4 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestLoadReprosMissingDir(t *testing.T) {
	got, err := LoadRepros(filepath.Join(t.TempDir(), "nope"))
	if err != nil || got != nil {
		t.Fatalf("missing dir: %v %v", got, err)
	}
}

// TestReproFixturesStayFixed replays every committed regression fixture:
// scenarios that once violated an invariant must now run clean. This is
// how a soak-found bug stays fixed forever.
func TestReproFixturesStayFixed(t *testing.T) {
	repros, err := LoadRepros(filepath.Join("..", "..", "testdata", "repros"))
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) == 0 {
		t.Fatal("no committed repro fixtures found")
	}
	for _, r := range repros {
		t.Run(r.Scenario.Name, func(t *testing.T) {
			rep, err := Run(r.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("fixture regressed (%s): %v", r.Note, rep.Violations())
			}
		})
	}
}
