package statemodel

import (
	"slices"
	"testing"
)

// parity is a toy algorithm for framework tests: state is a bit; a process
// is enabled by rule 1 when its bit differs from its predecessor's and
// copies it, and the bottom process is enabled by rule 2 when equal and
// flips. (It is Dijkstra's ring with K = 2 — not self-stabilizing, but a
// fine exercise wheel.)
type parity struct{ n int }

func (p parity) Name() string { return "parity" }
func (p parity) N() int       { return p.n }
func (p parity) Rules() int   { return 2 }

func (p parity) EnabledRule(v View[bool]) int {
	if v.Bottom() {
		if v.Self == v.Pred {
			return 2
		}
		return 0
	}
	if v.Self != v.Pred {
		return 1
	}
	return 0
}

func (p parity) Apply(v View[bool], rule int) bool {
	switch rule {
	case 1:
		return v.Pred
	case 2:
		return !v.Pred
	}
	panic("bad rule")
}

func TestViewNeighbors(t *testing.T) {
	c := Config[bool]{true, false, true, true}
	v := c.View(0)
	if v.Pred != true || v.Succ != false || v.Self != true {
		t.Errorf("View(0) = %+v", v)
	}
	if !v.Bottom() {
		t.Error("View(0).Bottom() = false")
	}
	v = c.View(3)
	if v.Pred != true || v.Succ != true || v.Self != true || v.Bottom() {
		t.Errorf("View(3) = %+v", v)
	}
	if v.I != 3 || v.N != 4 {
		t.Errorf("View(3) identity = I%d N%d", v.I, v.N)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := Config[bool]{true, false}
	d := c.Clone()
	d[0] = false
	if c[0] != true {
		t.Error("Clone shares backing storage")
	}
}

func TestEnabledOrder(t *testing.T) {
	alg := parity{n: 4}
	c := Config[bool]{false, true, false, false}
	// P1: differs from P0 -> rule 1; P2: differs from P1 -> rule 1;
	// P0: equals P3 -> rule 2.
	moves := Enabled[bool](alg, c)
	want := []Move{{0, 2}, {1, 1}, {2, 1}}
	if len(moves) != len(want) {
		t.Fatalf("Enabled = %v, want %v", moves, want)
	}
	for i := range want {
		if moves[i] != want[i] {
			t.Fatalf("Enabled = %v, want %v", moves, want)
		}
	}
}

func TestApplyCompositeAtomicity(t *testing.T) {
	// Simultaneous moves must read the OLD configuration.
	alg := parity{n: 3}
	c := Config[bool]{false, true, false}
	// P1 enabled (copies old P0=false), P2 enabled (copies old P1=true).
	next := Apply[bool](alg, c, []Move{{1, 1}, {2, 1}})
	if next[1] != false || next[2] != true {
		t.Errorf("composite atomicity violated: %v", next)
	}
	// Original untouched.
	if !slices.Equal(c, Config[bool]{false, true, false}) {
		t.Error("Apply mutated its input")
	}
}

func TestApplyRejectsBogusMove(t *testing.T) {
	alg := parity{n: 3}
	c := Config[bool]{false, false, false}
	defer func() {
		if recover() == nil {
			t.Error("Apply accepted a disabled move")
		}
	}()
	Apply[bool](alg, c, []Move{{1, 1}}) // P1 is not enabled here
}

// warmDaemon selects the first enabled move for warm steps and from then
// on sel, whatever is enabled — for exercising the simulator's selection
// validation.
type warmDaemon struct {
	warm int
	sel  []Move
}

func (d *warmDaemon) Name() string { return "warm" }
func (d *warmDaemon) Select(enabled []Move) []Move {
	if d.warm > 0 {
		d.warm--
		return enabled[:1]
	}
	return d.sel
}

type firstDaemon struct{}

func (firstDaemon) Name() string                 { return "first" }
func (firstDaemon) Select(enabled []Move) []Move { return enabled[:1] }

func TestSimulatorStepAndRun(t *testing.T) {
	alg := parity{n: 3}
	sim := NewSimulator[bool](alg, firstDaemon{}, Config[bool]{false, false, false})
	var steps []int
	sim.OnStep = func(step int, moves []Move, cfg Config[bool]) {
		steps = append(steps, step)
		if len(moves) != 1 {
			t.Errorf("step %d: %d moves", step, len(moves))
		}
	}
	moved, ok := sim.Step()
	if !ok || len(moved) != 1 || moved[0] != (Move{0, 2}) {
		t.Fatalf("Step = %v, %v", moved, ok)
	}
	if sim.Steps() != 1 {
		t.Errorf("Steps() = %d", sim.Steps())
	}
	n := sim.Run(10)
	if n != 10 {
		t.Errorf("Run = %d, want 10", n)
	}
	if len(steps) != 11 {
		t.Errorf("OnStep fired %d times, want 11", len(steps))
	}
}

func TestSimulatorRunUntil(t *testing.T) {
	alg := parity{n: 3}
	sim := NewSimulator[bool](alg, firstDaemon{}, Config[bool]{true, false, false})
	// Run until all bits equal.
	allEqual := func(c Config[bool]) bool {
		for _, b := range c {
			if b != c[0] {
				return false
			}
		}
		return true
	}
	steps, ok := sim.RunUntil(allEqual, 100)
	if !ok {
		t.Fatal("RunUntil did not reach the predicate")
	}
	if steps == 0 {
		t.Fatal("RunUntil reported zero steps from a non-satisfying start")
	}
	// Already satisfied: zero steps.
	steps, ok = sim.RunUntil(allEqual, 100)
	if steps != 0 || !ok {
		t.Errorf("RunUntil on satisfied predicate = %d, %v", steps, ok)
	}
}

func TestSimulatorValidatesDaemon(t *testing.T) {
	alg := parity{n: 3}

	// In {false, false, false} only P0 is enabled, with rule 2. Three
	// first-move steps lead through P1 and P2 back to {true, true, true},
	// where again only P0/R2 is: a stamp left from an earlier step must
	// not admit P1.
	cases := []struct {
		name string
		sel  []Move
		want string // the panic message
	}{
		{"empty", nil, "statemodel: daemon selected the empty set"},
		{"not-enabled", []Move{{1, 1}}, "statemodel: daemon selected P1/R1 which is not enabled"},
		{"out-of-range", []Move{{3, 2}}, "statemodel: daemon selected P3/R2 which is not enabled"},
		{"negative", []Move{{-1, 2}}, "statemodel: daemon selected P-1/R2 which is not enabled"},
		{"wrong-rule", []Move{{0, 1}}, "statemodel: daemon selected P0/R1 which is not enabled"},
		{"duplicate", []Move{{0, 2}, {0, 2}}, "statemodel: daemon selected P0/R2 twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, warm := range []int{0, 3} {
				sim := NewSimulator[bool](alg, &warmDaemon{warm: warm, sel: tc.sel}, Config[bool]{false, false, false})
				sim.Run(warm)
				if got := stepPanic(sim); got != tc.want {
					t.Errorf("after %d steps, selection %v: panic %v, want %q", warm, tc.sel, got, tc.want)
				}
			}
		})
	}
}

// stepPanic runs one step and returns what it panicked with.
func stepPanic(sim *Simulator[bool]) (got any) {
	defer func() { got = recover() }()
	sim.Step()
	return nil
}

func TestSimulatorSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched init size accepted")
		}
	}()
	NewSimulator[bool](parity{n: 3}, firstDaemon{}, Config[bool]{false})
}

func TestMoveString(t *testing.T) {
	if got := (Move{Process: 2, Rule: 3}).String(); got != "P2/R3" {
		t.Errorf("Move.String() = %q", got)
	}
}

func TestRunUntilDeadlockStops(t *testing.T) {
	// A daemon-less deadlock: no process enabled in the all-equal parity
	// config with... parity always has an enabled process; use a frozen
	// algorithm instead.
	sim := NewSimulator[bool](frozen{}, firstDaemon{}, Config[bool]{false, false})
	steps, ok := sim.RunUntil(func(Config[bool]) bool { return false }, 10)
	if ok || steps != 0 {
		t.Fatalf("RunUntil on deadlock = %d, %v", steps, ok)
	}
	if n := sim.Run(5); n != 0 {
		t.Fatalf("Run on deadlock = %d", n)
	}
	if moves, alive := sim.Step(); alive || moves != nil {
		t.Fatal("Step on deadlock reported progress")
	}
}

// frozen is an algorithm with no enabled process ever.
type frozen struct{}

func (frozen) Name() string                   { return "frozen" }
func (frozen) N() int                         { return 2 }
func (frozen) Rules() int                     { return 1 }
func (frozen) EnabledRule(v View[bool]) int   { return 0 }
func (frozen) Apply(v View[bool], r int) bool { return v.Self }

func TestRoundCounterPrimeDirectly(t *testing.T) {
	alg := parity{n: 3}
	rc := NewRoundCounter[bool](alg)
	cfg := Config[bool]{false, true, false}
	rc.Prime(cfg)
	moves := Enabled[bool](alg, cfg)
	next := Apply[bool](alg, cfg, moves)
	rc.Observe(moves, next)
	if rc.Rounds() != 1 {
		t.Fatalf("rounds = %d after serving all enabled", rc.Rounds())
	}
}
