package daemon

import (
	"math/rand"
	"testing"

	"ssrmin/internal/statemodel"
)

func moves(ps ...int) []statemodel.Move {
	out := make([]statemodel.Move, len(ps))
	for i, p := range ps {
		out[i] = statemodel.Move{Process: p, Rule: 1}
	}
	return out
}

func movesWithRules(pairs ...[2]int) []statemodel.Move {
	out := make([]statemodel.Move, len(pairs))
	for i, pr := range pairs {
		out[i] = statemodel.Move{Process: pr[0], Rule: pr[1]}
	}
	return out
}

func contains(sel []statemodel.Move, m statemodel.Move) bool {
	for _, s := range sel {
		if s == m {
			return true
		}
	}
	return false
}

func assertSubset(t *testing.T, sel, enabled []statemodel.Move) {
	t.Helper()
	if len(sel) == 0 {
		t.Fatal("daemon selected empty set")
	}
	for _, m := range sel {
		if !contains(enabled, m) {
			t.Fatalf("daemon selected %v not in enabled %v", m, enabled)
		}
	}
}

func TestCentralVariantsPickOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	enabled := moves(1, 3, 5)
	for _, d := range []statemodel.Daemon{
		NewCentralRandom(rng),
		NewCentralLowest(),
	} {
		for i := 0; i < 50; i++ {
			sel := d.Select(enabled)
			if len(sel) != 1 {
				t.Fatalf("%s selected %d moves", d.Name(), len(sel))
			}
			assertSubset(t, sel, enabled)
		}
	}
	if got := NewCentralLowest().Select(enabled)[0].Process; got != 1 {
		t.Errorf("central-lowest picked P%d, want P1", got)
	}
}

func TestSynchronousSelectsAll(t *testing.T) {
	enabled := moves(0, 1, 2, 3)
	sel := Synchronous{}.Select(enabled)
	if len(sel) != 4 {
		t.Fatalf("synchronous selected %d of 4", len(sel))
	}
	// The selection is enabled itself, unchanged: the daemon copies
	// nothing, so a synchronous step allocates nothing.
	if &sel[0] != &enabled[0] {
		t.Error("Synchronous copied the enabled slice")
	}
	for i, m := range moves(0, 1, 2, 3) {
		if sel[i] != m {
			t.Errorf("selection[%d] = %v, want %v", i, sel[i], m)
		}
	}
}

func TestRandomSubsetNonemptyAndSeeded(t *testing.T) {
	enabled := moves(0, 1, 2, 3, 4)
	d := NewRandomSubset(rand.New(rand.NewSource(9)), 0.0)
	for i := 0; i < 100; i++ {
		sel := d.Select(enabled)
		if len(sel) != 1 {
			t.Fatalf("p=0 must fall back to a single move, got %d", len(sel))
		}
		assertSubset(t, sel, enabled)
	}
	d = NewRandomSubset(rand.New(rand.NewSource(9)), 1.0)
	if sel := d.Select(enabled); len(sel) != 5 {
		t.Fatalf("p=1 must select everything, got %d", len(sel))
	}
	// Same seed, same choices.
	a := NewRandomSubset(rand.New(rand.NewSource(4)), 0.5)
	b := NewRandomSubset(rand.New(rand.NewSource(4)), 0.5)
	for i := 0; i < 50; i++ {
		sa, sb := a.Select(enabled), b.Select(enabled)
		if len(sa) != len(sb) {
			t.Fatal("same-seed daemons diverged")
		}
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatal("same-seed daemons diverged")
			}
		}
	}
}

func TestRandomSubsetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRandomSubset accepted p=2")
		}
	}()
	NewRandomSubset(rand.New(rand.NewSource(0)), 2)
}

func TestRuleBiasedPrefersRules(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewRuleBiased(rng, 1, 3, 5)
	enabled := movesWithRules([2]int{0, 2}, [2]int{1, 3}, [2]int{2, 5}, [2]int{3, 4})
	sel := d.Select(enabled)
	if len(sel) != 2 {
		t.Fatalf("selected %v, want the two preferred moves", sel)
	}
	for _, m := range sel {
		if m.Rule != 3 && m.Rule != 5 {
			t.Fatalf("selected non-preferred %v", m)
		}
	}
	// Only non-preferred enabled: falls back to one of them.
	enabled = movesWithRules([2]int{0, 2}, [2]int{3, 4})
	sel = d.Select(enabled)
	if len(sel) != 1 {
		t.Fatalf("fallback selected %d moves", len(sel))
	}
	assertSubset(t, sel, enabled)
}

func TestStarverAvoidsVictims(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewStarver(rng, 0, 2)
	enabled := moves(0, 1, 2, 3)
	sel := d.Select(enabled)
	for _, m := range sel {
		if m.Process == 0 || m.Process == 2 {
			t.Fatalf("starver selected victim %v", m)
		}
	}
	if len(sel) != 2 {
		t.Fatalf("starver selected %v, want both non-victims", sel)
	}
	// Only victims enabled: must select one anyway.
	sel = d.Select(moves(0, 2))
	if len(sel) != 1 {
		t.Fatalf("starver fallback selected %d", len(sel))
	}
}

func TestNames(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	for _, d := range []statemodel.Daemon{
		NewCentralRandom(rng), NewCentralLowest(), Synchronous{},
		NewRandomSubset(rng, 0.5), NewRuleBiased(rng, 1, 3), NewStarver(rng, 2, 0),
	} {
		if d.Name() == "" {
			t.Errorf("%T has empty name", d)
		}
	}
	if got := NewStarver(rng, 2, 0).Name(); got != "starver[0 2]" {
		t.Errorf("starver name %q, want sorted victims", got)
	}
}
