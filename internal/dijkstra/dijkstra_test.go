package dijkstra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ssrmin/internal/statemodel"
)

func xs(vals ...int) statemodel.Config[State] {
	c := make(statemodel.Config[State], len(vals))
	for i, v := range vals {
		c[i] = State{X: v}
	}
	return c
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{1, 5}, {3, 3}, {4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", tc.n, tc.k)
				}
			}()
			New(tc.n, tc.k)
		}()
	}
}

func TestGuardAndCommand(t *testing.T) {
	a := New(4, 5)
	// Bottom process: token iff x_0 = x_{n-1}.
	v := statemodel.View[State]{I: 0, N: 4, Self: State{2}, Pred: State{2}, Succ: State{0}}
	if !Guard(v) {
		t.Error("bottom guard should hold when x_0 = x_{n-1}")
	}
	if got := a.Apply(v, 1); got.X != 3 {
		t.Errorf("bottom command = %d, want 3", got.X)
	}
	// Wraparound of the counter.
	v.Self, v.Pred = State{4}, State{4}
	if got := a.Apply(v, 1); got.X != 0 {
		t.Errorf("bottom command at K-1 = %d, want 0", got.X)
	}
	// Other process: token iff x_i ≠ x_{i-1}, command copies.
	v = statemodel.View[State]{I: 2, N: 4, Self: State{1}, Pred: State{3}, Succ: State{0}}
	if !Guard(v) {
		t.Error("other guard should hold when x_i ≠ x_{i-1}")
	}
	if got := a.Apply(v, 1); got.X != 3 {
		t.Errorf("other command = %d, want 3 (copy of pred)", got.X)
	}
	v.Self = State{3}
	if Guard(v) {
		t.Error("other guard should not hold when x_i = x_{i-1}")
	}
}

func TestAtLeastOneTokenAlways(t *testing.T) {
	// Lemma 3: in any configuration some process holds the token.
	a := New(3, 4)
	for x0 := 0; x0 < 4; x0++ {
		for x1 := 0; x1 < 4; x1++ {
			for x2 := 0; x2 < 4; x2++ {
				c := xs(x0, x1, x2)
				if len(a.TokenHolders(c)) == 0 {
					t.Fatalf("no token in %v", c)
				}
			}
		}
	}
}

func TestAtLeastOneTokenQuick(t *testing.T) {
	a := New(7, 9)
	f := func(raw []uint8) bool {
		c := make(statemodel.Config[State], a.N())
		for i := range c {
			if i < len(raw) {
				c[i] = State{X: int(raw[i]) % a.k}
			}
		}
		return len(a.TokenHolders(c)) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestLegitimateForms(t *testing.T) {
	a := New(4, 5)
	legit := []statemodel.Config[State]{
		xs(0, 0, 0, 0),
		xs(3, 3, 3, 3),
		xs(1, 0, 0, 0),
		xs(1, 1, 0, 0),
		xs(1, 1, 1, 0),
		xs(0, 4, 4, 4), // wraparound: x = 4, prefix x+1 = 0
	}
	for _, c := range legit {
		if !a.Legitimate(c) {
			t.Errorf("Legitimate(%v) = false, want true", c)
		}
		if !a.SingleToken(c) {
			t.Errorf("SingleToken(%v) = false, want true", c)
		}
	}
	illegit := []statemodel.Config[State]{
		xs(0, 1, 2, 3),
		xs(2, 0, 0, 0), // single token but step of height 2
		xs(1, 0, 1, 0),
		xs(0, 0, 1, 1), // suffix larger: two tokens (P2 and P0)
	}
	for _, c := range illegit {
		if a.Legitimate(c) {
			t.Errorf("Legitimate(%v) = true, want false", c)
		}
	}
	// (2,0,0,0) has a single token but is not strict-legitimate.
	if !a.SingleToken(xs(2, 0, 0, 0)) {
		t.Error("SingleToken((2,0,0,0)) = false, want true")
	}
}

func TestTokenCirculation(t *testing.T) {
	// From the all-zero configuration, the token visits every process in
	// order, and every process is privileged once per rotation.
	a := New(5, 6)
	c := a.InitialLegitimate()
	wantHolder := 0
	for step := 0; step < 5*6; step++ {
		h := a.TokenHolders(c)
		if len(h) != 1 || h[0] != wantHolder {
			t.Fatalf("step %d: holders %v, want [%d]", step, h, wantHolder)
		}
		moves := statemodel.Enabled[State](a, c)
		if len(moves) != 1 {
			t.Fatalf("step %d: enabled %v, want exactly one", step, moves)
		}
		c = statemodel.Apply[State](a, c, moves)
		wantHolder = (wantHolder + 1) % 5
	}
}

func TestClosureExhaustive(t *testing.T) {
	// From every legitimate configuration, the (unique) successor is
	// legitimate. Enumerate legitimate configurations directly.
	a := New(4, 5)
	count := 0
	for x := 0; x < a.k; x++ {
		for h := 0; h < a.N(); h++ {
			c := make(statemodel.Config[State], a.N())
			for i := range c {
				if i < h {
					c[i] = State{X: (x + 1) % a.k}
				} else {
					c[i] = State{X: x}
				}
			}
			if !a.Legitimate(c) {
				t.Fatalf("enumerated config %v not legitimate", c)
			}
			moves := statemodel.Enabled[State](a, c)
			if len(moves) != 1 {
				t.Fatalf("legitimate %v has %d enabled processes", c, len(moves))
			}
			next := statemodel.Apply[State](a, c, moves)
			if !a.Legitimate(next) {
				t.Fatalf("closure violated: %v -> %v", c, next)
			}
			count++
		}
	}
	if count != a.N()*a.k {
		t.Fatalf("enumerated %d legitimate configs, want %d", count, a.N()*a.k)
	}
}

func TestConvergenceWithinBound(t *testing.T) {
	// From random configurations under a synchronous daemon (every enabled
	// process moves), SSToken reaches a single-token configuration within
	// the 3n(n−1)/2 bound of rounds, and the strict legitimate form within
	// one extra rotation.
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, k int }{{3, 4}, {5, 6}, {10, 11}, {17, 19}} {
		a := New(tc.n, tc.k)
		for trial := 0; trial < 200; trial++ {
			c := make(statemodel.Config[State], tc.n)
			for i := range c {
				c[i] = State{X: rng.Intn(tc.k)}
			}
			bound := a.ConvergenceBound()
			steps := 0
			for !a.SingleToken(c) {
				if steps > bound {
					t.Fatalf("n=%d: no convergence to single token in %d steps from trial %d", tc.n, bound, trial)
				}
				moves := statemodel.Enabled[State](a, c)
				c = statemodel.Apply[State](a, c, moves)
				steps++
			}
			extra := 0
			for !a.Legitimate(c) {
				if extra > 2*tc.n {
					t.Fatalf("n=%d: single-token config %v did not collapse to strict form", tc.n, c)
				}
				moves := statemodel.Enabled[State](a, c)
				c = statemodel.Apply[State](a, c, moves)
				extra++
			}
		}
	}
}

func TestTokenCountNeverIncreases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(6, 7)
	for trial := 0; trial < 300; trial++ {
		c := make(statemodel.Config[State], a.N())
		for i := range c {
			c[i] = State{X: rng.Intn(a.k)}
		}
		prev := len(a.TokenHolders(c))
		for step := 0; step < 100; step++ {
			moves := statemodel.Enabled[State](a, c)
			// Random nonempty subset.
			var sel []statemodel.Move
			for _, m := range moves {
				if rng.Intn(2) == 0 {
					sel = append(sel, m)
				}
			}
			if len(sel) == 0 {
				sel = moves[:1]
			}
			c = statemodel.Apply[State](a, c, sel)
			cur := len(a.TokenHolders(c))
			if cur > prev {
				t.Fatalf("token count increased %d -> %d at %v", prev, cur, c)
			}
			prev = cur
		}
	}
}

func TestAllStates(t *testing.T) {
	a := New(3, 7)
	if got := len(a.AllStates()); got != 7 {
		t.Errorf("AllStates() has %d entries, want 7", got)
	}
}

func TestConvergenceBoundValue(t *testing.T) {
	if got := New(5, 6).ConvergenceBound(); got != 30 {
		t.Errorf("ConvergenceBound(n=5) = %d, want 30", got)
	}
}

func TestAccessorsAndStrings(t *testing.T) {
	a := New(4, 5)
	if a.Name() != "sstoken(n=4,K=5)" {
		t.Errorf("Name = %q", a.Name())
	}
	if a.Rules() != 1 || a.k != 5 || a.N() != 4 {
		t.Error("accessors wrong")
	}
	if (State{X: 3}).String() != "3" {
		t.Error("State.String wrong")
	}
}

func TestApplyBadRulePanics(t *testing.T) {
	a := New(3, 4)
	v := statemodel.View[State]{I: 1, N: 3, Self: State{1}, Pred: State{0}}
	defer func() {
		if recover() == nil {
			t.Error("Apply(2) accepted")
		}
	}()
	a.Apply(v, 2)
}
