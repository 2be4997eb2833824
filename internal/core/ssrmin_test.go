package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ssrmin/internal/statemodel"
)

// st builds a State from the paper's x.rts.tra notation.
func st(x, rts, tra int) State {
	return State{X: x, RTS: rts != 0, TRA: tra != 0}
}

func cfg(states ...State) statemodel.Config[State] { return statemodel.Config[State](states) }

// onlyEnabled asserts exactly one process is enabled and returns its move.
func onlyEnabled(t *testing.T, a *Algorithm, c statemodel.Config[State]) statemodel.Move {
	t.Helper()
	moves := statemodel.Enabled[State](a, c)
	if len(moves) != 1 {
		t.Fatalf("want exactly one enabled process, got %v in %v", moves, c)
	}
	return moves[0]
}

func TestStateString(t *testing.T) {
	if got := st(3, 1, 0).String(); got != "3.1.0" {
		t.Errorf("String() = %q, want 3.1.0", got)
	}
	if got := st(0, 0, 1).String(); got != "0.0.1" {
		t.Errorf("String() = %q, want 0.0.1", got)
	}
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 5}, {3, 3}, {5, 5}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", tc.n, tc.k)
				}
			}()
			New(tc.n, tc.k)
		}()
	}
	if a := New(3, 4); a.N() != 3 || a.K() != 4 {
		t.Errorf("New(3,4) = n=%d K=%d", a.N(), a.K())
	}
}

// TestFigure4Execution replays, step by step, the execution example of
// Figure 4 of the paper (five processes, starting from (3.0.1, 3.0.0, …)),
// checking at every step the full configuration, the unique enabled
// process, its rule, and the token positions.
func TestFigure4Execution(t *testing.T) {
	a := New(5, 6)

	type row struct {
		cfg     []State
		proc    int // the unique enabled process
		rule    int
		primary int // primary token holder
		secA    int // secondary token holder
	}
	rows := []row{
		{[]State{st(3, 0, 1), st(3, 0, 0), st(3, 0, 0), st(3, 0, 0), st(3, 0, 0)}, 0, 1, 0, 0},
		{[]State{st(3, 1, 0), st(3, 0, 0), st(3, 0, 0), st(3, 0, 0), st(3, 0, 0)}, 1, 3, 0, 0},
		{[]State{st(3, 1, 0), st(3, 0, 1), st(3, 0, 0), st(3, 0, 0), st(3, 0, 0)}, 0, 2, 0, 1},
		{[]State{st(4, 0, 0), st(3, 0, 1), st(3, 0, 0), st(3, 0, 0), st(3, 0, 0)}, 1, 1, 1, 1},
		{[]State{st(4, 0, 0), st(3, 1, 0), st(3, 0, 0), st(3, 0, 0), st(3, 0, 0)}, 2, 3, 1, 1},
		{[]State{st(4, 0, 0), st(3, 1, 0), st(3, 0, 1), st(3, 0, 0), st(3, 0, 0)}, 1, 2, 1, 2},
		{[]State{st(4, 0, 0), st(4, 0, 0), st(3, 0, 1), st(3, 0, 0), st(3, 0, 0)}, 2, 1, 2, 2},
		{[]State{st(4, 0, 0), st(4, 0, 0), st(3, 1, 0), st(3, 0, 0), st(3, 0, 0)}, 3, 3, 2, 2},
		{[]State{st(4, 0, 0), st(4, 0, 0), st(3, 1, 0), st(3, 0, 1), st(3, 0, 0)}, 2, 2, 2, 3},
		{[]State{st(4, 0, 0), st(4, 0, 0), st(4, 0, 0), st(3, 0, 1), st(3, 0, 0)}, 3, 1, 3, 3},
		{[]State{st(4, 0, 0), st(4, 0, 0), st(4, 0, 0), st(3, 1, 0), st(3, 0, 0)}, 4, 3, 3, 3},
		{[]State{st(4, 0, 0), st(4, 0, 0), st(4, 0, 0), st(3, 1, 0), st(3, 0, 1)}, 3, 2, 3, 4},
		{[]State{st(4, 0, 0), st(4, 0, 0), st(4, 0, 0), st(4, 0, 0), st(3, 0, 1)}, 4, 1, 4, 4},
		{[]State{st(4, 0, 0), st(4, 0, 0), st(4, 0, 0), st(4, 0, 0), st(3, 1, 0)}, 0, 3, 4, 4},
		{[]State{st(4, 0, 1), st(4, 0, 0), st(4, 0, 0), st(4, 0, 0), st(3, 1, 0)}, 4, 2, 4, 0},
		{[]State{st(4, 0, 1), st(4, 0, 0), st(4, 0, 0), st(4, 0, 0), st(4, 0, 0)}, 0, 1, 0, 0},
	}

	c := cfg(rows[0].cfg...)
	for step, want := range rows {
		if !slices.Equal(c, cfg(want.cfg...)) {
			t.Fatalf("step %d: configuration = %v, want %v", step+1, c, want.cfg)
		}
		if !a.Legitimate(c) {
			t.Fatalf("step %d: configuration %v not legitimate", step+1, c)
		}
		m := onlyEnabled(t, a, c)
		if m.Process != want.proc || m.Rule != want.rule {
			t.Fatalf("step %d: enabled move %v, want P%d/R%d", step+1, m, want.proc, want.rule)
		}
		if ph := a.PrimaryHolders(c); len(ph) != 1 || ph[0] != want.primary {
			t.Fatalf("step %d: primary holders %v, want [%d]", step+1, ph, want.primary)
		}
		if sh := a.SecondaryHolders(c); len(sh) != 1 || sh[0] != want.secA {
			t.Fatalf("step %d: secondary holders %v, want [%d]", step+1, sh, want.secA)
		}
		c = statemodel.Apply[State](a, c, []statemodel.Move{m})
	}
}

// TestClosureFullCycle runs the unique execution from γ0 for K full
// rotations (3nK steps) and checks Lemma 1 at every configuration: the
// successor of a legitimate configuration is legitimate, exactly one
// process is enabled, and after 3nK steps the execution is back at γ0.
func TestClosureFullCycle(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{3, 4}, {4, 5}, {5, 6}, {7, 11}, {16, 17}} {
		a := New(tc.n, tc.k)
		c := a.InitialLegitimate()
		total := 3 * tc.n * tc.k
		for s := 0; s < total; s++ {
			if !a.Legitimate(c) {
				t.Fatalf("n=%d K=%d step %d: illegitimate %v", tc.n, tc.k, s, c)
			}
			holders := a.TokenHolders(c)
			if len(holders) < 1 || len(holders) > 2 {
				t.Fatalf("n=%d K=%d step %d: %d privileged processes", tc.n, tc.k, s, len(holders))
			}
			m := onlyEnabled(t, a, c)
			c = statemodel.Apply[State](a, c, []statemodel.Move{m})
		}
		if !slices.Equal(c, a.InitialLegitimate()) {
			t.Errorf("n=%d K=%d: after %d steps configuration %v, want γ0", tc.n, tc.k, total, c)
		}
	}
}

// TestLegitimatePredicateMatchesEnumeration exhaustively checks, for a
// small instance, that the structural predicate Legitimate agrees with the
// explicit enumeration of Definition 1.
func TestLegitimatePredicateMatchesEnumeration(t *testing.T) {
	a := New(3, 4)
	want := make(map[string]bool)
	for _, c := range a.LegitimateConfigs() {
		want[configKey(c)] = true
	}
	if len(want) != 3*a.N()*a.K() {
		t.Fatalf("enumeration has %d configs, want %d", len(want), 3*a.N()*a.K())
	}
	count := 0
	forAllConfigs(a, func(c statemodel.Config[State]) {
		count++
		if got, exp := a.Legitimate(c), want[configKey(c)]; got != exp {
			t.Fatalf("Legitimate(%v) = %v, enumeration says %v", c, got, exp)
		}
	})
	if exp := 16 * 16 * 16; count != exp { // (4K)^n = 16^3
		t.Fatalf("visited %d configs, want %d", count, exp)
	}
}

// TestLemma2TokenCounts checks that in every legitimate configuration the
// primary and the secondary token each exist exactly once, and that the two
// holders are the same process or ring neighbors.
func TestLemma2TokenCounts(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{3, 4}, {4, 6}, {6, 7}, {9, 13}} {
		a := New(tc.n, tc.k)
		for _, c := range a.LegitimateConfigs() {
			p := a.PrimaryHolders(c)
			s := a.SecondaryHolders(c)
			if len(p) != 1 {
				t.Fatalf("n=%d: %d primary holders in %v", tc.n, len(p), c)
			}
			if len(s) != 1 {
				t.Fatalf("n=%d: %d secondary holders in %v", tc.n, len(s), c)
			}
			d := (s[0] - p[0] + tc.n) % tc.n
			if d != 0 && d != 1 {
				t.Fatalf("n=%d: secondary at %d not at/next to primary at %d in %v", tc.n, s[0], p[0], c)
			}
		}
	}
}

// TestLemma4NoDeadlock exhaustively verifies, for a small instance, that
// every configuration has at least one enabled process, and spot-checks
// larger instances with random configurations.
func TestLemma4NoDeadlock(t *testing.T) {
	a := New(3, 4)
	forAllConfigs(a, func(c statemodel.Config[State]) {
		if len(statemodel.Enabled[State](a, c)) == 0 {
			t.Fatalf("deadlock at %v", c)
		}
	})

	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct{ n, k int }{{5, 6}, {8, 9}, {12, 16}, {20, 23}} {
		b := New(tc.n, tc.k)
		for trial := 0; trial < 2000; trial++ {
			c := RandomConfig(b, rng)
			if len(statemodel.Enabled[State](b, c)) == 0 {
				t.Fatalf("n=%d K=%d: deadlock at %v", tc.n, tc.k, c)
			}
		}
	}
}

// TestLemma4NoDeadlockQuick is the same invariant as a testing/quick
// property over arbitrary configurations.
func TestLemma4NoDeadlockQuick(t *testing.T) {
	a := New(6, 8)
	f := func(raw []uint16) bool {
		c := decodeConfig(a, raw)
		return len(statemodel.Enabled[State](a, c)) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestFigure3PossibleRules reproduces Figure 3: for each ⟨rts.tra⟩ value
// of a process, the set of rules that can possibly be enabled, over all
// neighbor states and both G values.
func TestFigure3PossibleRules(t *testing.T) {
	a := New(3, 4)
	want := map[[2]bool]map[int]bool{
		{false, false}: {RuleReadySecondary: true, RuleRecvSecondary: true},
		{false, true}:  {RuleReadySecondary: true, RuleFixNoG: true},
		{true, false}:  {RuleSendPrimary: true, RuleFixG: true, RuleRecvSecondary: true, RuleFixNoG: true},
		{true, true}:   {RuleReadySecondary: true, RuleRecvSecondary: true, RuleFixNoG: true},
	}
	got := make(map[[2]bool]map[int]bool)
	for _, self := range a.AllStates() {
		for _, pred := range a.AllStates() {
			for _, succ := range a.AllStates() {
				for _, i := range []int{0, 1} { // bottom and non-bottom
					v := statemodel.View[State]{I: i, N: 3, Self: self, Pred: pred, Succ: succ}
					r := a.EnabledRule(v)
					if r == 0 {
						continue
					}
					key := [2]bool{self.RTS, self.TRA}
					if got[key] == nil {
						got[key] = make(map[int]bool)
					}
					got[key][r] = true
				}
			}
		}
	}
	for key, rules := range want {
		if len(got[key]) != len(rules) {
			t.Errorf("⟨%d.%d⟩: possible rules %v, want %v", bit(key[0]), bit(key[1]), setOf(got[key]), setOf(rules))
			continue
		}
		for r := range rules {
			if !got[key][r] {
				t.Errorf("⟨%d.%d⟩: rule %d missing (got %v)", bit(key[0]), bit(key[1]), r, setOf(got[key]))
			}
		}
	}
}

// TestRulesExclusive verifies the priority encoding: no view can make
// EnabledRule report a rule whose guard conflicts with a smaller rule —
// i.e. the function is deterministic and total, and Apply round-trips for
// every enabled view.
func TestRulesExclusive(t *testing.T) {
	a := New(3, 4)
	for _, self := range a.AllStates() {
		for _, pred := range a.AllStates() {
			for _, succ := range a.AllStates() {
				for _, i := range []int{0, 1, 2} {
					v := statemodel.View[State]{I: i, N: 3, Self: self, Pred: pred, Succ: succ}
					r := a.EnabledRule(v)
					if r < 0 || r > 5 {
						t.Fatalf("EnabledRule(%v) = %d out of range", v, r)
					}
					if r != 0 {
						next := a.Apply(v, r)
						if next.X < 0 || next.X >= a.K() {
							t.Fatalf("Apply(%v, %d) = %v: X out of range", v, r, next)
						}
					}
				}
			}
		}
	}
}

// TestLemma5QuietExecutionBound checks Lemma 5: any execution that never
// executes Rule 2 or Rule 4 has length at most 3n. A greedy daemon runs
// all enabled {1,3,5}-moves each step and stops when only {2,4}-moves
// remain.
func TestLemma5QuietExecutionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, k int }{{3, 4}, {5, 6}, {8, 9}, {13, 17}} {
		a := New(tc.n, tc.k)
		for trial := 0; trial < 500; trial++ {
			c := RandomConfig(a, rng)
			steps := 0
			for {
				var quiet []statemodel.Move
				for _, m := range statemodel.Enabled[State](a, c) {
					if m.Rule != RuleSendPrimary && m.Rule != RuleFixG {
						quiet = append(quiet, m)
					}
				}
				if len(quiet) == 0 {
					break
				}
				c = statemodel.Apply[State](a, c, quiet)
				steps++
				if steps > 3*tc.n {
					t.Fatalf("n=%d: quiet execution exceeded 3n=%d steps", tc.n, 3*tc.n)
				}
			}
		}
	}
}

// TestSecondaryTokenNeverExtinct spot-checks the design point of Section
// 3.1: with the chosen secondary-token condition, the secondary token
// exists in every legitimate configuration, including when both tokens sit
// on one process (where the naive condition tra=1 would lose it after
// Rule 1).
func TestSecondaryTokenNeverExtinct(t *testing.T) {
	a := New(5, 6)
	for _, c := range a.LegitimateConfigs() {
		if len(a.SecondaryHolders(c)) != 1 {
			t.Fatalf("secondary token extinct or duplicated in %v", c)
		}
	}
}

// forAllConfigs enumerates the full configuration space of a.
func forAllConfigs(a *Algorithm, visit func(statemodel.Config[State])) {
	states := a.AllStates()
	c := make(statemodel.Config[State], a.N())
	var rec func(i int)
	rec = func(i int) {
		if i == a.N() {
			visit(c)
			return
		}
		for _, s := range states {
			c[i] = s
			rec(i + 1)
		}
	}
	rec(0)
}

func configKey(c statemodel.Config[State]) string {
	out := ""
	for _, s := range c {
		out += s.String() + ","
	}
	return out
}

// RandomConfig returns a uniformly random configuration of a.
func RandomConfig(a *Algorithm, rng *rand.Rand) statemodel.Config[State] {
	c := make(statemodel.Config[State], a.N())
	for i := range c {
		c[i] = State{X: rng.Intn(a.K()), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
	}
	return c
}

// decodeConfig maps arbitrary fuzz bytes onto a configuration.
func decodeConfig(a *Algorithm, raw []uint16) statemodel.Config[State] {
	c := make(statemodel.Config[State], a.N())
	for i := range c {
		var w uint16
		if i < len(raw) {
			w = raw[i]
		}
		c[i] = State{X: int(w) % a.K(), RTS: w&0x100 != 0, TRA: w&0x200 != 0}
	}
	return c
}

func setOf(m map[int]bool) []int {
	var out []int
	for r := 1; r <= 5; r++ {
		if m[r] {
			out = append(out, r)
		}
	}
	return out
}

// TestNaiveSecondaryExtinctInStateReading reproduces the Section 3.1
// discussion: with the naive condition (tra only), the secondary token is
// extinct in exactly the legitimate configurations where the holder has
// announced it (⟨1.0⟩) and the successor has not yet acknowledged — one of
// the three legitimate patterns — while the designed condition always
// counts exactly one secondary token.
func TestNaiveSecondaryExtinctInStateReading(t *testing.T) {
	a := New(5, 6)
	extinct := 0
	for _, c := range a.LegitimateConfigs() {
		naive, designed := 0, 0
		for i := range c {
			v := c.View(i)
			if HasSecondaryNaive(v) {
				naive++
			}
			if HasSecondary(v) {
				designed++
			}
		}
		if designed != 1 {
			t.Fatalf("designed condition counts %d secondaries in %v", designed, c)
		}
		if naive == 0 {
			extinct++
		}
		if naive > 1 {
			t.Fatalf("naive condition counts %d secondaries in %v", naive, c)
		}
	}
	// Pattern 1 of the three legitimate patterns (holder = ⟨1.0⟩, succ not
	// yet acked) has no tra bit anywhere: exactly 1/3 of Λ.
	if want := len(a.LegitimateConfigs()) / 3; extinct != want {
		t.Fatalf("naive secondary extinct in %d configs, want %d", extinct, want)
	}
}

// TestClosureProofPhases re-derives the three-phase cycle of the Lemma 1
// proof for arbitrary n: from γ0 = (x.0.1, x.0.0, …), the execution is
// exactly γ(3i) --R1--> γ(3i+1) --R3--> γ(3i+2) --R2--> γ(3i+3), with the
// unique enabled process alternating P_i, P_{i+1}, P_i.
func TestClosureProofPhases(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		a := New(n, n+1)
		c := a.InitialLegitimate()
		for i := 0; i < n; i++ { // one full rotation
			holder := i
			succ := (i + 1) % n
			for phase, want := range []struct{ proc, rule int }{
				{holder, RuleReadySecondary},
				{succ, RuleRecvSecondary},
				{holder, RuleSendPrimary},
			} {
				m := onlyEnabled(t, a, c)
				if m.Process != want.proc || m.Rule != want.rule {
					t.Fatalf("n=%d pos=%d phase=%d: move %v, want P%d/R%d",
						n, i, phase, m, want.proc, want.rule)
				}
				c = statemodel.Apply[State](a, c, []statemodel.Move{m})
			}
		}
		// After one rotation, back at P0 with x incremented.
		if !a.Legitimate(c) || c[0].X != 1 || !c[0].TRA {
			t.Fatalf("n=%d: after a rotation got %v", n, c)
		}
	}
}

// TestLemma6GeneralProperties checks the three "general properties of
// rules" stated in the proof of Lemma 6 over arbitrary random executions:
// (1) executing Rule 2/4 at P_i yields ⟨0.0⟩ there and makes G_{i+1} true,
// (2) no rule yields ⟨1.1⟩, (3) only Rule 1 yields ⟨1.0⟩ and only under G.
func TestLemma6GeneralProperties(t *testing.T) {
	a := New(6, 8)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		c := RandomConfig(a, rng)
		for step := 0; step < 60; step++ {
			moves := statemodel.Enabled[State](a, c)
			if len(moves) == 0 {
				t.Fatal("deadlock")
			}
			m := moves[rng.Intn(len(moves))]
			gBefore := G(c.View(m.Process))
			next := statemodel.Apply[State](a, c, []statemodel.Move{m})
			s := next[m.Process]
			switch m.Rule {
			case RuleSendPrimary, RuleFixG:
				if s.RTS || s.TRA {
					t.Fatalf("rule %d left ⟨%d.%d⟩", m.Rule, bit(s.RTS), bit(s.TRA))
				}
				// "G moves to the successor" holds once the Dijkstra layer
				// has converged to a single token (the Lemma 6 setting) —
				// not from arbitrary garbage, where the copy may cancel an
				// existing boundary instead.
				if len(a.PrimaryHolders(c)) == 1 {
					succ := (m.Process + 1) % a.N()
					if !G(next.View(succ)) {
						t.Fatalf("rule %d at P%d did not raise G at successor", m.Rule, m.Process)
					}
				}
			case RuleReadySecondary:
				if !gBefore {
					t.Fatal("Rule 1 fired without G")
				}
				if !s.RTS || s.TRA {
					t.Fatalf("Rule 1 produced ⟨%d.%d⟩", bit(s.RTS), bit(s.TRA))
				}
			}
			if s.RTS && s.TRA {
				t.Fatalf("rule %d produced ⟨1.1⟩", m.Rule)
			}
			c = next
		}
	}
}
