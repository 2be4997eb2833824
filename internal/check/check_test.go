package check

import (
	"slices"
	"strings"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// compile builds alg's engine on two workers and its Λ.
func compile[S comparable](t *testing.T, alg Space[S], legit func(statemodel.Config[S]) bool) (*Engine[S], *IDSet) {
	t.Helper()
	e, err := New[S](alg, 0).Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	return e, e.LegitSet(legit)
}

// movesOf returns the moves of configuration id that ruleMask permits.
func movesOf[S comparable](e *Engine[S], id uint64, ruleMask uint32) []mover {
	digits := make([]int, e.n)
	e.digitsOf(id, digits)
	return e.enabledMoves(digits, ruleMask, nil)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	if got := c.NumConfigs(); got != 16*16*16 {
		t.Fatalf("NumConfigs = %d, want 4096", got)
	}
	// Encode∘Decode is the identity on every ID, so Decode is injective.
	for id := uint64(0); id < c.NumConfigs(); id++ {
		if back := c.Encode(c.Decode(id)); back != id {
			t.Fatalf("Encode(Decode(%d)) = %d (%v)", id, back, c.Decode(id))
		}
	}
}

func TestSizeLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an oversized space")
		}
	}()
	New[core.State](core.New(8, 9), 1000)
}

// TestSuccessorsEnumeratesSubsets checks the distributed daemon's
// successors under composite atomicity: with two enabled processes there
// are three nonempty subsets, and when both move, each reads the old
// configuration.
func TestSuccessorsEnumeratesSubsets(t *testing.T) {
	a := dijkstra.New(3, 4)
	e, _ := compile[dijkstra.State](t, a, a.Legitimate)
	// (0,1,2): P1 and P2 enabled -> 3 nonempty subsets.
	id := e.c.Encode(statemodel.Config[dijkstra.State]{{X: 0}, {X: 1}, {X: 2}})
	if m := movesOf(e, id, e.allRules); len(m) != 2 {
		t.Fatalf("enabled = %d, want 2", len(m))
	}
	succs := e.successors(id, nil)
	if len(succs) != 3 {
		t.Fatalf("successors = %d, want 3 (nonempty subsets of 2)", len(succs))
	}
	// Composite atomicity: when both move, P2 copies the OLD x1 = 1.
	both := statemodel.Config[dijkstra.State]{{X: 0}, {X: 0}, {X: 1}}
	if !slices.Contains(succs, e.c.Encode(both)) {
		t.Fatalf("simultaneous-move successor %v missing from %v", both, succs)
	}
	if want, _ := oracleSuccessors(e.c, id, nil); !sameSet(succs, want) {
		t.Fatalf("successors %v, oracle %v", succs, want)
	}
}

func TestSuccessorsRuleRestriction(t *testing.T) {
	a := core.New(3, 4)
	e, _ := compile[core.State](t, a, a.Legitimate)
	// γ2 form: P0 = 0.1.0, P1 = 0.0.1 -> P0 enabled by Rule 2 only.
	cfg := statemodel.Config[core.State]{
		{X: 0, RTS: true}, {X: 0, TRA: true}, {X: 0},
	}
	id := e.c.Encode(cfg)
	if m := movesOf(e, id, e.allRules); len(m) != 1 || m[0].rule != 2 {
		t.Fatalf("unrestricted moves %+v, want one Rule 2 move", m)
	}
	if m := movesOf(e, id, 1<<1|1<<3|1<<5); len(m) != 0 {
		t.Fatalf("restricted enabled = %d, want 0", len(m))
	}
}

// TestSSTokenFullVerification model-checks Dijkstra's ring end to end for
// n=3, K=4: closure of the strict legitimate set, no deadlock, convergence
// under the unfair distributed daemon, and the exact worst-case
// stabilization time within the 3n(n−1)/2 bound.
func TestSSTokenFullVerification(t *testing.T) {
	a := dijkstra.New(3, 4)
	e, lam := compile[dijkstra.State](t, a, a.Legitimate)

	if cex, ok := e.CheckNoDeadlock(); !ok {
		t.Fatalf("deadlock at %v", cex)
	}

	rep := e.CheckClosure(lam)
	if rep.Counterexample != nil {
		t.Fatalf("closure violated: %v -> %v", rep.Counterexample, rep.Successor)
	}
	if want := uint64(3 * 4); rep.Legitimate != want { // n·K
		t.Errorf("|Λ| = %d, want %d", rep.Legitimate, want)
	}
	if rep.MaxEnabled != 1 {
		t.Errorf("max enabled in Λ = %d, want 1", rep.MaxEnabled)
	}

	conv, _ := e.CheckConvergence(lam)
	if !conv.Converges {
		t.Fatalf("divergent cycle at %v", conv.Cycle)
	}
	if bound := a.ConvergenceBound() + 2*a.N(); conv.WorstSteps > bound {
		t.Errorf("worst-case steps %d exceeds bound %d", conv.WorstSteps, bound)
	}
	if conv.WorstSteps == 0 {
		t.Error("worst-case steps = 0; expected some illegitimate start to need work")
	}
	t.Logf("SSToken n=3 K=4: |Γ∖Λ| = %d, worst-case stabilization = %d steps (from %v)",
		conv.Illegitimate, conv.WorstSteps, conv.WorstStart)
}

// TestSSRminFullVerification is the central mechanical verification of the
// paper's main results on the n=3, K=4 instance (4096 configurations):
// Lemma 1 (closure, exactly one enabled process in Λ), Lemma 4 (no
// deadlock), Lemma 6/Theorem 2 (convergence under the unfair distributed
// daemon), Theorem 1 (1 ≤ privileged ≤ 2 in Λ), and Lemma 2 (exactly one
// primary and one secondary token in Λ).
func TestSSRminFullVerification(t *testing.T) {
	a := core.New(3, 4)
	e, lam := compile[core.State](t, a, a.Legitimate)

	if cex, ok := e.CheckNoDeadlock(); !ok {
		t.Fatalf("Lemma 4 violated: deadlock at %v", cex)
	}

	rep := e.CheckClosure(lam)
	if rep.Counterexample != nil {
		t.Fatalf("Lemma 1 violated: %v -> %v", rep.Counterexample, rep.Successor)
	}
	if want := uint64(3 * a.N() * a.K()); rep.Legitimate != want {
		t.Errorf("|Λ| = %d, want %d", rep.Legitimate, want)
	}
	if rep.MaxEnabled != 1 {
		t.Errorf("max enabled in Λ = %d, want 1 (Lemma 1)", rep.MaxEnabled)
	}

	lam.ForEach(func(id uint64) bool {
		cfg := e.c.Decode(id)
		p := len(a.PrimaryHolders(cfg))
		s := len(a.SecondaryHolders(cfg))
		priv := len(a.TokenHolders(cfg))
		if p != 1 || s != 1 || priv < 1 || priv > 2 {
			t.Fatalf("Theorem 1 / Lemma 2 violated at %v", cfg)
		}
		return true
	})

	conv, _ := e.CheckConvergence(lam)
	if !conv.Converges {
		t.Fatalf("Lemma 6 violated: cycle at %v", conv.Cycle)
	}
	if conv.WorstSteps > a.ConvergenceStepBound() {
		t.Errorf("worst-case steps %d exceeds O(n²) budget %d", conv.WorstSteps, a.ConvergenceStepBound())
	}
	t.Logf("SSRmin n=3 K=4: |Γ∖Λ| = %d, exact worst-case stabilization = %d steps (from %v)",
		conv.Illegitimate, conv.WorstSteps, conv.WorstStart)
}

// TestSSRminLemma5Exact verifies Lemma 5 exactly on the n=3, K=4
// instance: the longest execution using only Rules 1, 3 and 5 is at most
// 3n = 9 steps, and such executions cannot be infinite.
func TestSSRminLemma5Exact(t *testing.T) {
	a := core.New(3, 4)
	e, _ := compile[core.State](t, a, a.Legitimate)
	steps, start, ok := e.LongestRestricted(map[int]bool{
		core.RuleReadySecondary: true,
		core.RuleRecvSecondary:  true,
		core.RuleFixNoG:         true,
	})
	if !ok {
		t.Fatalf("Lemma 5 violated: infinite {1,3,5}-execution from %v", start)
	}
	if steps > 3*a.N() {
		t.Errorf("longest {1,3,5}-execution = %d steps, exceeds 3n = %d", steps, 3*a.N())
	}
	if steps == 0 {
		t.Error("longest {1,3,5}-execution = 0, expected positive")
	}
	t.Logf("longest quiet execution: %d steps (bound 3n = %d), from %v", steps, 3*a.N(), start)
}

// TestSSRminN4 repeats the headline verification on n=4, K=5 (160 000
// configurations) to gain confidence beyond the minimal instance. It is
// skipped in -short mode.
func TestSSRminN4(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4 exhaustive check skipped in short mode")
	}
	a := core.New(4, 5)
	e, lam := compile[core.State](t, a, a.Legitimate)

	if cex, ok := e.CheckNoDeadlock(); !ok {
		t.Fatalf("deadlock at %v", cex)
	}
	rep := e.CheckClosure(lam)
	if rep.Counterexample != nil {
		t.Fatalf("closure violated: %v -> %v", rep.Counterexample, rep.Successor)
	}
	if rep.MaxEnabled != 1 {
		t.Errorf("max enabled in Λ = %d, want 1", rep.MaxEnabled)
	}
	conv, _ := e.CheckConvergence(lam)
	if !conv.Converges {
		t.Fatalf("cycle at %v", conv.Cycle)
	}
	if conv.WorstSteps > a.ConvergenceStepBound() {
		t.Errorf("worst-case %d exceeds budget %d", conv.WorstSteps, a.ConvergenceStepBound())
	}
	t.Logf("SSRmin n=4 K=5: worst-case stabilization = %d steps", conv.WorstSteps)
}

func TestWorstPath(t *testing.T) {
	a := core.New(3, 4)
	e, lam := compile[core.State](t, a, a.Legitimate)
	path := e.WorstPath(lam)
	if len(path) != 17 { // worst case 16 steps -> 17 configurations
		t.Fatalf("path length %d, want 17", len(path))
	}
	// Every transition must be a legal daemon step, and only the last
	// configuration is legitimate.
	for i := 0; i < len(path)-1; i++ {
		if a.Legitimate(path[i]) {
			t.Fatalf("intermediate config %d legitimate: %v", i, path[i])
		}
		if succs, _ := oracleSuccessors(e.c, e.c.Encode(path[i]), nil); !succs[e.c.Encode(path[i+1])] {
			t.Fatalf("step %d is not a legal transition", i)
		}
	}
	if !a.Legitimate(path[len(path)-1]) {
		t.Fatal("path does not end legitimate")
	}
}

func TestExportDOT(t *testing.T) {
	a := core.New(3, 4)
	e, lam := compile[core.State](t, a, a.Legitimate)
	var b strings.Builder
	nodes, edges, err := e.ExportDOT(&b, "lambda", lam)
	if err != nil {
		t.Fatal(err)
	}
	// Λ has 3nK = 36 configurations forming one cycle: 36 nodes, 36 edges.
	if nodes != 36 || edges != 36 {
		t.Fatalf("nodes=%d edges=%d, want 36/36 (Λ is a single cycle)", nodes, edges)
	}
	out := b.String()
	if !strings.HasPrefix(out, `digraph "lambda"`) || !strings.Contains(out, "->") {
		t.Errorf("DOT malformed:\n%.200s", out)
	}
}

// TestCountLegitimate checks |Λ| against Lemma 1's count: 3nK
// configurations for SSRmin and nK for SSToken.
func TestCountLegitimate(t *testing.T) {
	for _, nk := range [][2]int{{3, 4}, {3, 5}, {4, 5}} {
		n, k := uint64(nk[0]), uint64(nk[1])
		s := core.New(nk[0], nk[1])
		if _, lam := compile[core.State](t, s, s.Legitimate); lam.Count() != 3*n*k {
			t.Errorf("%s: |Λ| = %d, want 3nK = %d", s.Name(), lam.Count(), 3*n*k)
		}
		d := dijkstra.New(nk[0], nk[1])
		if _, lam := compile[dijkstra.State](t, d, d.Legitimate); lam.Count() != n*k {
			t.Errorf("%s: |Λ| = %d, want nK = %d", d.Name(), lam.Count(), n*k)
		}
	}
}

// TestCheckInvariantOnLegitimateCounterexample scans Λ for a violation of
// a per-configuration invariant (P0's counter is never 1), which some
// legitimate configurations break.
func TestCheckInvariantOnLegitimateCounterexample(t *testing.T) {
	a := core.New(3, 4)
	e, lam := compile[core.State](t, a, a.Legitimate)
	var cex statemodel.Config[core.State]
	lam.ForEach(func(id uint64) bool {
		if cfg := e.c.Decode(id); cfg[0].X == 1 {
			cex = cfg
		}
		return cex == nil
	})
	if cex == nil {
		t.Fatal("counterexample not found")
	}
	if !a.Legitimate(cex) {
		t.Fatalf("bad counterexample %v", cex)
	}
}

func TestEncodePanicsOnForeignState(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	defer func() {
		if recover() == nil {
			t.Error("Encode accepted out-of-space state")
		}
	}()
	c.Encode(statemodel.Config[core.State]{{X: 99}, {}, {}})
}

// TestLemma1PartBReachability verifies part (b) of the Lemma 1 proof:
// every legitimate configuration is reachable from γ0 without ever leaving
// Λ — the legitimate set is one cycle. Each member of Λ has exactly one
// enabled move, and following it 3nK times from γ0 visits all of Λ and
// returns to γ0.
func TestLemma1PartBReachability(t *testing.T) {
	a := core.New(3, 4)
	e, lam := compile[core.State](t, a, a.Legitimate)
	start := e.c.Encode(a.InitialLegitimate())
	seen := map[uint64]bool{}
	id := start
	for range 3 * a.N() * a.K() {
		if !lam.Contains(id) {
			t.Fatalf("left Λ at %v", e.c.Decode(id))
		}
		seen[id] = true
		m := movesOf(e, id, e.allRules)
		if len(m) != 1 {
			t.Fatalf("%d moves enabled in %v, want 1", len(m), e.c.Decode(id))
		}
		id = uint64(int64(id) + m[0].delta)
	}
	if uint64(len(seen)) != lam.Count() || id != start {
		t.Fatalf("visited %d of |Λ| = %d, back at γ0: %v", len(seen), lam.Count(), id == start)
	}
}
