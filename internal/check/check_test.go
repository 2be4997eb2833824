package check

import (
	"strings"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	if got := c.NumConfigs(); got != 16*16*16 {
		t.Fatalf("NumConfigs = %d, want 4096", got)
	}
	count := 0
	seen := map[uint64]bool{}
	c.ForAll(func(cfg statemodel.Config[core.State]) bool {
		id := c.Encode(cfg)
		if seen[id] {
			t.Fatalf("duplicate id %d for %v", id, cfg)
		}
		seen[id] = true
		back := c.Decode(id)
		if !back.Equal(cfg) {
			t.Fatalf("Decode(Encode(%v)) = %v", cfg, back)
		}
		count++
		return true
	})
	if count != 4096 {
		t.Fatalf("ForAll visited %d configs", count)
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

func TestSuccessorsEnumeratesSubsets(t *testing.T) {
	a := dijkstra.New(3, 4)
	c := New[dijkstra.State](a, 0)
	// (0,1,2): P1 and P2 enabled -> 3 nonempty subsets.
	cfg := statemodel.Config[dijkstra.State]{{X: 0}, {X: 1}, {X: 2}}
	var succs []statemodel.Config[dijkstra.State]
	e := c.Successors(cfg, nil, func(next statemodel.Config[dijkstra.State]) bool {
		succs = append(succs, next.Clone())
		return true
	})
	if e != 2 {
		t.Fatalf("enabled = %d, want 2", e)
	}
	if len(succs) != 3 {
		t.Fatalf("successors = %d, want 3 (nonempty subsets of 2)", len(succs))
	}
	// Composite atomicity: when both move, P2 copies the OLD x1 = 1.
	both := statemodel.Config[dijkstra.State]{{X: 0}, {X: 0}, {X: 1}}
	found := false
	for _, s := range succs {
		if s.Equal(both) {
			found = true
		}
	}
	if !found {
		t.Fatalf("simultaneous-move successor %v missing from %v", both, succs)
	}
}

func TestSuccessorsRuleRestriction(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	// γ2 form: P0 = 0.1.0, P1 = 0.0.1 -> P0 enabled by Rule 2 only.
	cfg := statemodel.Config[core.State]{
		{X: 0, RTS: true}, {X: 0, TRA: true}, {X: 0},
	}
	e := c.Successors(cfg, map[int]bool{1: true, 3: true, 5: true}, func(statemodel.Config[core.State]) bool {
		t.Fatal("no successor expected under {1,3,5} restriction")
		return false
	})
	if e != 0 {
		t.Fatalf("restricted enabled = %d, want 0", e)
	}
}

// TestSSTokenFullVerification model-checks Dijkstra's ring end to end for
// n=3, K=4: closure of the strict legitimate set, no deadlock, convergence
// under the unfair distributed daemon, and the exact worst-case
// stabilization time within the 3n(n−1)/2 bound.
func TestSSTokenFullVerification(t *testing.T) {
	a := dijkstra.New(3, 4)
	c := New[dijkstra.State](a, 0)

	if cex, ok := c.CheckNoDeadlock(); !ok {
		t.Fatalf("deadlock at %v", cex)
	}

	rep := c.CheckClosure(a.Legitimate)
	if rep.Counterexample != nil {
		t.Fatalf("closure violated: %v -> %v", rep.Counterexample, rep.Successor)
	}
	if rep.Legitimate != uint64(a.N()*a.K()) {
		t.Errorf("|Λ| = %d, want %d", rep.Legitimate, a.N()*a.K())
	}
	if rep.MaxEnabled != 1 {
		t.Errorf("max enabled in Λ = %d, want 1", rep.MaxEnabled)
	}

	conv := c.CheckConvergence(a.Legitimate)
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
	c := New[core.State](a, 0)

	if cex, ok := c.CheckNoDeadlock(); !ok {
		t.Fatalf("Lemma 4 violated: deadlock at %v", cex)
	}

	rep := c.CheckClosure(a.Legitimate)
	if rep.Counterexample != nil {
		t.Fatalf("Lemma 1 violated: %v -> %v", rep.Counterexample, rep.Successor)
	}
	if want := uint64(3 * a.N() * a.K()); rep.Legitimate != want {
		t.Errorf("|Λ| = %d, want %d", rep.Legitimate, want)
	}
	if rep.MaxEnabled != 1 {
		t.Errorf("max enabled in Λ = %d, want 1 (Lemma 1)", rep.MaxEnabled)
	}

	if cex, ok := c.CheckInvariantOnLegitimate(a.Legitimate, func(cfg statemodel.Config[core.State]) bool {
		p := len(a.PrimaryHolders(cfg))
		s := len(a.SecondaryHolders(cfg))
		priv := len(a.TokenHolders(cfg))
		return p == 1 && s == 1 && priv >= 1 && priv <= 2
	}); !ok {
		t.Fatalf("Theorem 1 / Lemma 2 violated at %v", cex)
	}

	conv := c.CheckConvergence(a.Legitimate)
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
	c := New[core.State](a, 0)
	steps, start, ok := c.LongestRestricted(map[int]bool{
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
	c := New[core.State](a, 0)

	if cex, ok := c.CheckNoDeadlock(); !ok {
		t.Fatalf("deadlock at %v", cex)
	}
	rep := c.CheckClosure(a.Legitimate)
	if rep.Counterexample != nil {
		t.Fatalf("closure violated: %v -> %v", rep.Counterexample, rep.Successor)
	}
	if rep.MaxEnabled != 1 {
		t.Errorf("max enabled in Λ = %d, want 1", rep.MaxEnabled)
	}
	conv := c.CheckConvergence(a.Legitimate)
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
	c := New[core.State](a, 0)
	path := c.WorstPath(a.Legitimate)
	if len(path) != 17 { // worst case 16 steps -> 17 configurations
		t.Fatalf("path length %d, want 17", len(path))
	}
	// Every transition must be a legal daemon step, and only the last
	// configuration is legitimate.
	for i := 0; i < len(path)-1; i++ {
		if a.Legitimate(path[i]) {
			t.Fatalf("intermediate config %d legitimate: %v", i, path[i])
		}
		found := false
		c.Successors(path[i], nil, func(next statemodel.Config[core.State]) bool {
			if next.Equal(path[i+1]) {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("step %d is not a legal transition", i)
		}
	}
	if !a.Legitimate(path[len(path)-1]) {
		t.Fatal("path does not end legitimate")
	}
}

func TestExportDOT(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	var b strings.Builder
	nodes, edges, err := c.ExportDOT(&b, "lambda", a.Legitimate)
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

func TestCountLegitimate(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	if got := c.CountLegitimate(a.Legitimate); got != 36 {
		t.Fatalf("CountLegitimate = %d, want 36", got)
	}
}

func TestCheckInvariantOnLegitimateCounterexample(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	cex, ok := c.CheckInvariantOnLegitimate(a.Legitimate, func(cfg statemodel.Config[core.State]) bool {
		return cfg[0].X != 1 // false for some legitimate configs
	})
	if ok || cex == nil {
		t.Fatal("counterexample not found")
	}
	if !a.Legitimate(cex) || cex[0].X != 1 {
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
// Λ — the legitimate set is one strongly connected cycle.
func TestLemma1PartBReachability(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	got := c.ReachableFrom(a.InitialLegitimate(), a.Legitimate)
	if want := uint64(3 * a.N() * a.K()); got != want {
		t.Fatalf("reachable legitimate configs = %d, want |Λ| = %d", got, want)
	}
	// Starting outside the restriction yields zero.
	bad := a.InitialLegitimate()
	bad[1].RTS = true
	if got := c.ReachableFrom(bad, a.Legitimate); got != 0 {
		t.Fatalf("ReachableFrom(illegitimate) = %d", got)
	}
}
