package check

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

func TestCompileRequiresPositionUniform(t *testing.T) {
	// An algorithm that never declared the marker must be rejected.
	c := New[dijkstra.State](plainSpace{dijkstra.New(3, 4)}, 0)
	if _, err := c.Compile(1); err == nil {
		t.Fatal("Compile accepted an algorithm without PositionUniform")
	}
}

// plainSpace strips all optional interfaces off a Space.
type plainSpace struct{ inner Space[dijkstra.State] }

func (p plainSpace) Name() string { return p.inner.Name() }
func (p plainSpace) N() int       { return p.inner.N() }
func (p plainSpace) Rules() int   { return p.inner.Rules() }
func (p plainSpace) EnabledRule(v statemodel.View[dijkstra.State]) int {
	return p.inner.EnabledRule(v)
}
func (p plainSpace) Apply(v statemodel.View[dijkstra.State], r int) dijkstra.State {
	return p.inner.Apply(v, r)
}
func (p plainSpace) AllStates() []dijkstra.State { return p.inner.AllStates() }

func TestEngineLegitSetMatchesPredicate(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	e, err := c.Compile(3)
	if err != nil {
		t.Fatal(err)
	}
	lam := e.LegitSet(a.Legitimate)
	if lam.Count() != 36 {
		t.Fatalf("|Λ| = %d, want 36", lam.Count())
	}
	// Bitmap membership must agree with the predicate on every ID, and
	// ForEach must visit exactly the members in order.
	var visited []uint64
	lam.ForEach(func(id uint64) bool {
		visited = append(visited, id)
		return true
	})
	vi := 0
	c.ForAll(func(cfg statemodel.Config[core.State]) bool {
		id := c.Encode(cfg)
		want := a.Legitimate(cfg)
		if lam.Contains(id) != want {
			t.Fatalf("membership mismatch at id %d", id)
		}
		if want {
			if vi >= len(visited) || visited[vi] != id {
				t.Fatalf("ForEach order broken at %d", id)
			}
			vi++
		}
		return true
	})
	if vi != len(visited) {
		t.Fatalf("ForEach visited %d extra ids", len(visited)-vi)
	}
}

func TestEngineTriples(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	e, err := c.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := statemodel.Config[core.State]{{X: 1}, {X: 2, RTS: true}, {X: 3, TRA: true}}
	tr := e.Triples(c.Encode(cfg), nil)
	if len(tr) != 3 {
		t.Fatalf("triples = %d, want 3", len(tr))
	}
	idx := map[core.State]int{}
	for i, s := range a.AllStates() {
		idx[s] = i
	}
	for i := 0; i < 3; i++ {
		v := cfg.View(i)
		want := statemodel.TripleIndex(len(idx), idx[v.Pred], idx[v.Self], idx[v.Succ])
		if int(tr[i]) != want {
			t.Fatalf("triple[%d] = %d, want %d", i, tr[i], want)
		}
	}
}

func TestEngineDetectsCycle(t *testing.T) {
	// With an empty legitimate set and all rules permitted, token
	// circulation never terminates: the engine must report a cycle, just
	// like the legacy path.
	a := dijkstra.New(3, 4)
	c := New[dijkstra.State](a, 0)
	e, err := c.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := e.CheckConvergence(newIDSet(e.NumConfigs()))
	if rep.Converges {
		t.Fatal("engine missed the infinite circulation cycle")
	}
	if rep.Cycle == nil {
		t.Fatal("no cycle witness returned")
	}
	legacy := c.CheckConvergence(func(statemodel.Config[dijkstra.State]) bool { return false })
	if legacy.Converges {
		t.Fatal("legacy missed the cycle too?")
	}
}

// TestEngineCycleWitness pins the cycle witness: with Λ empty, token
// circulation never stops, and whatever the worker count the engine must
// report the same configuration, one that reaches itself again. On
// SSRmin the smallest unfinished ID only leads to a cycle, so a witness
// picked that way fails here.
func TestEngineCycleWitness(t *testing.T) {
	t.Run("sstoken", func(t *testing.T) { cycleWitness[dijkstra.State](t, dijkstra.New(3, 4)) })
	t.Run("ssrmin", func(t *testing.T) { cycleWitness[core.State](t, core.New(3, 4)) })
}

func cycleWitness[S comparable](t *testing.T, a Space[S]) {
	c := New[S](a, 0)
	var first statemodel.Config[S]
	for _, w := range []int{1, 2, 7} {
		e, err := c.Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		rep, _ := e.CheckConvergence(newIDSet(e.NumConfigs()))
		if rep.Converges || rep.Cycle == nil {
			t.Fatalf("workers=%d: no cycle witness", w)
		}
		if first == nil {
			first = rep.Cycle
		} else if !rep.Cycle.Equal(first) {
			t.Fatalf("workers=%d: cycle witness %v, workers=1 gave %v", w, rep.Cycle, first)
		}
	}
	// Breadth-first search from the witness over all successors (every
	// configuration is illegitimate here) must return to it.
	start := c.Encode(first)
	seen := map[uint64]bool{}
	queue := []uint64{start}
	for len(queue) > 0 {
		cfg := c.Decode(queue[0])
		queue = queue[1:]
		back := false
		c.Successors(cfg, nil, func(next statemodel.Config[S]) bool {
			id := c.Encode(next)
			if id == start {
				back = true
				return false
			}
			if !seen[id] {
				seen[id] = true
				queue = append(queue, id)
			}
			return true
		})
		if back {
			return
		}
	}
	t.Fatalf("cycle witness %v does not lie on a cycle", first)
}

func TestEngineWorkerCounts(t *testing.T) {
	// The analysis must be worker-count invariant: workers that expand the
	// same configuration concurrently must neither change a distance nor
	// count its edges twice.
	a := core.New(4, 5)
	c := New[core.State](a, 0)
	type result struct {
		dist  map[uint64]int
		rep   ConvergenceReport[core.State]
		edges uint64
	}
	var results []result
	for _, w := range []int{1, 2, 7} {
		e, err := c.Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		lam := e.LegitSet(a.Legitimate)
		rep, stats := e.CheckConvergence(lam)
		if !rep.Converges {
			t.Fatalf("workers=%d: no convergence", w)
		}
		dist, _ := e.Distances(lam)
		results = append(results, result{dist, rep, stats.Edges})
	}
	want := results[0]
	if want.rep.WorstSteps != 43 || want.edges != 1_922_580 {
		t.Fatalf("workers=1: worst %d, edges %d; want 43, 1922580", want.rep.WorstSteps, want.edges)
	}
	for i, got := range results[1:] {
		if got.edges != want.edges || got.rep.Illegitimate != want.rep.Illegitimate ||
			got.rep.WorstSteps != want.rep.WorstSteps || !got.rep.WorstStart.Equal(want.rep.WorstStart) {
			t.Fatalf("run %d differs from workers=1: edges %d vs %d, |Γ∖Λ| %d vs %d, worst %d@%v vs %d@%v",
				i+1, got.edges, want.edges, got.rep.Illegitimate, want.rep.Illegitimate,
				got.rep.WorstSteps, got.rep.WorstStart, want.rep.WorstSteps, want.rep.WorstStart)
		}
		if !reflect.DeepEqual(got.dist, want.dist) {
			t.Fatalf("run %d: Distances map differs from workers=1", i+1)
		}
	}
}

// TestSSRminN5K6Engine is the headline instance: the exhaustive n=5, K=6
// run (24⁵ ≈ 7.96M configurations) pinned to its exact values. It takes a
// few seconds on two cores, so it only runs when SSRMIN_EXHAUSTIVE_N5 is
// set (make modelcheck-n5 / CI soak).
func TestSSRminN5K6Engine(t *testing.T) {
	if os.Getenv("SSRMIN_EXHAUSTIVE_N5") == "" {
		t.Skip("set SSRMIN_EXHAUSTIVE_N5=1 to run the 7.96M-configuration exhaustive check")
	}
	a := core.New(5, 6)
	c := New[core.State](a, 0)
	e, err := c.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	lam := e.LegitSet(a.Legitimate)
	if lam.Count() != 90 {
		t.Fatalf("|Λ| = %d, want 90", lam.Count())
	}
	if cex, ok := e.CheckNoDeadlock(); !ok {
		t.Fatalf("deadlock at %v", cex)
	}
	rep := e.CheckClosure(lam)
	if rep.Counterexample != nil || rep.MaxEnabled != 1 {
		t.Fatalf("closure: %+v", rep)
	}
	quiet, _, ok := e.LongestRestricted(map[int]bool{
		core.RuleReadySecondary: true, core.RuleRecvSecondary: true, core.RuleFixNoG: true,
	})
	if !ok || quiet != 9 {
		t.Fatalf("quiet run: %d (finite %v), want 9", quiet, ok)
	}
	conv, stats := e.CheckConvergence(lam)
	if !conv.Converges {
		t.Fatalf("cycle at %v", conv.Cycle)
	}
	if conv.Illegitimate != 7_962_534 || conv.WorstSteps != 77 || stats.Edges != 196_273_032 {
		t.Fatalf("|Γ∖Λ| = %d, worst = %d, edges = %d; want 7962534, 77, 196273032",
			conv.Illegitimate, conv.WorstSteps, stats.Edges)
	}
	if got := fmt.Sprint(conv.WorstStart); got != "[0.0.0 3.0.0 2.0.0 1.0.0 0.0.0]" {
		t.Fatalf("worst start %s, want [0.0.0 3.0.0 2.0.0 1.0.0 0.0.0]", got)
	}
	if conv.WorstSteps > a.ConvergenceStepBound() {
		t.Fatalf("worst %d exceeds budget %d", conv.WorstSteps, a.ConvergenceStepBound())
	}
	t.Logf("n=5 K=6: worst=%d steps, |Γ∖Λ|=%d, edges=%d, peak DFS depth=%d, bookkeeping=%.1f MiB",
		conv.WorstSteps, conv.Illegitimate, stats.Edges, stats.Layers,
		float64(stats.BookkeepingBytes)/(1<<20))
}
