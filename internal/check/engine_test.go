package check

import (
	"fmt"
	"os"
	"reflect"
	"slices"
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

// wrongShift is SSToken whose bottom command writes 0 instead of
// x_{n-1}+1: it reads the counter's value, so the digit shift it still
// declares through the embedded ShiftOrbit is not a symmetry.
type wrongShift struct{ *dijkstra.Algorithm }

func (w wrongShift) Apply(v statemodel.View[dijkstra.State], r int) dijkstra.State {
	if v.Bottom() {
		return dijkstra.State{}
	}
	return w.Algorithm.Apply(v, r)
}

// badOrbit declares an orbit that does not divide the state count.
type badOrbit struct{ *dijkstra.Algorithm }

func (badOrbit) ShiftOrbit() int { return 3 }

func TestCompileRejectsWrongShift(t *testing.T) {
	for name, a := range map[string]Space[dijkstra.State]{
		"rules": wrongShift{dijkstra.New(3, 4)},
		"orbit": badOrbit{dijkstra.New(3, 4)},
	} {
		if _, err := New[dijkstra.State](a, 0).Compile(1); err == nil {
			t.Errorf("%s: Compile accepted a digit shift the algorithm breaks", name)
		}
	}
	// Without the declaration the same rules compile, with orbit 1.
	e, err := New[dijkstra.State](plainUniform{plainSpace{wrongShift{dijkstra.New(3, 4)}}}, 0).Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Orbit() != 1 || e.Representatives() != e.NumConfigs() {
		t.Fatalf("orbit %d, %d representatives of %d", e.Orbit(), e.Representatives(), e.NumConfigs())
	}
}

// plainUniform keeps only PositionUniform of a Space's optional interfaces.
type plainUniform struct{ plainSpace }

func (plainUniform) UniformViews() {}

// TestLegitSetCountsOrbits: Λ's bitmap holds one bit per orbit, so its
// representative count times K is |Λ| counted over all of Γ.
func TestLegitSetCountsOrbits(t *testing.T) {
	for _, nk := range [][2]int{{3, 4}, {3, 5}, {4, 5}} {
		n, k := nk[0], nk[1]
		s := core.New(n, k)
		t.Run(s.Name(), func(t *testing.T) { countOrbits[core.State](t, s, s.Legitimate, k) })
		d := dijkstra.New(n, k)
		t.Run(d.Name(), func(t *testing.T) { countOrbits[dijkstra.State](t, d, d.Legitimate, k) })
	}
}

func countOrbits[S comparable](t *testing.T, a Space[S], legit func(statemodel.Config[S]) bool, k int) {
	e, lam := compile(t, a, legit)
	if e.Orbit() != k || e.Representatives()*uint64(k) != e.NumConfigs() {
		t.Fatalf("orbit %d, %d representatives of %d; want orbit %d", e.Orbit(), e.Representatives(), e.NumConfigs(), k)
	}
	var want uint64
	for id := uint64(0); id < e.NumConfigs(); id++ {
		if legit(e.c.Decode(id)) {
			want++
		}
	}
	if got := lam.count * uint64(k); got != want || lam.Count() != want {
		t.Fatalf("%d representatives × %d = %d, Count %d; serial |Λ| = %d", lam.count, k, got, lam.Count(), want)
	}
}

// TestLegitSetRejectsAsymmetricPredicate: a predicate that holds on a
// representative but not on its shifts cannot stand for its orbits.
func TestLegitSetRejectsAsymmetricPredicate(t *testing.T) {
	a := core.New(3, 4)
	e, err := New[core.State](a, 0).Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LegitSet accepted a predicate that is not shift invariant")
		}
	}()
	e.LegitSet(func(cfg statemodel.Config[core.State]) bool { return cfg[0].X == 0 && a.Legitimate(cfg) })
}

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
	for id := uint64(0); id < c.NumConfigs(); id++ {
		want := a.Legitimate(c.Decode(id))
		if lam.Contains(id) != want {
			t.Fatalf("membership mismatch at id %d", id)
		}
		if want {
			if vi >= len(visited) || visited[vi] != id {
				t.Fatalf("ForEach order broken at %d", id)
			}
			vi++
		}
	}
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
	// circulation never terminates: the engine must report a cycle.
	// TestEngineCycleWitness checks that the witness lies on one.
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
		} else if !slices.Equal(rep.Cycle, first) {
			t.Fatalf("workers=%d: cycle witness %v, workers=1 gave %v", w, rep.Cycle, first)
		}
	}
	// Breadth-first search from the witness over the oracle's successors
	// (every configuration is illegitimate here) must return to it.
	start := c.Encode(first)
	seen := map[uint64]bool{}
	queue := []uint64{start}
	for len(queue) > 0 {
		succs, _ := oracleSuccessors(c, queue[0], nil)
		queue = queue[1:]
		if succs[start] {
			return
		}
		for id := range succs {
			if !seen[id] {
				seen[id] = true
				queue = append(queue, id)
			}
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
			got.rep.WorstSteps != want.rep.WorstSteps || !slices.Equal(got.rep.WorstStart, want.rep.WorstStart) {
			t.Fatalf("run %d differs from workers=1: edges %d vs %d, |Γ∖Λ| %d vs %d, worst %d@%v vs %d@%v",
				i+1, got.edges, want.edges, got.rep.Illegitimate, want.rep.Illegitimate,
				got.rep.WorstSteps, got.rep.WorstStart, want.rep.WorstSteps, want.rep.WorstStart)
		}
		if !reflect.DeepEqual(got.dist, want.dist) {
			t.Fatalf("run %d: Distances map differs from workers=1", i+1)
		}
	}
}

// exhaustive pins one large SSRmin instance's exact values.
type exhaustive struct {
	n, k        int
	maxConfigs  uint64
	legit       uint64
	illegit     uint64
	quiet       int
	worst       int
	edges       uint64
	worstStart  string
	environment string // the variable that enables the run
}

// TestSSRminN5K6Engine is the headline instance: the exhaustive n=5, K=6
// run (24⁵ ≈ 7.96M configurations, 1.33M representatives) pinned to its
// exact values. It takes about half a second on two cores, so it only runs
// when SSRMIN_EXHAUSTIVE_N5 is set (make modelcheck-n5 / CI soak).
func TestSSRminN5K6Engine(t *testing.T) {
	exhaustiveSSRmin(t, exhaustive{
		n: 5, k: 6, legit: 90, illegit: 7_962_534, quiet: 9, worst: 77, edges: 196_273_032,
		worstStart: "[0.0.0 3.0.0 2.0.0 1.0.0 0.0.0]", environment: "SSRMIN_EXHAUSTIVE_N5",
	})
}

// TestSSRminN6K7Engine is E8's fourth exact point: n=6, K=7 (28⁶ ≈ 482M
// configurations, 68.8M representatives, a ~275 MB distance memo). It
// takes about 40 s on two cores, so it only runs when
// SSRMIN_EXHAUSTIVE_N6 is set (make modelcheck-n6).
func TestSSRminN6K7Engine(t *testing.T) {
	exhaustiveSSRmin(t, exhaustive{
		n: 6, k: 7, maxConfigs: 500_000_000, legit: 126, illegit: 481_890_178, quiet: 11, worst: 120,
		edges: 23_848_724_732, worstStart: "[0.0.0 4.0.0 3.0.0 2.0.0 1.0.0 0.0.0]",
		environment: "SSRMIN_EXHAUSTIVE_N6",
	})
}

func exhaustiveSSRmin(t *testing.T, want exhaustive) {
	if os.Getenv(want.environment) == "" {
		t.Skipf("set %s=1 to run the exhaustive n=%d, K=%d check", want.environment, want.n, want.k)
	}
	a := core.New(want.n, want.k)
	c := New[core.State](a, want.maxConfigs)
	e, err := c.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	lam := e.LegitSet(a.Legitimate)
	if lam.Count() != want.legit {
		t.Fatalf("|Λ| = %d, want %d", lam.Count(), want.legit)
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
	if !ok || quiet != want.quiet || quiet > 3*want.n {
		t.Fatalf("quiet run: %d (finite %v), want %d ≤ 3n", quiet, ok, want.quiet)
	}
	conv, stats := e.CheckConvergence(lam)
	if !conv.Converges {
		t.Fatalf("cycle at %v", conv.Cycle)
	}
	if conv.Illegitimate != want.illegit || conv.WorstSteps != want.worst || stats.Edges != want.edges {
		t.Fatalf("|Γ∖Λ| = %d, worst = %d, edges = %d; want %d, %d, %d",
			conv.Illegitimate, conv.WorstSteps, stats.Edges, want.illegit, want.worst, want.edges)
	}
	if got := fmt.Sprint(conv.WorstStart); got != want.worstStart {
		t.Fatalf("worst start %s, want %s", got, want.worstStart)
	}
	if conv.WorstSteps > a.ConvergenceStepBound() {
		t.Fatalf("worst %d exceeds budget %d", conv.WorstSteps, a.ConvergenceStepBound())
	}
	t.Logf("n=%d K=%d: worst=%d steps, |Γ∖Λ|=%d, edges=%d, peak DFS depth=%d, bookkeeping=%.1f MiB",
		want.n, want.k, conv.WorstSteps, conv.Illegitimate, stats.Edges, stats.Layers,
		float64(stats.BookkeepingBytes)/(1<<20))
}
