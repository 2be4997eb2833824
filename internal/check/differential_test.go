package check

import (
	"maps"
	"slices"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// oracleSuccessors is the brute-force reference for the engine's
// successor generation: the distinct successors of configuration id, built
// straight from statemodel.Enabled and statemodel.Apply over every
// nonempty subset of the enabled moves whose rule is in rules (nil: every
// rule), and the number of those moves.
func oracleSuccessors[S comparable](c *Checker[S], id uint64, rules map[int]bool) (map[uint64]bool, int) {
	cfg := c.Decode(id)
	var moves []statemodel.Move
	for _, m := range statemodel.Enabled[S](c.alg, cfg) {
		if rules == nil || rules[m.Rule] {
			moves = append(moves, m)
		}
	}
	succs := map[uint64]bool{}
	var sel []statemodel.Move
	for mask := 1; mask < 1<<len(moves); mask++ {
		sel = sel[:0]
		for b, m := range moves {
			if mask&(1<<b) != 0 {
				sel = append(sel, m)
			}
		}
		succs[c.Encode(statemodel.Apply[S](c.alg, cfg, sel))] = true
	}
	return succs, len(moves)
}

// sameSet reports whether got lists each of want's keys exactly once.
func sameSet(got []uint64, want map[uint64]bool) bool {
	seen := map[uint64]bool{}
	for _, x := range got {
		if !want[x] || seen[x] {
			return false
		}
		seen[x] = true
	}
	return len(seen) == len(want)
}

// oracleLongest is the brute-force reference for the convergence pass: the
// longest number of oracleSuccessors steps from id to a configuration that
// is in stop or has no permitted move, by a memoized recursive search
// (dist holds -1 while a configuration is on the search stack). ok is
// false if id reaches a cycle.
func oracleLongest[S comparable](c *Checker[S], id uint64, rules map[int]bool, stop func(uint64) bool, dist map[uint64]int) (int, bool) {
	if d, seen := dist[id]; seen {
		return d, d >= 0
	}
	if stop(id) {
		dist[id] = 0
		return 0, true
	}
	dist[id] = -1
	succs, _ := oracleSuccessors(c, id, rules)
	d := 0
	for nid := range succs {
		nd, ok := oracleLongest(c, nid, rules, stop, dist)
		if !ok {
			return 0, false
		}
		d = max(d, nd+1)
	}
	dist[id] = d
	return d, true
}

// diffOne checks the engine against the brute-force oracles on every
// configuration of one instance: Λ's membership against the predicate,
// the successor set against oracleSuccessors, the no-deadlock and closure
// reports, the convergence report (WorstStart is the smallest ID at the
// maximum distance), the full Distances map against oracleLongest, and
// the convergence pass's edge count against the distinct illegitimate
// successors of Γ∖Λ.
func diffOne[S comparable](t *testing.T, alg Space[S], legit func(statemodel.Config[S]) bool, workers int) {
	t.Helper()
	c := New[S](alg, 0)
	e, err := c.Compile(workers)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	lam := e.LegitSet(legit)
	closure := ClosureReport[S]{Legitimate: lam.Count()}
	conv := ConvergenceReport[S]{Converges: true, Illegitimate: c.NumConfigs() - lam.Count()}
	wantDist := map[uint64]int{}
	dist := map[uint64]int{}
	deadlockFree := true
	var edges uint64
	var got []uint64
	for id := uint64(0); id < c.NumConfigs(); id++ {
		if lam.Contains(id) != legit(c.Decode(id)) {
			t.Fatalf("Λ membership of %v differs from the predicate", c.Decode(id))
		}
		succs, enabled := oracleSuccessors(c, id, nil)
		if got = e.successors(id, got); !sameSet(got, succs) {
			t.Fatalf("successors of %v: engine %v, oracle %v", c.Decode(id), got, succs)
		}
		deadlockFree = deadlockFree && enabled > 0
		if lam.Contains(id) {
			closure.MaxEnabled = max(closure.MaxEnabled, enabled)
			for x := range succs {
				if !lam.Contains(x) && closure.Counterexample == nil {
					closure.Counterexample, closure.Successor = c.Decode(id), c.Decode(x)
				}
			}
			continue
		}
		for x := range succs {
			if !lam.Contains(x) {
				edges++
			}
		}
		d, ok := oracleLongest(c, id, nil, lam.Contains, dist)
		if !ok {
			t.Fatalf("oracle: %v reaches a cycle outside Λ", c.Decode(id))
		}
		if d != 0 {
			wantDist[id] = d
		}
		if d > conv.WorstSteps {
			conv.WorstSteps, conv.WorstStart = d, c.Decode(id)
		}
	}

	if _, ok := e.CheckNoDeadlock(); ok != deadlockFree {
		t.Fatalf("no-deadlock: engine %v, oracle %v", ok, deadlockFree)
	}
	if ec := e.CheckClosure(lam); ec.Legitimate != closure.Legitimate || ec.MaxEnabled != closure.MaxEnabled ||
		(ec.Counterexample == nil) != (closure.Counterexample == nil) {
		t.Fatalf("closure: engine %+v, oracle %+v", ec, closure)
	}
	edist, econv := e.Distances(lam)
	if econv.Converges != conv.Converges || econv.WorstSteps != conv.WorstSteps ||
		econv.Illegitimate != conv.Illegitimate || !slices.Equal(econv.WorstStart, conv.WorstStart) {
		t.Fatalf("convergence: engine %+v, oracle %+v", econv, conv)
	}
	if !maps.Equal(edist, wantDist) {
		t.Fatalf("Distances: engine %d entries, oracle %d entries", len(edist), len(wantDist))
	}
	if _, stats := e.CheckConvergence(lam); stats.Edges != edges {
		t.Fatalf("edges: engine %d, oracle %d", stats.Edges, edges)
	}
}

func TestDifferentialSSRmin(t *testing.T) {
	cases := []struct{ n, k int }{{3, 4}, {3, 5}}
	if !testing.Short() {
		cases = append(cases, struct{ n, k int }{4, 5})
	}
	for _, tc := range cases {
		a := core.New(tc.n, tc.k)
		t.Run(a.Name(), func(t *testing.T) {
			diffOne[core.State](t, a, a.Legitimate, 4)
		})
	}
}

func TestDifferentialSSToken(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		a := dijkstra.New(n, n+1)
		t.Run(a.Name(), func(t *testing.T) {
			diffOne[dijkstra.State](t, a, a.Legitimate, 4)
		})
	}
}

// TestDifferentialLongestRestricted checks the Lemma 5 quiet-execution
// analysis, a rule-restricted longest path where configurations without a
// permitted move are terminal, against oracleLongest.
func TestDifferentialLongestRestricted(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	e, err := c.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	rules := map[int]bool{
		core.RuleReadySecondary: true,
		core.RuleRecvSecondary:  true,
		core.RuleFixNoG:         true,
	}
	want, wantStart := 0, uint64(0)
	dist := map[uint64]int{}
	for id := uint64(0); id < c.NumConfigs(); id++ {
		d, ok := oracleLongest(c, id, rules, func(uint64) bool { return false }, dist)
		if !ok {
			t.Fatalf("oracle: %v reaches a {1,3,5}-cycle", c.Decode(id))
		}
		if d > want {
			want, wantStart = d, id
		}
	}
	steps, start, ok := e.LongestRestricted(rules)
	if !ok || steps != want || !slices.Equal(start, c.Decode(wantStart)) {
		t.Fatalf("LongestRestricted: engine (%d, %v, %v), oracle (%d, %v)", steps, start, ok, want, c.Decode(wantStart))
	}
}

// TestTablesMatchDirect checks every entry of the compiled tables — each
// (class, pred, self, succ) view, 2·20³ = 16,000 entries for SSRmin
// (4,5) — against the direct EnabledRule/Apply, on the smallest instance
// (3,4) and on (4,5) of both algorithms. On the same views it checks that
// each algorithm's guard helpers are one predicate: SSToken's Guard,
// GuardX and HasToken agree with the table's rule ≠ 0, and SSRmin's G and
// HasPrimary agree with dijkstra.GuardX.
func TestTablesMatchDirect(t *testing.T) {
	instances := []struct{ n, k int }{{3, 4}, {4, 5}}
	t.Run("ssrmin", func(t *testing.T) {
		for _, in := range instances {
			a := core.New(in.n, in.k)
			t.Run(a.Name(), func(t *testing.T) {
				tablesMatchDirect(t, a, func(v statemodel.View[core.State], _ int) []bool {
					return []bool{core.G(v), core.HasPrimary(v), dijkstra.GuardX(v.I, v.Self.X, v.Pred.X)}
				})
			})
		}
	})
	t.Run("sstoken", func(t *testing.T) {
		for _, in := range instances {
			a := dijkstra.New(in.n, in.k)
			t.Run(a.Name(), func(t *testing.T) {
				tablesMatchDirect(t, a, func(v statemodel.View[dijkstra.State], rule int) []bool {
					return []bool{rule != 0, dijkstra.Guard(v), dijkstra.GuardX(v.I, v.Self.X, v.Pred.X), dijkstra.HasToken(v)}
				})
			})
		}
	})
}

// tablesMatchDirect compares the compiled tables with the direct rules on
// every view, and asserts that the predicates guards returns for a view
// (given the table's rule there) are all equal.
func tablesMatchDirect[S comparable](t *testing.T, a Space[S], guards func(v statemodel.View[S], rule int) []bool) {
	c := New[S](a, 0)
	e, err := c.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	states := a.AllStates()
	q := len(states)
	for class := 0; class < statemodel.ViewClasses; class++ {
		for p := 0; p < q; p++ {
			for s := 0; s < q; s++ {
				for u := 0; u < q; u++ {
					v := statemodel.ClassView(class, a.N(), states[p], states[s], states[u])
					tr := statemodel.TripleIndex(q, p, s, u)
					r := a.EnabledRule(v)
					want := states[s]
					if r != 0 {
						want = a.Apply(v, r)
					}
					if int(e.rule[class][tr]) != r || states[e.next[class][tr]] != want {
						t.Fatalf("class %d view %+v: table rule %d → %v, direct rule %d → %v",
							class, v, e.rule[class][tr], states[e.next[class][tr]], r, want)
					}
					g := guards(v, int(e.rule[class][tr]))
					for i := range g {
						if g[i] != g[0] {
							t.Fatalf("class %d view %+v: guard group not pointwise equal: %v", class, v, g)
						}
					}
				}
			}
		}
	}
}
