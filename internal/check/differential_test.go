package check

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// diffOne runs the legacy and the table-compiled engine side by side on
// one instance and asserts bit-identical reports: ClosureReport,
// ConvergenceReport (including WorstStart, thanks to the shared
// smallest-ID tie-break), the full Distances map, |Λ|, and the
// convergence pass's edge count.
func diffOne[S comparable](t *testing.T, alg Space[S], legit func(statemodel.Config[S]) bool, workers int) {
	t.Helper()
	c := New[S](alg, 0)
	e, err := c.Compile(workers)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	lam := e.LegitSet(legit)

	if got, want := lam.Count(), c.CountLegitimate(legit); got != want {
		t.Fatalf("|Λ|: engine %d, legacy %d", got, want)
	}

	_, legacyOK := c.CheckNoDeadlock()
	_, engineOK := e.CheckNoDeadlock()
	if legacyOK != engineOK {
		t.Fatalf("no-deadlock: engine %v, legacy %v", engineOK, legacyOK)
	}

	lc := c.CheckClosure(legit)
	ec := e.CheckClosure(lam)
	if lc.Legitimate != ec.Legitimate || lc.MaxEnabled != ec.MaxEnabled ||
		(lc.Counterexample == nil) != (ec.Counterexample == nil) {
		t.Fatalf("closure: engine %+v, legacy %+v", ec, lc)
	}

	ldist, lconv := c.Distances(legit)
	edist, econv := e.Distances(lam)
	if lconv.Converges != econv.Converges || lconv.WorstSteps != econv.WorstSteps ||
		lconv.Illegitimate != econv.Illegitimate {
		t.Fatalf("convergence: engine %+v, legacy %+v", econv, lconv)
	}
	if (lconv.WorstStart == nil) != (econv.WorstStart == nil) ||
		(lconv.WorstStart != nil && !lconv.WorstStart.Equal(econv.WorstStart)) {
		t.Fatalf("WorstStart: engine %v, legacy %v", econv.WorstStart, lconv.WorstStart)
	}
	if !reflect.DeepEqual(ldist, edist) {
		t.Fatalf("Distances maps differ: legacy %d entries, engine %d entries", len(ldist), len(edist))
	}

	// Edge-count oracle: Σ over Γ∖Λ of the distinct illegitimate
	// successors, enumerated by the legacy Successors.
	var wantEdges uint64
	c.ForAll(func(cfg statemodel.Config[S]) bool {
		if legit(cfg) {
			return true
		}
		seen := map[uint64]bool{}
		c.Successors(cfg, nil, func(next statemodel.Config[S]) bool {
			if !legit(next) {
				seen[c.Encode(next)] = true
			}
			return true
		})
		wantEdges += uint64(len(seen))
		return true
	})
	if _, stats := e.CheckConvergence(lam); stats.Edges != wantEdges {
		t.Fatalf("edges: engine %d, Successors oracle %d", stats.Edges, wantEdges)
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

// TestDifferentialLongestRestricted pins the Lemma 5 quiet-execution
// analysis (rule-restricted longest path, where terminal configurations
// exist) to the legacy result.
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
	ls, lstart, lok := c.LongestRestricted(rules)
	es, estart, eok := e.LongestRestricted(rules)
	if lok != eok || ls != es {
		t.Fatalf("LongestRestricted: engine (%d,%v), legacy (%d,%v)", es, eok, ls, lok)
	}
	if (lstart == nil) != (estart == nil) || (lstart != nil && !lstart.Equal(estart)) {
		t.Fatalf("restricted WorstStart: engine %v, legacy %v", estart, lstart)
	}
}

// TestTablesMatchDirect is the testing/quick property: on random views,
// the compiled tables agree with the direct EnabledRule/Apply
// implementations for both algorithms.
func TestTablesMatchDirect(t *testing.T) {
	t.Run("ssrmin", func(t *testing.T) {
		a := core.New(4, 5)
		c := New[core.State](a, 0)
		e, err := c.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		states := a.AllStates()
		prop := func(pi, si, ui uint8, bottom bool) bool {
			p, s, u := int(pi)%len(states), int(si)%len(states), int(ui)%len(states)
			class := 1
			if bottom {
				class = 0
			}
			v := statemodel.ClassView(class, a.N(), states[p], states[s], states[u])
			tr := statemodel.TripleIndex(len(states), p, s, u)
			r := a.EnabledRule(v)
			if int(e.rule[class][tr]) != r {
				return false
			}
			if r == 0 {
				return int(e.next[class][tr]) == s
			}
			return states[e.next[class][tr]] == a.Apply(v, r)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sstoken", func(t *testing.T) {
		a := dijkstra.New(4, 5)
		c := New[dijkstra.State](a, 0)
		e, err := c.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		states := a.AllStates()
		prop := func(pi, si, ui uint8, bottom bool) bool {
			p, s, u := int(pi)%len(states), int(si)%len(states), int(ui)%len(states)
			class := 1
			if bottom {
				class = 0
			}
			v := statemodel.ClassView(class, a.N(), states[p], states[s], states[u])
			tr := statemodel.TripleIndex(len(states), p, s, u)
			r := a.EnabledRule(v)
			if int(e.rule[class][tr]) != r {
				return false
			}
			return r == 0 || states[e.next[class][tr]] == a.Apply(v, r)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(2))}); err != nil {
			t.Fatal(err)
		}
	})
}
