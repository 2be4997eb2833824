package check

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// stutter is a toy PositionUniform algorithm with a zero-delta rule: on
// states {0, 1, 2}, Rule 1 keeps a 2 at 2 (a move that changes nothing),
// Rule 2 turns a 0 whose predecessor is not 0 into a 1, and Rule 3 turns a
// 1 into a 2. Every subset containing a stuttering process repeats the
// subset without it, and every configuration holding a 2 is its own
// successor.
type stutter struct{ n int }

func (s stutter) Name() string   { return fmt.Sprintf("stutter(n=%d)", s.n) }
func (s stutter) N() int         { return s.n }
func (stutter) Rules() int       { return 3 }
func (stutter) AllStates() []int { return []int{0, 1, 2} }
func (stutter) UniformViews()    {}
func (stutter) Apply(v statemodel.View[int], r int) int {
	return [...]int{0, 2, 1, 2}[r]
}

func (stutter) EnabledRule(v statemodel.View[int]) int {
	switch {
	case v.Self == 2:
		return 1
	case v.Self == 0 && v.Pred != 0:
		return 2
	case v.Self == 1:
		return 3
	}
	return 0
}

// holdsTwo is the stutter's Λ: outside it every configuration is over
// {0, 1}, where the moves only add 1s and 2s, so Γ∖Λ is acyclic.
func holdsTwo(c statemodel.Config[int]) bool { return slices.Contains(c, 2) }

// refFrame is the reference expansion of id: distinctSuccessors, then
// canonicalisation, the Λ filter and the memo filter. It returns the
// frame's best, its out-degree and its unfinished successors in order.
func refFrame[S comparable](e *Engine[S], id uint64, lam *IDSet, ruleMask uint32, memo []int32) (best, deg int32, open []uint64) {
	digits := make([]int, e.n)
	e.digitsOf(id, digits)
	succs, _ := distinctSuccessors(id, e.enabledMoves(digits, ruleMask, nil), nil, nil)
	if len(succs) == 0 {
		return -1, 0, nil
	}
	for _, v := range succs {
		if v = e.sym.canon(v); lam.has(v) {
			continue
		}
		deg++
		if m := memo[v]; m != 0 {
			best = max(best, m-1)
		} else {
			open = append(open, v)
		}
	}
	return best, deg, open
}

// expandAll checks dfsWorker.push against refFrame on every
// representative, under a memo with about half its entries pre-filled at
// random.
func expandAll[S comparable](t *testing.T, e *Engine[S], lam *IDSet, ruleMask uint32, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	memo := make([]int32, e.sym.span)
	for i := range memo {
		if rng.IntN(2) == 0 {
			memo[i] = 1 + rng.Int32N(60)
		}
	}
	var stop atomic.Bool
	w := e.newWorker(lam, ruleMask, memo, &stop)
	digits := make([]int, e.n)
	for id := uint64(0); id < e.sym.span; id++ {
		e.digitsOf(id, digits)
		w.push(id, digits)
		f := w.stack[0]
		got := w.slab[f.lo:f.hi]
		best, deg, open := refFrame(e, id, lam, ruleMask, memo)
		if f.best != best || f.deg != deg || !slices.Equal(got, open) {
			t.Fatalf("%v: push gave best %d, degree %d, open %v; reference %d, %d, %v",
				e.c.Decode(id), f.best, f.deg, got, best, deg, open)
		}
		w.gray.clear(id)
		w.stack, w.slab = w.stack[:0], w.slab[:0]
	}
}

// TestPushMatchesReference checks the DFS's one-pass expansion against
// the composition it replaces on every representative: SSRmin (4,5) with
// Λ and under the Lemma 5 rule restriction, SSToken n=4 with Λ, and the
// stutter toy with and without Λ.
func TestPushMatchesReference(t *testing.T) {
	t.Run("ssrmin", func(t *testing.T) {
		a := core.New(4, 5)
		e, lam := compile[core.State](t, a, a.Legitimate)
		expandAll(t, e, lam, e.allRules, 1)
		quiet := uint32(1<<core.RuleReadySecondary | 1<<core.RuleRecvSecondary | 1<<core.RuleFixNoG)
		expandAll(t, e, newIDSet(e.sym.span), quiet, 2)
	})
	t.Run("sstoken", func(t *testing.T) {
		a := dijkstra.New(4, 5)
		e, lam := compile[dijkstra.State](t, a, a.Legitimate)
		expandAll(t, e, lam, e.allRules, 3)
	})
	t.Run("stutter", func(t *testing.T) {
		e, lam := compile[int](t, stutter{4}, holdsTwo)
		expandAll(t, e, lam, e.allRules, 4)
		expandAll(t, e, newIDSet(e.sym.span), e.allRules, 5)
	})
}

// TestStutterDedup pins the dedup order on one configuration with a
// stuttering process: each successor appears once, at its first subset
// in mask order.
func TestStutterDedup(t *testing.T) {
	e, _ := compile[int](t, stutter{3}, holdsTwo)
	id := e.c.Encode(statemodel.Config[int]{2, 1, 0}) // P0 stutters, P1 and P2 move
	want := []uint64{
		id, // {P0}
		e.c.Encode(statemodel.Config[int]{2, 2, 0}), // {P1}
		e.c.Encode(statemodel.Config[int]{2, 1, 1}), // {P2}
		e.c.Encode(statemodel.Config[int]{2, 2, 1}), // {P1, P2}
	}
	if got := e.successors(id, nil); !slices.Equal(got, want) {
		t.Fatalf("successors %v, want %v", got, want)
	}
	if want, _ := oracleSuccessors(e.c, id, nil); !sameSet(e.successors(id, nil), want) {
		t.Fatalf("successors differ from the oracle %v", want)
	}
	memo := make([]int32, e.sym.span)
	var stop atomic.Bool
	w := e.newWorker(newIDSet(e.sym.span), e.allRules, memo, &stop)
	digits := make([]int, e.n)
	e.digitsOf(id, digits)
	w.push(id, digits)
	if got := w.slab; !slices.Equal(got, want) || w.stack[0].deg != 4 {
		t.Fatalf("push: open %v, degree %d; want %v, 4", got, w.stack[0].deg, want)
	}
}

// TestStutterDifferential runs the brute-force oracles of diffOne over
// the stutter toy, and checks that with Λ empty the self-loop is reported
// as a cycle whose witness is its own successor, whatever the worker
// count.
func TestStutterDifferential(t *testing.T) {
	for _, n := range []int{3, 4} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { diffOne[int](t, stutter{n}, holdsTwo, 4) })
	}
	a := stutter{3}
	cycleWitness[int](t, a)
	c := New[int](a, 0)
	e, err := c.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := e.CheckConvergence(newIDSet(e.NumConfigs()))
	id := c.Encode(rep.Cycle)
	if succs, _ := oracleSuccessors(c, id, nil); rep.Converges || !succs[id] {
		t.Fatalf("cycle witness %v is not a self-loop", rep.Cycle)
	}
}

// TestRunAllocatesNothing pins a warmed worker's DFS at 0 allocations: the
// frame stack, the successor slab and the subset sums are reused.
func TestRunAllocatesNothing(t *testing.T) {
	a := core.New(4, 5)
	e, lam := compile[core.State](t, a, a.Legitimate)
	rep, _ := e.CheckConvergence(lam)
	root := e.c.Encode(rep.WorstStart)
	memo := make([]int32, e.sym.span)
	var stop atomic.Bool
	w := e.newWorker(lam, e.allRules, memo, &stop)
	digits := make([]int, e.n)
	allocs := testing.AllocsPerRun(5, func() {
		clear(memo)
		e.digitsOf(root, digits)
		if _, found := w.run(root, digits); found {
			t.Fatal("cycle outside Λ")
		}
	})
	if allocs != 0 {
		t.Fatalf("run allocated %.1f times per call, want 0", allocs)
	}
	if memo[root] != int32(rep.WorstSteps)+1 {
		t.Fatalf("run from the worst start gave distance %d, want %d", memo[root]-1, rep.WorstSteps)
	}
}
