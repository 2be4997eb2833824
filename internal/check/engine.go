// The parallel ID-space engine: every pass of the model checker —
// legitimate-set construction, no-deadlock, closure, invariant scans, and
// the convergence longest-path analysis — reimplemented over compiled
// transition tables (tables.go) and contiguous uint64 ID ranges sharded
// across a worker pool. Reports are bit-identical to the legacy
// Checker passes (differential_test.go pins this on every seed instance);
// the speedup comes from eliminating Decode/Encode, View construction and
// per-node map allocation from the hot path, from generating successors
// by table lookups instead of storing the transition graph, and from
// near-linear scaling of the scans with cores.
package check

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"ssrmin/internal/parsweep"
	"ssrmin/internal/statemodel"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// chunkRange is one contiguous, 64-aligned shard of the ID space.
type chunkRange struct{ lo, hi uint64 }

// chunks shards [0, total) into 64-aligned ranges, several per worker for
// load balance.
func (e *Engine[S]) chunks() []chunkRange {
	target := uint64(e.workers * 4)
	if target < 1 {
		target = 1
	}
	step := (e.total + target - 1) / target
	step = (step + 63) &^ 63 // keep shard boundaries word-aligned
	if step == 0 {
		step = 64
	}
	var out []chunkRange
	for lo := uint64(0); lo < e.total; lo += step {
		hi := lo + step
		if hi > e.total {
			hi = e.total
		}
		out = append(out, chunkRange{lo, hi})
	}
	return out
}

// scanRange walks ids in [lo, hi) maintaining the base-q digit odometer,
// so per-ID digit extraction costs one increment instead of n divisions.
func (e *Engine[S]) scanRange(lo, hi uint64, fn func(id uint64, digits []int)) {
	digits := make([]int, e.n)
	e.digitsOf(lo, digits)
	for id := lo; id < hi; id++ {
		fn(id, digits)
		for i := 0; i < e.n; i++ {
			digits[i]++
			if digits[i] < e.q {
				break
			}
			digits[i] = 0
		}
	}
}

// LegitSet evaluates the legitimacy predicate over the full space in
// parallel and returns Λ as a bitmap. This is the only pass that decodes
// configurations (once each, into a per-worker buffer); every other engine
// pass tests Λ-membership by a single bit probe. The predicate must be
// safe for concurrent use and must not retain its argument.
func (e *Engine[S]) LegitSet(legit func(statemodel.Config[S]) bool) *IDSet {
	set := newIDSet(e.total)
	ch := e.chunks()
	counts := parsweep.Map(len(ch), e.workers, func(ci int) uint64 {
		cfg := make(statemodel.Config[S], e.n)
		var cnt uint64
		e.scanRange(ch[ci].lo, ch[ci].hi, func(id uint64, digits []int) {
			for i, d := range digits {
				cfg[i] = e.c.states[d]
			}
			if legit(cfg) {
				set.set(id)
				cnt++
			}
		})
		return cnt
	})
	for _, c := range counts {
		set.count += c
	}
	return set
}

// CheckNoDeadlock verifies in parallel that every configuration has an
// enabled process; it returns a deadlocked configuration otherwise.
func (e *Engine[S]) CheckNoDeadlock() (counterexample statemodel.Config[S], ok bool) {
	var found atomic.Uint64 // id+1 of a counterexample; 0 = none
	ch := e.chunks()
	parsweep.Map(len(ch), e.workers, func(ci int) struct{} {
		q, n := e.q, e.n
		e.scanRange(ch[ci].lo, ch[ci].hi, func(id uint64, digits []int) {
			if found.Load() != 0 {
				return
			}
			for i := 0; i < n; i++ {
				t := (digits[(i+n-1)%n]*q+digits[i])*q + digits[(i+1)%n]
				class := 0
				if i != 0 {
					class = 1
				}
				if e.rule[class][t] != 0 {
					return
				}
			}
			found.CompareAndSwap(0, id+1)
		})
		return struct{}{}
	})
	if id := found.Load(); id != 0 {
		return e.c.Decode(id - 1), false
	}
	return nil, true
}

// CheckClosure verifies that every distributed-daemon successor of every
// configuration in lam stays in lam, and reports |Λ| and the maximum
// number of simultaneously enabled processes over Λ. Λ is tiny compared to
// Γ (3nK for SSRmin), so the walk over its bitmap is sequential; each
// member costs a handful of table probes and subset additions.
func (e *Engine[S]) CheckClosure(lam *IDSet) ClosureReport[S] {
	var rep ClosureReport[S]
	rep.Legitimate = lam.Count()
	digits := make([]int, e.n)
	movers := make([]mover, 0, e.n)
	lam.ForEach(func(id uint64) bool {
		e.digitsOf(id, digits)
		movers = e.enabledMoves(digits, e.allRules, movers[:0])
		if len(movers) > rep.MaxEnabled {
			rep.MaxEnabled = len(movers)
		}
		if len(movers) > maxSubsetMoves {
			panic("check: too many enabled processes for subset enumeration")
		}
		for mask := 1; mask < 1<<uint(len(movers)); mask++ {
			var d int64
			for b := range movers {
				if mask&(1<<uint(b)) != 0 {
					d += movers[b].delta
				}
			}
			if nid := uint64(int64(id) + d); !lam.Contains(nid) {
				rep.Counterexample = e.c.Decode(id)
				rep.Successor = e.c.Decode(nid)
				return false
			}
		}
		return true
	})
	return rep
}

// ConvStats reports the bookkeeping cost of one convergence analysis.
type ConvStats struct {
	// Edges is the number of illegitimate→illegitimate transition-graph
	// edges, each counted once however many workers expanded its source.
	Edges uint64
	// Layers is the peak depth of the memoized DFS stack over all workers
	// (at most the longest path plus one when the analysis converges).
	Layers int
	// BookkeepingBytes is the peak size of the analysis' arrays: the
	// 4-byte distance memo per configuration plus every worker's gray
	// bitmap, frame stack and successor slab.
	BookkeepingBytes uint64
}

// CheckConvergence verifies convergence under the unfair distributed
// daemon — the transition relation restricted to Γ∖lam must be acyclic —
// and computes the exact worst-case stabilization time, exactly like the
// legacy Checker.CheckConvergence but as a parallel memoized DFS: workers
// take chunks of root IDs and run explicit-stack depth-first searches
// that generate successors from the compiled tables on the fly and share
// one distance memo, so no transition graph is ever materialized.
func (e *Engine[S]) CheckConvergence(lam *IDSet) (ConvergenceReport[S], ConvStats) {
	rep, _, stats := e.convergence(lam, e.allRules)
	if rep.Converges {
		if o := e.c.Obs; o != nil {
			o.ConvergedAt(0, rep.WorstSteps)
		}
	}
	return rep, stats
}

// Distances is CheckConvergence plus the exact worst-case steps-to-Λ of
// every configuration, keyed by ID (only nonzero distances are present),
// with the same semantics as Checker.Distances.
func (e *Engine[S]) Distances(lam *IDSet) (map[uint64]int, ConvergenceReport[S]) {
	rep, memo, _ := e.convergence(lam, e.allRules)
	out := make(map[uint64]int)
	for id, m := range memo {
		if m > 1 {
			out[uint64(id)] = int(m - 1)
		}
	}
	return out, rep
}

// LongestRestricted computes the longest execution using only the given
// rule set, from any start (Lemma 5); ok is false if such executions can
// be infinite. Identical semantics to Checker.LongestRestricted.
func (e *Engine[S]) LongestRestricted(rules map[int]bool) (steps int, start statemodel.Config[S], ok bool) {
	var mask uint32
	for r, on := range rules {
		if on && r >= 1 && r <= 30 {
			mask |= 1 << uint(r)
		}
	}
	rep, _, _ := e.convergence(newIDSet(e.total), mask)
	if !rep.Converges {
		return 0, rep.Cycle, false
	}
	return rep.WorstSteps, rep.WorstStart, true
}

// dfsFrame is one configuration on a worker's DFS stack: its illegitimate
// successors occupy slab[lo:hi], slab[next] is the next one to visit, and
// best is the largest distance seen among the visited ones (-1 for a
// configuration without any permitted move, which is terminal).
type dfsFrame struct {
	id           uint64
	lo, hi, next int
	best         int32
}

// dfsWorker is one worker's private DFS state over the shared memo.
type dfsWorker[S comparable] struct {
	e        *Engine[S]
	lam      *IDSet
	ruleMask uint32
	memo     []int32      // shared: dist+1 once final, 0 until then
	stop     *atomic.Bool // shared: set once any worker closes a cycle

	gray   *IDSet // the configurations on this worker's stack
	stack  []dfsFrame
	slab   []uint64
	movers []mover
	sums   []int64
	digits []int

	edges uint64 // out-degrees of the configurations this worker finalized
	peak  int    // peak stack depth
}

// push expands id, whose digits are given, onto the stack. Legitimate
// successors are dropped from the slab: they contribute distance 0 and no
// edge.
func (w *dfsWorker[S]) push(id uint64, digits []int) {
	w.movers = w.e.enabledMoves(digits, w.ruleMask, w.movers[:0])
	lo := len(w.slab)
	w.slab, w.sums = distinctSuccessors(id, w.movers, w.slab, w.sums)
	f := dfsFrame{id: id, lo: lo, next: lo}
	if len(w.slab) == lo {
		f.best = -1
	}
	k := lo
	for _, v := range w.slab[lo:] {
		if !w.lam.Contains(v) {
			w.slab[k] = v
			k++
		}
	}
	w.slab = w.slab[:k]
	f.hi = k
	w.stack = append(w.stack, f)
	w.gray.set(id)
	if len(w.stack) > w.peak {
		w.peak = len(w.stack)
	}
}

// run finalizes the distance of the illegitimate root and of everything it
// reaches. It returns the first configuration it meets again while still
// on its own stack — one that lies on a cycle — and found = true; a run
// abandoned because another worker found a cycle returns found = false.
//
// Two workers may expand the same configuration at once. Both compute the
// same deterministic distance; the compare-and-swap admits one value and
// only its winner counts the configuration's edges.
func (w *dfsWorker[S]) run(root uint64, digits []int) (cycle uint64, found bool) {
	w.push(root, digits)
	for len(w.stack) > 0 {
		f := &w.stack[len(w.stack)-1]
		if f.next < f.hi {
			v := w.slab[f.next]
			f.next++
			if m := atomic.LoadInt32(&w.memo[v]); m != 0 {
				if m-1 > f.best {
					f.best = m - 1
				}
				continue
			}
			if w.gray.Contains(v) {
				return v, true
			}
			if w.stop.Load() {
				return 0, false
			}
			w.e.digitsOf(v, w.digits)
			w.push(v, w.digits)
			continue
		}
		d := f.best + 1
		if atomic.CompareAndSwapInt32(&w.memo[f.id], 0, d+1) {
			w.edges += uint64(f.hi - f.lo)
		}
		w.gray.clear(f.id)
		w.slab = w.slab[:f.lo]
		w.stack = w.stack[:len(w.stack)-1]
		if top := len(w.stack) - 1; top >= 0 && d > w.stack[top].best {
			w.stack[top].best = d
		}
	}
	return 0, false
}

// bytes is the worker's private bookkeeping footprint.
func (w *dfsWorker[S]) bytes() uint64 {
	return 8*uint64(len(w.gray.words)) + uint64(cap(w.stack))*uint64(unsafe.Sizeof(dfsFrame{})) +
		8*uint64(cap(w.slab))
}

// convergence runs the memoized DFS over Γ∖lam under ruleMask and returns
// the report, the memo (dist+1 per illegitimate configuration, 0 for
// legitimate ones) and the bookkeeping stats.
func (e *Engine[S]) convergence(lam *IDSet, ruleMask uint32) (ConvergenceReport[S], []int32, ConvStats) {
	rep := ConvergenceReport[S]{Converges: true, Illegitimate: e.total - lam.Count()}
	memo := make([]int32, e.total)
	var stop atomic.Bool
	newWorker := func() *dfsWorker[S] {
		return &dfsWorker[S]{
			e: e, lam: lam, ruleMask: ruleMask, memo: memo, stop: &stop,
			gray:   newIDSet(e.total),
			sums:   make([]int64, 1<<uint(e.n)),
			digits: make([]int, e.n),
		}
	}
	// roots walks [lo, hi) and runs w from every illegitimate
	// configuration not yet finalized, until a cycle is found.
	roots := func(w *dfsWorker[S], lo, hi uint64) (cycle uint64, found bool) {
		e.scanRange(lo, hi, func(id uint64, digits []int) {
			if found || stop.Load() || lam.Contains(id) || atomic.LoadInt32(&memo[id]) != 0 {
				return
			}
			if cycle, found = w.run(id, digits); found {
				stop.Store(true)
			}
		})
		return cycle, found
	}

	ch := e.chunks()
	pool := parsweep.NewPool(newWorker)
	parsweep.MapWith(len(ch), e.workers, pool, func(ci int, w *dfsWorker[S]) struct{} {
		roots(w, ch[ci].lo, ch[ci].hi)
		return struct{}{}
	})
	stats := ConvStats{BookkeepingBytes: 4 * e.total}
	for i := pool.Idle(); i > 0; i-- {
		w := pool.Get()
		stats.Edges += w.edges
		stats.Layers = max(stats.Layers, w.peak)
		stats.BookkeepingBytes += w.bytes()
	}

	if stop.Load() {
		// Which worker closed a cycle first depends on scheduling. Re-run
		// one worker in ID order over the surviving memo instead: memoized
		// configurations reach no cycle, so its first re-encounter — and
		// hence the witness — depends on the transition relation alone.
		stop.Store(false)
		rep.Converges = false
		cycle, _ := roots(newWorker(), 0, e.total)
		rep.Cycle = e.c.Decode(cycle)
		return rep, memo, stats
	}

	// Max distance with smallest-ID tie-break, reduced per chunk.
	type worst struct {
		m  int32
		id uint64
	}
	ws := parsweep.Map(len(ch), e.workers, func(ci int) worst {
		w := worst{1, ^uint64(0)}
		for id := ch[ci].lo; id < ch[ci].hi; id++ {
			if m := memo[id]; m > w.m {
				w = worst{m, id}
			}
		}
		return w
	})
	w := worst{1, ^uint64(0)}
	for _, c := range ws {
		if c.m > w.m || (c.m == w.m && c.id < w.id) {
			w = c
		}
	}
	rep.WorstSteps = int(w.m - 1)
	if w.m > 1 {
		rep.WorstStart = e.c.Decode(w.id)
	}
	return rep, memo, stats
}
