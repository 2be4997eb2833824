// The parallel ID-space engine: every pass of the model checker —
// legitimate-set construction, no-deadlock, closure, and the convergence
// longest-path analysis — over compiled transition tables (tables.go) and
// contiguous uint64 ID ranges sharded across a worker pool. Successors
// come from table lookups instead of Decode/Encode and View construction,
// the transition graph is never stored, and the scans scale near-linearly
// with cores. differential_test.go checks the successor relation against
// a brute-force oracle over statemodel.Enabled and Apply, and every
// distance against longest paths over that oracle; digest_test.go pins
// the reports. An algorithm declaring statemodel.DigitShift is explored one
// configuration per orbit (shift.go): every scan, bitmap and memo covers
// only the representative prefix of the ID space, while reports keep
// their full-Γ meaning.
package check

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"

	"ssrmin/internal/parsweep"
	"ssrmin/internal/statemodel"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// chunkRange is one contiguous, 64-aligned shard of the ID space.
type chunkRange struct{ lo, hi uint64 }

// chunks shards the representatives [0, span) into 64-aligned ranges,
// several per worker for load balance.
func (e *Engine[S]) chunks() []chunkRange {
	span := e.sym.span
	target := uint64(e.workers * 4)
	if target < 1 {
		target = 1
	}
	step := (span + target - 1) / target
	step = (step + 63) &^ 63 // keep shard boundaries word-aligned
	if step == 0 {
		step = 64
	}
	var out []chunkRange
	for lo := uint64(0); lo < span; lo += step {
		hi := lo + step
		if hi > span {
			hi = span
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

// LegitSet evaluates the legitimacy predicate over the representatives in
// parallel and returns Λ as a bitmap. This is the only pass that decodes
// configurations (once each, into a per-worker buffer); every other engine
// pass tests Λ-membership by a single bit probe. The predicate must be
// safe for concurrent use, must not retain its argument and must be
// invariant under the algorithm's digit shift: LegitSet panics if a shift
// of a legitimate representative is illegitimate (the converse would
// cost a scan of Γ).
func (e *Engine[S]) LegitSet(legit func(statemodel.Config[S]) bool) *IDSet {
	set := &IDSet{words: make([]uint64, (e.sym.span+63)/64), sym: &e.sym}
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
	if e.sym.k > 1 {
		set.ForEach(func(id uint64) bool {
			if cfg := e.c.Decode(id); !legit(cfg) {
				panic(fmt.Sprintf("check: legitimacy predicate is not invariant under the digit shift of %s: %v is a shift of a legitimate configuration", e.c.alg.Name(), cfg))
			}
			return true
		})
	}
	return set
}

// CheckNoDeadlock verifies in parallel that every configuration has an
// enabled process; it returns a deadlocked configuration otherwise. An
// orbit deadlocks as a whole, so the representatives suffice.
func (e *Engine[S]) CheckNoDeadlock() (counterexample statemodel.Config[S], ok bool) {
	var found atomic.Uint64 // id+1 of a counterexample; 0 = none
	ch := e.chunks()
	parsweep.Map(len(ch), e.workers, func(ci int) struct{} {
		q, n := e.q, e.n
		e.scanRange(ch[ci].lo, ch[ci].hi, func(id uint64, digits []int) {
			if found.Load() != 0 {
				return
			}
			rule := e.rule[0] // the bottom class, then every other
			pd, sd := digits[n-1], digits[0]
			for i := 0; i < n; i++ {
				ud := digits[0]
				if i+1 < n {
					ud = digits[i+1]
				}
				if rule[(pd*q+sd)*q+ud] != 0 {
					return
				}
				pd, sd = sd, ud
				rule = e.rule[1]
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
// number of simultaneously enabled processes over Λ. Steps commute with
// the digit shift, so only lam's representatives are expanded. Λ is tiny
// compared to Γ (3nK for SSRmin), so the walk over its bitmap is
// sequential; each member costs a handful of table probes and subset
// additions.
func (e *Engine[S]) CheckClosure(lam *IDSet) ClosureReport[S] {
	var rep ClosureReport[S]
	rep.Legitimate = lam.Count()
	digits := make([]int, e.n)
	movers := make([]mover, 0, e.n)
	lam.forEachBit(func(id uint64) bool {
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
	// Edges is the number of illegitimate→illegitimate edges of the full
	// transition graph, each counted once however many workers expanded
	// its source: a representative's distinct successors are counted
	// before canonicalisation and the sum is multiplied by the orbit size.
	Edges uint64
	// Layers is the peak depth of the memoized DFS stack over all workers
	// (at most the longest path plus one when the analysis converges).
	Layers int
	// BookkeepingBytes is the peak size of the analysis' arrays: the
	// 4-byte distance memo per representative plus every worker's gray
	// bitmap, frame stack and successor slab.
	BookkeepingBytes uint64
}

// CheckConvergence verifies convergence under the unfair distributed
// daemon — the transition relation restricted to Γ∖lam must be acyclic
// (lam is assumed closed: run CheckClosure first) — and computes the
// exact worst-case stabilization time, the longest path to lam, with
// WorstStart tie-broken on the smallest ID. It is a parallel memoized
// DFS: workers take chunks of root IDs and run explicit-stack
// depth-first searches that generate successors from the compiled tables
// on the fly and share one distance memo, so no transition graph is ever
// materialized.
func (e *Engine[S]) CheckConvergence(lam *IDSet) (ConvergenceReport[S], ConvStats) {
	rep, _, stats := e.convergence(lam, e.allRules)
	return rep, stats
}

// Distances is CheckConvergence plus the exact worst-case steps-to-Λ of
// every configuration, keyed by ID (only nonzero distances are present;
// each representative's distance is copied to every member of its orbit).
// The single-fault experiment uses it to bound recovery from
// Hamming-distance-1 perturbations of Λ.
func (e *Engine[S]) Distances(lam *IDSet) (map[uint64]int, ConvergenceReport[S]) {
	rep, memo, _ := e.convergence(lam, e.allRules)
	out := make(map[uint64]int)
	for id, m := range memo {
		if m > 1 {
			for c := 0; c < e.sym.k; c++ {
				out[e.sym.rotate(uint64(id), c*e.sym.b)] = int(m - 1)
			}
		}
	}
	return out, rep
}

// LongestRestricted computes the longest execution that only ever uses
// rules from the given set, from any start (Lemma 5 with rules = {1, 3,
// 5}; the paper proves the result ≤ 3n). A configuration without a
// permitted move ends an execution. ok is false, with start on a cycle,
// if such executions can be infinite.
func (e *Engine[S]) LongestRestricted(rules map[int]bool) (steps int, start statemodel.Config[S], ok bool) {
	var mask uint32
	for r, on := range rules {
		if on && r >= 1 && r <= 30 {
			mask |= 1 << uint(r)
		}
	}
	rep, _, _ := e.convergence(newIDSet(e.sym.span), mask)
	if !rep.Converges {
		return 0, rep.Cycle, false
	}
	return rep.WorstSteps, rep.WorstStart, true
}

// WorstPath extracts one exact worst-case execution: from the worst start
// of CheckConvergence it follows, at every step, the first successor whose
// distance to lam is one less, in daemon-subset mask order over the
// enabled moves in increasing position order, until it reaches lam. The
// path holds WorstSteps+1 configurations; it is nil when the analysis
// finds a cycle or every configuration is in lam.
func (e *Engine[S]) WorstPath(lam *IDSet) []statemodel.Config[S] {
	rep, memo, _ := e.convergence(lam, e.allRules)
	if !rep.Converges || rep.WorstSteps == 0 {
		return nil
	}
	dist := func(id uint64) int32 {
		if lam.Contains(id) {
			return 0
		}
		return memo[e.sym.canon(id)] - 1
	}
	path := []statemodel.Config[S]{rep.WorstStart}
	id := e.c.Encode(rep.WorstStart)
	var succs []uint64
	for d := dist(id); d > 0; d-- {
		succs = e.successors(id, succs)
		i := slices.IndexFunc(succs, func(nid uint64) bool { return dist(nid) == d-1 })
		if i < 0 {
			panic("check: worst path broke — distances inconsistent")
		}
		id = succs[i]
		path = append(path, e.c.Decode(id))
	}
	return path
}

// ExportDOT writes the transition graph induced on keep (e.g. Λ, giving
// the 3nK-cycle of Lemma 1) as a Graphviz DOT digraph: one node per
// member in increasing ID order, labelled with its configuration via %v,
// and one edge per distinct distributed-daemon successor inside keep. It
// returns the number of nodes and edges written.
func (e *Engine[S]) ExportDOT(w io.Writer, name string, keep *IDSet) (nodes, edges int, err error) {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontname=monospace];\n", name)
	var succs []uint64
	keep.ForEach(func(id uint64) bool {
		nodes++
		fmt.Fprintf(&b, "  n%d [label=%q];\n", id, fmt.Sprintf("%v", e.c.Decode(id)))
		succs = e.successors(id, succs)
		for _, nid := range succs {
			if keep.Contains(nid) {
				edges++
				fmt.Fprintf(&b, "  n%d -> n%d;\n", id, nid)
			}
		}
		return true
	})
	b.WriteString("}\n")
	_, err = io.WriteString(w, b.String())
	return nodes, edges, err
}

// dfsFrame is one configuration on a worker's DFS stack: its unfinished
// successors occupy slab[lo:hi] and slab[next] is the next one to visit;
// deg is its out-degree (its distinct illegitimate successors, finished
// ones included), and best is the largest distance seen among the
// finished ones (-1 for a configuration without any permitted move, which
// is terminal).
type dfsFrame struct {
	id           uint64
	lo, hi, next int
	best, deg    int32
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

// push expands the representative id, whose digits are given, onto the
// stack in one pass over the daemon's subsets: each distinct successor is
// built from the subset sums, canonicalised when it leaves the
// representative prefix and dropped when legitimate (distance 0, no
// edge). A successor whose memo entry is already final counts towards the
// frame's best on the spot; only the unfinished ones go on the slab, in
// mask order, for run to visit. The subset sums reuse w.sums, which
// newWorker sizes for every process moving at once.
//
// Every nonzero delta moves its own digit without carries, so distinct
// subsets of nonzero movers give distinct IDs. A zero delta (a rule
// mapping a state to itself) makes every subset containing it repeat the
// subset without it, and every subset of zero movers repeat id itself:
// such a subset is skipped unless it is the first to reach its ID, so each
// successor appears once, at its first subset in mask order.
//
//allocgate:hot
func (w *dfsWorker[S]) push(id uint64, digits []int) {
	e := w.e
	movers := e.enabledMoves(digits, w.ruleMask, w.movers[:0])
	w.movers = movers
	f := dfsFrame{id: id, lo: len(w.slab), best: -1}
	if m := len(movers); m > 0 {
		if m > maxSubsetMoves {
			panic("check: too many enabled processes for subset enumeration")
		}
		f.best = 0
		zero := 0
		for b := range movers {
			if movers[b].delta == 0 {
				zero |= 1 << uint(b)
			}
		}
		self := zero & -zero // the first subset reaching id itself
		sums, span, lam, memo := w.sums, e.sym.span, w.lam, w.memo
		for mask := 1; mask < 1<<uint(m); mask++ {
			d := sums[mask&(mask-1)] + movers[bits.TrailingZeros32(uint32(mask))].delta
			sums[mask] = d
			if mask&zero != 0 && mask != self {
				continue
			}
			v := uint64(int64(id) + d)
			if v >= span {
				v = e.sym.canon(v)
			}
			if lam.has(v) {
				continue
			}
			f.deg++
			if md := atomic.LoadInt32(&memo[v]); md != 0 {
				f.best = max(f.best, md-1)
				continue
			}
			w.slab = append(w.slab, v)
		}
	}
	f.next, f.hi = f.lo, len(w.slab)
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
// A slab entry is re-checked against the memo when visited, since a
// sibling's subtree or another worker may have finished it since push.
//
// Two workers may expand the same configuration at once. Both compute the
// same deterministic distance; the compare-and-swap admits one value and
// only its winner counts the configuration's edges.
//
//allocgate:hot
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
			w.edges += uint64(f.deg)
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

// newWorker returns a DFS worker over the shared memo and stop flag, its
// subset-sum scratch sized for every process moving at once.
func (e *Engine[S]) newWorker(lam *IDSet, ruleMask uint32, memo []int32, stop *atomic.Bool) *dfsWorker[S] {
	return &dfsWorker[S]{
		e: e, lam: lam, ruleMask: ruleMask, memo: memo, stop: stop,
		gray:   newIDSet(e.sym.span),
		sums:   make([]int64, 1<<uint(e.n)),
		digits: make([]int, e.n),
	}
}

// bytes is the worker's private bookkeeping footprint.
func (w *dfsWorker[S]) bytes() uint64 {
	return 8*uint64(len(w.gray.words)) + uint64(cap(w.stack))*uint64(unsafe.Sizeof(dfsFrame{})) +
		8*uint64(cap(w.slab))
}

// convergence runs the memoized DFS over the representatives of Γ∖lam
// under ruleMask and returns the report, the memo (dist+1 per illegitimate
// representative, 0 for legitimate ones) and the bookkeeping stats.
//
// Steps commute with the digit shift, so a representative's distance is
// its whole orbit's. A cycle through representatives is a path from some
// configuration to one of its shifts; repeating it returns to the start,
// so the quotient graph is acyclic iff the full graph is, and the cycle
// witness lies on a cycle of Γ.
func (e *Engine[S]) convergence(lam *IDSet, ruleMask uint32) (ConvergenceReport[S], []int32, ConvStats) {
	span := e.sym.span
	rep := ConvergenceReport[S]{Converges: true, Illegitimate: e.total - lam.Count()}
	memo := make([]int32, span)
	var stop atomic.Bool
	newWorker := func() *dfsWorker[S] { return e.newWorker(lam, ruleMask, memo, &stop) }
	// roots walks [lo, hi) and runs w from every illegitimate
	// representative not yet finalized, until a cycle is found.
	roots := func(w *dfsWorker[S], lo, hi uint64) (cycle uint64, found bool) {
		e.scanRange(lo, hi, func(id uint64, digits []int) {
			if found || stop.Load() || lam.has(id) || atomic.LoadInt32(&memo[id]) != 0 {
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
	stats := ConvStats{BookkeepingBytes: 4 * span}
	for i := pool.Idle(); i > 0; i-- {
		w := pool.Get()
		stats.Edges += w.edges
		stats.Layers = max(stats.Layers, w.peak)
		stats.BookkeepingBytes += w.bytes()
	}
	stats.Edges *= uint64(e.sym.k)

	if stop.Load() {
		// Which worker closed a cycle first depends on scheduling. Re-run
		// one worker in ID order over the surviving memo instead: memoized
		// configurations reach no cycle, so its first re-encounter — and
		// hence the witness — depends on the transition relation alone.
		stop.Store(false)
		rep.Converges = false
		cycle, _ := roots(newWorker(), 0, span)
		rep.Cycle = e.c.Decode(cycle)
		return rep, memo, stats
	}

	// Max distance with smallest-ID tie-break, reduced per chunk. An
	// orbit's smallest ID is its representative, so this is Γ's.
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
