// Package check is an exhaustive model checker for guarded-command ring
// algorithms under the unfair distributed daemon. For small instances it
// walks the full configuration space Γ = Q^n and verifies the paper's
// lemmas mechanically:
//
//   - Closure (Lemma 1): every daemon choice maps Λ into Λ.
//   - No deadlock (Lemmas 3–4): every configuration has an enabled process.
//   - Convergence (Lemma 6 / Theorem 2): no execution — under *any*
//     daemon choice sequence — can avoid Λ forever. Because Λ is closed,
//     this is equivalent to the transition graph restricted to Γ∖Λ being
//     acyclic; the checker also extracts the exact worst-case number of
//     steps to reach Λ (the longest path), giving the true stabilization
//     time of the instance.
//   - Restricted executions (Lemma 5): the longest execution that uses
//     only a given rule subset, e.g. {1, 3, 5}, which the paper bounds by
//     3n.
//
// The distributed daemon picks an arbitrary nonempty subset of enabled
// processes, so a configuration with e enabled processes has up to 2^e − 1
// successors; the checker enumerates all of them.
package check

import (
	"fmt"
	"io"
	"strings"

	"ssrmin/internal/obs"
	"ssrmin/internal/statemodel"
)

// Space is an algorithm whose local-state set can be enumerated, enabling
// exhaustive exploration.
type Space[S comparable] interface {
	statemodel.Algorithm[S]
	// AllStates returns every possible local state.
	AllStates() []S
}

// Checker explores the full configuration space of one algorithm instance.
type Checker[S comparable] struct {
	alg    Space[S]
	states []S
	index  map[S]int
	n      int

	// Obs, when non-nil, receives a convergence-detected event (with the
	// exact worst-case step count) from every convergence check, on both
	// the legacy walker and the compiled engine. Set it before checking.
	Obs *obs.Observer
}

// New builds a checker. It panics if the configuration space exceeds
// maxConfigs (guarding against accidentally exponential runs); pass 0 for
// the default limit of 20 million configurations.
func New[S comparable](alg Space[S], maxConfigs uint64) *Checker[S] {
	states := alg.AllStates()
	if maxConfigs == 0 {
		maxConfigs = 20_000_000
	}
	size := uint64(1)
	for i := 0; i < alg.N(); i++ {
		size *= uint64(len(states))
		if size > maxConfigs {
			panic(fmt.Sprintf("check: |Γ| = %d^%d exceeds limit %d", len(states), alg.N(), maxConfigs))
		}
	}
	idx := make(map[S]int, len(states))
	for i, s := range states {
		if _, dup := idx[s]; dup {
			panic("check: AllStates returned duplicates")
		}
		idx[s] = i
	}
	return &Checker[S]{alg: alg, states: states, index: idx, n: alg.N()}
}

// NumConfigs returns |Γ|.
func (c *Checker[S]) NumConfigs() uint64 {
	size := uint64(1)
	for i := 0; i < c.n; i++ {
		size *= uint64(len(c.states))
	}
	return size
}

// Encode maps a configuration to its dense index.
func (c *Checker[S]) Encode(cfg statemodel.Config[S]) uint64 {
	var id uint64
	base := uint64(len(c.states))
	for i := c.n - 1; i >= 0; i-- {
		si, ok := c.index[cfg[i]]
		if !ok {
			panic("check: configuration contains a state outside AllStates")
		}
		id = id*base + uint64(si)
	}
	return id
}

// Decode maps a dense index back to a configuration.
func (c *Checker[S]) Decode(id uint64) statemodel.Config[S] {
	cfg := make(statemodel.Config[S], c.n)
	base := uint64(len(c.states))
	for i := 0; i < c.n; i++ {
		cfg[i] = c.states[id%base]
		id /= base
	}
	return cfg
}

// ForAll visits every configuration. The callback must not retain cfg.
// It returns early (false) if visit returns false.
func (c *Checker[S]) ForAll(visit func(cfg statemodel.Config[S]) bool) bool {
	total := c.NumConfigs()
	cfg := make(statemodel.Config[S], c.n)
	counters := make([]int, c.n)
	for i := range cfg {
		cfg[i] = c.states[0]
	}
	for iter := uint64(0); ; iter++ {
		if !visit(cfg) {
			return false
		}
		if iter+1 == total {
			return true
		}
		// Odometer increment.
		for i := 0; i < c.n; i++ {
			counters[i]++
			if counters[i] < len(c.states) {
				cfg[i] = c.states[counters[i]]
				break
			}
			counters[i] = 0
			cfg[i] = c.states[0]
		}
	}
}

// Successors enumerates every distributed-daemon successor of cfg: one per
// nonempty subset of the enabled moves, restricted to moves whose rule is
// permitted by rules (nil means all rules). The visit callback must not
// retain its argument. It stops early if visit returns false; the return
// value is the number of enabled (permitted) moves.
func (c *Checker[S]) Successors(cfg statemodel.Config[S], rules map[int]bool, visit func(next statemodel.Config[S]) bool) int {
	var moves []statemodel.Move
	for _, m := range statemodel.Enabled[S](c.alg, cfg) {
		if rules == nil || rules[m.Rule] {
			moves = append(moves, m)
		}
	}
	e := len(moves)
	if e == 0 {
		return 0
	}
	if e > 25 {
		panic("check: too many enabled processes for subset enumeration")
	}
	next := make(statemodel.Config[S], c.n)
	sel := make([]statemodel.Move, 0, e)
	for mask := 1; mask < 1<<e; mask++ {
		copy(next, cfg)
		sel = sel[:0]
		for b := 0; b < e; b++ {
			if mask&(1<<b) != 0 {
				sel = append(sel, moves[b])
			}
		}
		for _, m := range sel {
			next[m.Process] = c.alg.Apply(cfg.View(m.Process), m.Rule)
		}
		if !visit(next) {
			break
		}
	}
	return e
}

// CheckNoDeadlock verifies that every configuration has at least one
// enabled process. It returns the first deadlocked configuration found.
func (c *Checker[S]) CheckNoDeadlock() (counterexample statemodel.Config[S], ok bool) {
	ok = c.ForAll(func(cfg statemodel.Config[S]) bool {
		if len(statemodel.Enabled[S](c.alg, cfg)) == 0 {
			counterexample = cfg.Clone()
			return false
		}
		return true
	})
	return counterexample, ok
}

// ClosureReport summarizes a closure check.
type ClosureReport[S comparable] struct {
	// Legitimate is |Λ|.
	Legitimate uint64
	// MaxEnabled is the largest number of simultaneously enabled processes
	// seen in a legitimate configuration (Lemma 1 predicts exactly 1 for
	// SSRmin).
	MaxEnabled int
	// Counterexample, when non-nil, is a legitimate configuration with an
	// illegitimate successor.
	Counterexample statemodel.Config[S]
	// Successor is the offending successor.
	Successor statemodel.Config[S]
}

// CheckClosure verifies that every distributed-daemon successor of every
// legitimate configuration is legitimate.
func (c *Checker[S]) CheckClosure(legit func(statemodel.Config[S]) bool) ClosureReport[S] {
	var rep ClosureReport[S]
	c.ForAll(func(cfg statemodel.Config[S]) bool {
		if !legit(cfg) {
			return true
		}
		rep.Legitimate++
		e := c.Successors(cfg, nil, func(next statemodel.Config[S]) bool {
			if !legit(next) {
				rep.Counterexample = cfg.Clone()
				rep.Successor = next.Clone()
				return false
			}
			return true
		})
		if e > rep.MaxEnabled {
			rep.MaxEnabled = e
		}
		return rep.Counterexample == nil
	})
	return rep
}

// ConvergenceReport summarizes a convergence check.
type ConvergenceReport[S comparable] struct {
	// Converges is true when no execution can avoid Λ forever.
	Converges bool
	// Cycle, when Converges is false, holds one configuration on an
	// illegitimate cycle.
	Cycle statemodel.Config[S]
	// WorstSteps is the exact maximum number of steps any execution needs
	// to reach Λ (the longest path through Γ∖Λ).
	WorstSteps int
	// WorstStart is a configuration attaining WorstSteps.
	WorstStart statemodel.Config[S]
	// Illegitimate is |Γ∖Λ|.
	Illegitimate uint64
}

// CheckConvergence verifies convergence under the unfair distributed
// daemon: the transition relation restricted to illegitimate
// configurations must be acyclic (Λ is assumed closed — run CheckClosure
// first). It also computes the exact worst-case stabilization time.
func (c *Checker[S]) CheckConvergence(legit func(statemodel.Config[S]) bool) ConvergenceReport[S] {
	rep, _ := c.checkConvergenceRestricted(legit, nil)
	if rep.Converges {
		if o := c.Obs; o != nil {
			o.ConvergedAt(0, rep.WorstSteps)
		}
	}
	return rep
}

// Distances runs the convergence analysis and additionally returns the
// exact worst-case steps-to-Λ of every configuration, keyed by Encode
// (legitimate configurations map to 0). The single-fault experiment uses
// it to bound recovery from Hamming-distance-1 perturbations of Λ.
func (c *Checker[S]) Distances(legit func(statemodel.Config[S]) bool) (map[uint64]int, ConvergenceReport[S]) {
	rep, dist := c.checkConvergenceRestricted(legit, nil)
	return dist, rep
}

// LongestRestricted computes the longest execution that only ever uses
// rules from the given set, from any starting configuration (Lemma 5 with
// rules = {1, 3, 5}; the paper proves the result ≤ 3n). ok is false if
// such executions can be infinite (a cycle exists).
func (c *Checker[S]) LongestRestricted(rules map[int]bool) (steps int, start statemodel.Config[S], ok bool) {
	rep, _ := c.checkConvergenceRestricted(func(statemodel.Config[S]) bool { return false }, rules)
	if !rep.Converges {
		return 0, rep.Cycle, false
	}
	return rep.WorstSteps, rep.WorstStart, true
}

const (
	colorWhite = 0
	colorGray  = 1
	colorBlack = 2
)

// checkConvergenceRestricted runs an iterative DFS over the illegitimate
// region, detecting cycles and computing longest distances to Λ (or to a
// terminal configuration when a rule restriction makes some configs
// stuck). A configuration counts as terminal if it is legitimate; with a
// rule restriction, configurations without permitted moves are terminal
// with distance 0.
func (c *Checker[S]) checkConvergenceRestricted(legit func(statemodel.Config[S]) bool, rules map[int]bool) (ConvergenceReport[S], map[uint64]int) {
	var rep ConvergenceReport[S]
	rep.Converges = true
	// Tie-break WorstStart deterministically on the smallest configuration
	// ID so the report is independent of DFS finalization order — and
	// bit-identical to the table-compiled engine's.
	worstID := ^uint64(0)

	// Dense slice-backed bookkeeping: color takes one byte and dist four
	// bytes per configuration, so even the n=5, K=6 instance of SSRmin
	// (24^5 ≈ 8M configurations) fits in tens of megabytes — maps would
	// need gigabytes and an order of magnitude more time.
	total := c.NumConfigs()
	colorArr := make([]uint8, total)
	distArr := make([]int32, total)
	color := func(id uint64) uint8 { return colorArr[id] }
	setColor := func(id uint64, v uint8) { colorArr[id] = v }
	dist := func(id uint64) int { return int(distArr[id]) }
	setDist := func(id uint64, v int) { distArr[id] = int32(v) }

	// Iterative DFS with an explicit stack; each frame expands its
	// successor list lazily by materializing it once (configs are small).
	type frame struct {
		id    uint64
		succs []uint64
		next  int
	}

	expand := func(id uint64) []uint64 {
		cfg := c.Decode(id)
		seen := map[uint64]bool{}
		var out []uint64
		c.Successors(cfg, rules, func(next statemodel.Config[S]) bool {
			nid := c.Encode(next)
			if !seen[nid] {
				seen[nid] = true
				out = append(out, nid)
			}
			return true
		})
		return out
	}

	c.ForAll(func(cfg statemodel.Config[S]) bool {
		rootID := c.Encode(cfg)
		if color(rootID) != colorWhite || legit(cfg) {
			if legit(cfg) {
				setColor(rootID, colorBlack)
			} else {
				rep.Illegitimate++
			}
			return true
		}
		rep.Illegitimate++

		stack := []frame{{id: rootID, succs: expand(rootID)}}
		setColor(rootID, colorGray)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(f.succs) {
				nid := f.succs[f.next]
				f.next++
				ncfg := c.Decode(nid)
				if legit(ncfg) {
					setColor(nid, colorBlack)
					// dist stays 0 for legitimate configs.
					continue
				}
				switch color(nid) {
				case colorGray:
					rep.Converges = false
					rep.Cycle = ncfg
					return false
				case colorWhite:
					setColor(nid, colorGray)
					stack = append(stack, frame{id: nid, succs: expand(nid)})
				}
				continue
			}
			// All successors done: finalize distance.
			best := 0
			for _, nid := range f.succs {
				if d := dist(nid); d > best {
					best = d
				}
			}
			d := best + 1
			if len(f.succs) == 0 {
				// Terminal under a rule restriction (no permitted move).
				d = 0
			}
			setDist(f.id, d)
			if d > rep.WorstSteps || (d == rep.WorstSteps && d > 0 && f.id < worstID) {
				rep.WorstSteps = d
				rep.WorstStart = c.Decode(f.id)
				worstID = f.id
			}
			setColor(f.id, colorBlack)
			stack = stack[:len(stack)-1]
		}
		return true
	})
	out := make(map[uint64]int)
	for id, d := range distArr {
		if d != 0 {
			out[uint64(id)] = int(d)
		}
	}
	return rep, out
}

// CountLegitimate counts |Λ| for a predicate.
func (c *Checker[S]) CountLegitimate(legit func(statemodel.Config[S]) bool) uint64 {
	var count uint64
	c.ForAll(func(cfg statemodel.Config[S]) bool {
		if legit(cfg) {
			count++
		}
		return true
	})
	return count
}

// CheckInvariantOnLegitimate verifies a per-configuration invariant over
// Λ, returning the first violating configuration.
func (c *Checker[S]) CheckInvariantOnLegitimate(legit, inv func(statemodel.Config[S]) bool) (counterexample statemodel.Config[S], ok bool) {
	ok = c.ForAll(func(cfg statemodel.Config[S]) bool {
		if legit(cfg) && !inv(cfg) {
			counterexample = cfg.Clone()
			return false
		}
		return true
	})
	return counterexample, ok
}

// WorstPath extracts one exact worst-case execution: starting from the
// configuration with the largest distance-to-Λ, it follows successors of
// strictly decreasing distance until a legitimate configuration is
// reached. The result starts at the worst configuration and ends at the
// first legitimate one; its length-1 equals the reported WorstSteps.
func (c *Checker[S]) WorstPath(legit func(statemodel.Config[S]) bool) []statemodel.Config[S] {
	dist, rep := c.Distances(legit)
	if !rep.Converges || rep.WorstSteps == 0 {
		return nil
	}
	path := []statemodel.Config[S]{rep.WorstStart.Clone()}
	cur := rep.WorstStart
	remaining := rep.WorstSteps
	for remaining > 0 {
		var next statemodel.Config[S]
		c.Successors(cur, nil, func(cand statemodel.Config[S]) bool {
			d := 0
			if !legit(cand) {
				d = dist[c.Encode(cand)]
			}
			if d == remaining-1 {
				next = cand.Clone()
				return false
			}
			return true
		})
		if next == nil {
			panic("check: worst path broke — distances inconsistent")
		}
		path = append(path, next)
		cur = next
		remaining--
	}
	return path
}

// ExportDOT writes the transition graph induced on the configurations
// satisfying keep (e.g. the legitimate set Λ, giving the 3nK-cycle of
// Lemma 1) as a Graphviz DOT digraph. Node labels use the states' String
// methods via %v; edges are distributed-daemon transitions between kept
// configurations. Returns the number of nodes and edges written.
func (c *Checker[S]) ExportDOT(w io.Writer, name string, keep func(statemodel.Config[S]) bool) (nodes, edges int, err error) {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box, fontname=monospace];\n", name)
	c.ForAll(func(cfg statemodel.Config[S]) bool {
		if !keep(cfg) {
			return true
		}
		nodes++
		id := c.Encode(cfg)
		fmt.Fprintf(&b, "  n%d [label=%q];\n", id, fmt.Sprintf("%v", cfg))
		c.Successors(cfg, nil, func(next statemodel.Config[S]) bool {
			if keep(next) {
				edges++
				fmt.Fprintf(&b, "  n%d -> n%d;\n", id, c.Encode(next))
			}
			return true
		})
		return true
	})
	b.WriteString("}\n")
	_, err = io.WriteString(w, b.String())
	return nodes, edges, err
}

// ReachableFrom runs a BFS over distributed-daemon transitions from start,
// restricted to configurations satisfying within, and returns how many
// distinct configurations were visited (including start). The Lemma 1
// proof's part (b) — every legitimate configuration is reachable from γ0 —
// is checked by ReachableFrom(γ0, Legitimate) == |Λ|.
func (c *Checker[S]) ReachableFrom(start statemodel.Config[S], within func(statemodel.Config[S]) bool) uint64 {
	if !within(start) {
		return 0
	}
	seen := map[uint64]bool{c.Encode(start): true}
	queue := []uint64{c.Encode(start)}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		cfg := c.Decode(id)
		c.Successors(cfg, nil, func(next statemodel.Config[S]) bool {
			if !within(next) {
				return true
			}
			nid := c.Encode(next)
			if !seen[nid] {
				seen[nid] = true
				queue = append(queue, nid)
			}
			return true
		})
	}
	return uint64(len(seen))
}
