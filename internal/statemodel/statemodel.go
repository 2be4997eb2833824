// Package statemodel implements the computational model of the paper:
// guarded-command distributed algorithms on bidirectional ring networks
// under the state-reading communication model and the composite atomicity
// execution model (Section 2.1 of Kakugawa–Kamei–Katayama, IJNC 2022).
//
// An algorithm is a set of prioritized guarded commands per process. A
// configuration is the vector of all local states. At each step a daemon
// (scheduler) selects a nonempty subset of the enabled processes; every
// selected process atomically reads its own state and the states of its two
// ring neighbors, evaluates its highest-priority enabled rule, and writes
// its new local state. All selected processes move simultaneously on the
// *old* configuration, exactly as the relation γt → γt+1 in the paper.
//
// The framework is generic over the local state type S, which must be
// comparable so that configurations can be used as map keys by the
// exhaustive model checker.
package statemodel

import (
	"fmt"

	"ssrmin/internal/obs"
)

// View is the read set of one process in the state-reading model: its own
// local state and the local states of its predecessor (P_{i-1 mod n}) and
// successor (P_{i+1 mod n}). Guards and commands may depend only on a View;
// the type system thus enforces the locality of the model.
type View[S comparable] struct {
	// I is the index of the process owning this view, in [0, N).
	I int
	// N is the ring size.
	N int
	// Self is the local state q_i.
	Self S
	// Pred is the predecessor state q_{i-1 mod n}.
	Pred S
	// Succ is the successor state q_{i+1 mod n}.
	Succ S
}

// Bottom reports whether the view belongs to the distinguished bottom
// process P_0.
func (v View[S]) Bottom() bool { return v.I == 0 }

// Algorithm describes a guarded-command algorithm on a bidirectional ring.
// Rules are numbered 1..Rules() and a smaller number has higher priority:
// EnabledRule must return the smallest enabled rule number, so a process is
// enabled by at most one rule (as in Algorithm 3 of the paper).
type Algorithm[S comparable] interface {
	// Name returns a short human-readable algorithm name.
	Name() string
	// N returns the ring size the algorithm instance is configured for.
	N() int
	// Rules returns the number of rules. Rule identifiers are 1-based.
	Rules() int
	// EnabledRule returns the highest-priority (smallest-numbered) rule
	// whose guard holds in v, or 0 if the process is not enabled.
	EnabledRule(v View[S]) int
	// Apply executes the command of the given rule and returns the new
	// local state. It must be called only with a rule returned by
	// EnabledRule for the same view.
	Apply(v View[S], rule int) S
}

// PositionUniform is the opt-in contract for transition-table compilation.
// An algorithm whose EnabledRule and Apply depend on View.I and View.N only
// through View.Bottom() — i.e. every non-bottom process runs the same code
// over its (pred, self, succ) view — may declare it by implementing the
// marker method. Exhaustive checkers then compile the guards and commands
// into two dense tables (one per position class, bottom and other) indexed
// by TripleIndex, and expand successors by pure integer arithmetic on
// encoded configuration IDs, with no View construction on the hot path.
//
// Declaring PositionUniform for an algorithm that inspects I or N beyond
// Bottom() yields a miscompiled table; internal/check's differential tests
// guard the algorithms of this repository.
type PositionUniform interface {
	// UniformViews is a marker; it must be a no-op.
	UniformViews()
}

// DigitShift is the opt-in contract for the compiled checker's symmetry
// reduction. An algorithm may declare it when
//
//   - its AllStates is digit-major: the q states form K equal blocks
//     ordered by a digit x ∈ {0, …, K−1}, so state index s has digit
//     s / (q/K), and adding q/K to an index (mod q) adds 1 (mod K) to
//     its digit and leaves the rest of the state alone; and
//   - adding the same c mod K to every process's digit maps every step
//     to a step and every legitimate configuration to a legitimate one
//     (for SSRmin and SSToken: the rules read the digit only through
//     x_i = x_{i-1} and x_{n-1}+1 mod K, and Definition 1 holds "for
//     some x").
//
// internal/check then explores one configuration per orbit of the
// shift. Compile verifies the declaration against the compiled tables
// and rejects a wrong one; LegitSet verifies that the orbit of every
// legitimate representative is legitimate.
type DigitShift interface {
	// ShiftOrbit returns K, the number of digit values and hence the
	// size of every orbit.
	ShiftOrbit() int
}

// ViewClasses is the number of position classes a PositionUniform
// algorithm distinguishes: the bottom process (class 0) and everyone else
// (class 1).
const ViewClasses = 2

// ClassView builds a representative View of the given position class over
// explicit neighbor states — the enumeration hook used to compile
// per-class transition tables from a PositionUniform algorithm.
func ClassView[S comparable](class, n int, pred, self, succ S) View[S] {
	return View[S]{I: class, N: n, Self: self, Pred: pred, Succ: succ}
}

// TripleIndex encodes a (pred, self, succ) triple of state indices over a
// q-element state set into a dense index in [0, q³). All compiled
// per-class tables in this repository share this layout.
func TripleIndex(q, pred, self, succ int) int {
	return (pred*q+self)*q + succ
}

// Config is a configuration: the n-tuple of local states (q_0, …, q_{n-1}).
type Config[S comparable] []S

// View builds the read set of process i in configuration c.
func (c Config[S]) View(i int) View[S] {
	n := len(c)
	return View[S]{
		I:    i,
		N:    n,
		Self: c[i],
		Pred: c[(i-1+n)%n],
		Succ: c[(i+1)%n],
	}
}

// Clone returns an independent copy of the configuration.
func (c Config[S]) Clone() Config[S] {
	out := make(Config[S], len(c))
	copy(out, c)
	return out
}

// Move identifies one process executing one rule in a step.
type Move struct {
	// Process is the index of the moving process.
	Process int
	// Rule is the 1-based rule number it executes.
	Rule int
}

func (m Move) String() string { return fmt.Sprintf("P%d/R%d", m.Process, m.Rule) }

// Enabled returns, in increasing process order, the set of enabled moves of
// configuration c under algorithm alg: one Move per enabled process,
// carrying its unique highest-priority enabled rule.
func Enabled[S comparable](alg Algorithm[S], c Config[S]) []Move {
	return appendEnabled(nil, alg, c)
}

// appendEnabled appends the enabled moves of c to moves, in increasing
// process order, and returns the extended slice.
func appendEnabled[S comparable](moves []Move, alg Algorithm[S], c Config[S]) []Move {
	for i := range c {
		if r := alg.EnabledRule(c.View(i)); r != 0 {
			moves = append(moves, Move{Process: i, Rule: r})
		}
	}
	return moves
}

// Apply computes the successor configuration when exactly the processes in
// moves execute their rules simultaneously (composite atomicity: every
// command reads the old configuration). It returns a new configuration and
// leaves c untouched.
//
// Apply panics if a move's rule is not the enabled rule of its process —
// that would mean the daemon invented a transition the model does not have.
func Apply[S comparable](alg Algorithm[S], c Config[S], moves []Move) Config[S] {
	next := make(Config[S], len(c))
	applyInto(next, alg, c, moves)
	return next
}

// applyInto writes the successor of c under moves into next, which must
// have c's length and must not share memory with c: every command reads
// only c, so the moves still execute simultaneously.
func applyInto[S comparable](next Config[S], alg Algorithm[S], c Config[S], moves []Move) {
	copy(next, c)
	for _, m := range moves {
		v := c.View(m.Process)
		if got := alg.EnabledRule(v); got != m.Rule {
			panic(fmt.Sprintf("statemodel: process %d: move claims rule %d but enabled rule is %d",
				m.Process, m.Rule, got))
		}
		next[m.Process] = alg.Apply(v, m.Rule)
	}
}

// Daemon is a process scheduler. Given the nonempty set of enabled moves of
// the current configuration it selects a nonempty subset to execute. The
// returned slice must be a subset of enabled (same Move values); Step
// verifies this.
//
// A daemon may return enabled itself or a buffer it owns and reuses, so
// a selection is valid only until the next Select call; a caller that
// keeps one copies it, as trace.Recorder does.
//
// The daemons of the paper are all expressible: the central daemon returns
// exactly one move, the distributed daemon any nonempty subset. Unfairness
// is the default — nothing obliges a daemon to ever pick a continuously
// enabled process.
type Daemon interface {
	// Name returns a short scheduler name for reports.
	Name() string
	// Select picks a nonempty subset of enabled. enabled is never empty
	// and is in increasing process order. Implementations must not
	// retain or mutate the enabled slice.
	Select(enabled []Move) []Move
}

// Simulator drives an execution γ0, γ1, … of an algorithm under a daemon.
//
// Step itself allocates nothing: it writes each successor into a spare
// configuration buffer and swaps the two, and it reuses one slice for the
// enabled moves and one stamp per process for validating the daemon's
// selection.
type Simulator[S comparable] struct {
	alg    Algorithm[S]
	daemon Daemon
	cfg    Config[S]
	spare  Config[S] // the buffer the next successor is written into
	steps  int

	enabled []Move     // Step's enabled moves, reused every step
	stamp   []selStamp // validateSelection's marks, one per process
	gen     uint64     // validateSelection's current mark generation

	// OnStep, when non-nil, is invoked after every transition with the
	// step index (1 for the first transition), the moves executed, and the
	// resulting configuration. Both slices are the simulator's own
	// buffers and are valid only during the call: hooks must not mutate
	// them, and a hook that keeps either copies it.
	OnStep func(step int, moves []Move, cfg Config[S])

	// Obs, when non-nil, receives one step record and one rule-fired
	// event per executed move; the event time is the step index. Install
	// it before running.
	Obs *obs.Observer
}

// NewSimulator returns a simulator positioned at the initial configuration
// init. The initial configuration is copied.
func NewSimulator[S comparable](alg Algorithm[S], d Daemon, init Config[S]) *Simulator[S] {
	if alg.N() != len(init) {
		panic(fmt.Sprintf("statemodel: algorithm ring size %d != configuration length %d", alg.N(), len(init)))
	}
	n := len(init)
	return &Simulator[S]{
		alg: alg, daemon: d, cfg: init.Clone(), spare: make(Config[S], n),
		enabled: make([]Move, 0, n), stamp: make([]selStamp, n),
	}
}

// Config returns a copy of the current configuration.
func (s *Simulator[S]) Config() Config[S] { return s.cfg.Clone() }

// Steps returns the number of transitions executed so far.
func (s *Simulator[S]) Steps() int { return s.steps }

// Algorithm returns the simulated algorithm.
func (s *Simulator[S]) Algorithm() Algorithm[S] { return s.alg }

// Enabled returns the enabled moves of the current configuration.
func (s *Simulator[S]) Enabled() []Move { return Enabled(s.alg, s.cfg) }

// Step performs one transition. It returns the executed moves and true, or
// nil and false when no process is enabled (a deadlock — which Lemma 4 of
// the paper rules out for SSRmin, but other algorithms may reach one).
// The returned moves are the daemon's selection, valid until the next
// Step.
//
//allocgate:hot
func (s *Simulator[S]) Step() ([]Move, bool) {
	s.enabled = appendEnabled(s.enabled[:0], s.alg, s.cfg)
	if len(s.enabled) == 0 {
		return nil, false
	}
	sel := s.daemon.Select(s.enabled)
	s.validateSelection(s.enabled, sel)
	applyInto(s.spare, s.alg, s.cfg, sel)
	s.cfg, s.spare = s.spare, s.cfg
	s.steps++
	if s.Obs != nil {
		t := float64(s.steps)
		s.Obs.Step(t, len(sel))
		for _, m := range sel {
			s.Obs.RuleFired(t, m.Process, m.Rule)
		}
	}
	if s.OnStep != nil {
		s.OnStep(s.steps, sel, s.cfg)
	}
	return sel, true
}

// RunUntil steps the simulation until pred holds for the current
// configuration or maxSteps further transitions were made. It returns the
// number of transitions performed by this call and whether pred was
// reached. The predicate is also checked before the first step, so a call
// on an already-satisfying configuration returns (0, true).
func (s *Simulator[S]) RunUntil(pred func(Config[S]) bool, maxSteps int) (int, bool) {
	done := 0
	for {
		if pred(s.cfg) {
			return done, true
		}
		if done >= maxSteps {
			return done, false
		}
		if _, ok := s.Step(); !ok {
			return done, false
		}
		done++
	}
}

// Run performs exactly maxSteps transitions (or fewer on deadlock) and
// returns the number performed.
func (s *Simulator[S]) Run(maxSteps int) int {
	done := 0
	for done < maxSteps {
		if _, ok := s.Step(); !ok {
			break
		}
		done++
	}
	return done
}

// selStamp marks one process for validateSelection: gen is the mark
// generation that last touched it, rule its enabled rule in that step.
type selStamp struct {
	gen  uint64
	rule int
}

// validateSelection panics unless sel is a nonempty subset of enabled
// without repeats. Each call takes two fresh mark generations, so no
// stamp needs clearing: gen−1 marks the enabled processes, gen the
// selected ones.
func (s *Simulator[S]) validateSelection(enabled, sel []Move) {
	if len(sel) == 0 {
		panic("statemodel: daemon selected the empty set")
	}
	s.gen += 2
	for _, m := range enabled {
		s.stamp[m.Process] = selStamp{gen: s.gen - 1, rule: m.Rule}
	}
	for _, m := range sel {
		if m.Process < 0 || m.Process >= len(s.stamp) ||
			s.stamp[m.Process].gen < s.gen-1 || s.stamp[m.Process].rule != m.Rule {
			panic(fmt.Sprintf("statemodel: daemon selected %v which is not enabled", m))
		}
		if s.stamp[m.Process].gen == s.gen {
			panic(fmt.Sprintf("statemodel: daemon selected %v twice", m))
		}
		s.stamp[m.Process].gen = s.gen
	}
}
