// Package check is an exhaustive model checker for guarded-command ring
// algorithms under the unfair distributed daemon. For small instances it
// explores the full configuration space Γ = Q^n and verifies the paper's
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
//
// A Checker is one instance's state codec: it numbers the configurations
// with dense IDs (Encode, Decode). Every pass runs on the Engine that
// Checker.Compile builds from it over compiled transition tables
// (tables.go, engine.go).
package check

import (
	"fmt"

	"ssrmin/internal/statemodel"
)

// Space is an algorithm whose local-state set can be enumerated, enabling
// exhaustive exploration.
type Space[S comparable] interface {
	statemodel.Algorithm[S]
	// AllStates returns every possible local state.
	AllStates() []S
}

// Checker numbers the configurations of one algorithm instance; Compile
// builds the engine that explores them.
type Checker[S comparable] struct {
	alg    Space[S]
	states []S
	index  map[S]int
	n      int
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
