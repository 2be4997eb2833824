// Package compose runs several independent instances of a ring algorithm
// side by side in one local state — the construction behind two of the
// paper's discussion points:
//
//   - The multi-token baseline of Figure 12: several Dijkstra rings
//     circulating independently still reach instants with zero tokens in
//     the message-passing model.
//   - A (m, 2m)-critical-section system (cf. the (ℓ,k)-CS family of
//     Kakugawa 2015, reference [9]): m SSRmin instances guarantee between
//     m and 2m privilege grants at every instant of the state-reading
//     execution, because each instance guarantees 1–2.
//
// A composed process moves all of its enabled instances simultaneously
// when the daemon schedules it; the instances never read each other's
// state, so each projection is a faithful execution of the inner
// algorithm under a (derived) daemon.
//
// The instance count is bounded by MaxInstances so that the composed
// state stays a comparable fixed-size array (usable as map keys by the
// model checker).
package compose

import (
	"fmt"

	"ssrmin/internal/statemodel"
)

// MaxInstances bounds the number of composed instances.
const MaxInstances = 4

// MultiState carries one inner state per instance; entries past the
// instance count hold the zero value.
type MultiState[S comparable] struct {
	// V holds the per-instance local states.
	V [MaxInstances]S
}

// Multi composes m independent instances of one algorithm.
type Multi[S comparable] struct {
	inner statemodel.Algorithm[S]
	m     int
}

var _ statemodel.Algorithm[MultiState[int]] = (*Multi[int])(nil)

// New composes m instances of inner (1 ≤ m ≤ MaxInstances).
func New[S comparable](inner statemodel.Algorithm[S], m int) *Multi[S] {
	if m < 1 || m > MaxInstances {
		panic(fmt.Sprintf("compose: instance count %d out of [1,%d]", m, MaxInstances))
	}
	return &Multi[S]{inner: inner, m: m}
}

// Name implements statemodel.Algorithm.
func (c *Multi[S]) Name() string { return fmt.Sprintf("%s×%d", c.inner.Name(), c.m) }

// N implements statemodel.Algorithm.
func (c *Multi[S]) N() int { return c.inner.N() }

// M returns the instance count.
func (c *Multi[S]) M() int { return c.m }

// Rules implements statemodel.Algorithm: the rule number is a nonempty
// bitmask over instances — bit j set means instance j executes its own
// (unique, highest-priority) enabled rule.
func (c *Multi[S]) Rules() int { return 1<<c.m - 1 }

// Project extracts instance j's view from a composed view.
func (c *Multi[S]) Project(v statemodel.View[MultiState[S]], j int) statemodel.View[S] {
	if j < 0 || j >= c.m {
		panic(fmt.Sprintf("compose: instance %d out of range", j))
	}
	return statemodel.View[S]{
		I:    v.I,
		N:    v.N,
		Self: v.Self.V[j],
		Pred: v.Pred.V[j],
		Succ: v.Succ.V[j],
	}
}

// EnabledRule implements statemodel.Algorithm: the mask of instances whose
// inner algorithm is enabled (0 when none is).
func (c *Multi[S]) EnabledRule(v statemodel.View[MultiState[S]]) int {
	mask := 0
	for j := 0; j < c.m; j++ {
		if c.inner.EnabledRule(c.Project(v, j)) != 0 {
			mask |= 1 << j
		}
	}
	return mask
}

// Apply implements statemodel.Algorithm: every instance in the mask
// executes its own enabled rule against the old composed view.
func (c *Multi[S]) Apply(v statemodel.View[MultiState[S]], rule int) MultiState[S] {
	if rule <= 0 || rule >= 1<<c.m {
		panic(fmt.Sprintf("compose: bad rule mask %d", rule))
	}
	next := v.Self
	for j := 0; j < c.m; j++ {
		if rule&(1<<j) == 0 {
			continue
		}
		pv := c.Project(v, j)
		ir := c.inner.EnabledRule(pv)
		if ir == 0 {
			panic(fmt.Sprintf("compose: instance %d in mask but not enabled", j))
		}
		next.V[j] = c.inner.Apply(pv, ir)
	}
	return next
}

// Pack assembles a composed configuration from per-instance
// configurations. All inner configurations must have length n; missing
// instances (len(inners) < m is an error) are rejected.
func (c *Multi[S]) Pack(inners ...statemodel.Config[S]) statemodel.Config[MultiState[S]] {
	if len(inners) != c.m {
		panic(fmt.Sprintf("compose: Pack got %d configurations, want %d", len(inners), c.m))
	}
	n := c.N()
	out := make(statemodel.Config[MultiState[S]], n)
	for j, cfg := range inners {
		if len(cfg) != n {
			panic(fmt.Sprintf("compose: instance %d configuration has length %d, want %d", j, len(cfg), n))
		}
		for i := 0; i < n; i++ {
			out[i].V[j] = cfg[i]
		}
	}
	return out
}

// Unpack splits a composed configuration into per-instance configurations.
func (c *Multi[S]) Unpack(cfg statemodel.Config[MultiState[S]]) []statemodel.Config[S] {
	out := make([]statemodel.Config[S], c.m)
	for j := 0; j < c.m; j++ {
		inner := make(statemodel.Config[S], len(cfg))
		for i := range cfg {
			inner[i] = cfg[i].V[j]
		}
		out[j] = inner
	}
	return out
}

// HoldersAny returns the processes holding a token in at least one
// instance, per the inner holder predicate.
func (c *Multi[S]) HoldersAny(cfg statemodel.Config[MultiState[S]], holder func(statemodel.View[S]) bool) []int {
	var out []int
	for i := range cfg {
		v := cfg.View(i)
		for j := 0; j < c.m; j++ {
			if holder(c.Project(v, j)) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Grants counts privilege grants with multiplicity: the number of
// (process, instance) pairs whose inner holder predicate is true.
func (c *Multi[S]) Grants(cfg statemodel.Config[MultiState[S]], holder func(statemodel.View[S]) bool) int {
	count := 0
	for i := range cfg {
		v := cfg.View(i)
		for j := 0; j < c.m; j++ {
			if holder(c.Project(v, j)) {
				count++
			}
		}
	}
	return count
}

// HoldersOf returns the token holders of instance j.
func (c *Multi[S]) HoldersOf(cfg statemodel.Config[MultiState[S]], j int, holder func(statemodel.View[S]) bool) []int {
	var out []int
	for i := range cfg {
		if holder(c.Project(cfg.View(i), j)) {
			out = append(out, i)
		}
	}
	return out
}

// Enumerable is implemented by inner algorithms whose states can be
// enumerated; the composed AllStates is the m-fold product (beware: it
// grows as |S|^m).
type Enumerable[S comparable] interface {
	AllStates() []S
}

// AllStates enumerates the composed state space when the inner algorithm
// is Enumerable; it panics otherwise.
func (c *Multi[S]) AllStates() []MultiState[S] {
	en, ok := c.inner.(Enumerable[S])
	if !ok {
		panic("compose: inner algorithm does not enumerate its states")
	}
	inner := en.AllStates()
	out := []MultiState[S]{{}}
	for j := 0; j < c.m; j++ {
		var next []MultiState[S]
		for _, ms := range out {
			for _, s := range inner {
				ms.V[j] = s
				next = append(next, ms)
			}
		}
		out = next
	}
	return out
}
