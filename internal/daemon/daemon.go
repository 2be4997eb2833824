// Package daemon provides schedulers ("daemons") for the state-reading
// execution model of internal/statemodel.
//
// The paper assumes the *unfair distributed daemon*: at every step an
// adversary may activate any nonempty subset of the enabled processes, and
// it owes no fairness to anybody — a continuously enabled process may be
// starved forever. Correctness claims therefore quantify over all daemons.
// This package supplies the daemons the experiments exercise:
//
//   - Central (exactly one process per step): round-robin, random,
//     lowest-index, highest-index.
//   - Synchronous (every enabled process moves).
//   - RandomSubset (each enabled process tossed in with probability p).
//   - RuleBiased (prefers or avoids given rule numbers — the adversary of
//     Lemma 5 that stalls Dijkstra-moves as long as possible).
//   - Starver (永久 starves a fixed victim set whenever legally possible —
//     a canonical unfairness witness).
//   - Seq (replays a scripted selection sequence — used by golden tests to
//     reproduce the exact executions of Figures 1 and 4).
//
// All randomized daemons take an explicit *rand.Rand so that every
// experiment is reproducible from its seed.
//
// Select allocates nothing once warmed up: each daemon writes its
// selection into a buffer it owns (Synchronous returns enabled itself),
// so a selection is valid only until the daemon's next Select call.
package daemon

import (
	"fmt"
	"math/rand"

	"ssrmin/internal/statemodel"
)

// Central activates exactly one enabled process per step, chosen by a
// pluggable picker. It models the central daemon of the paper.
type Central struct {
	name string
	pick func(enabled []statemodel.Move) statemodel.Move
	buf  [1]statemodel.Move
}

// Name implements statemodel.Daemon.
func (c *Central) Name() string { return c.name }

// Select implements statemodel.Daemon.
//
//allocgate:hot
func (c *Central) Select(enabled []statemodel.Move) []statemodel.Move {
	c.buf[0] = c.pick(enabled)
	return c.buf[:]
}

// NewCentralRandom returns a central daemon choosing uniformly at random.
func NewCentralRandom(rng *rand.Rand) *Central {
	return &Central{
		name: "central-random",
		pick: func(enabled []statemodel.Move) statemodel.Move {
			return enabled[rng.Intn(len(enabled))]
		},
	}
}

// NewCentralLowest returns a central daemon always choosing the enabled
// process with the lowest index.
func NewCentralLowest() *Central {
	return &Central{
		name: "central-lowest",
		pick: func(enabled []statemodel.Move) statemodel.Move { return enabled[0] },
	}
}

// Synchronous activates every enabled process at every step. It is the
// maximal distributed daemon and the usual worst case for token-count
// arguments.
type Synchronous struct{}

// Name implements statemodel.Daemon.
func (Synchronous) Name() string { return "synchronous" }

// Select implements statemodel.Daemon: the selection is enabled itself.
//
//allocgate:hot
func (Synchronous) Select(enabled []statemodel.Move) []statemodel.Move {
	return enabled
}

// RandomSubset includes each enabled process independently with probability
// P; if the coin flips leave the set empty it falls back to one uniformly
// random process, because a daemon must select a nonempty set.
type RandomSubset struct {
	rng *rand.Rand
	// P is the inclusion probability of each enabled process.
	P   float64
	buf []statemodel.Move
}

// NewRandomSubset returns a distributed daemon with inclusion probability p.
func NewRandomSubset(rng *rand.Rand, p float64) *RandomSubset {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("daemon: inclusion probability %v out of [0,1]", p))
	}
	return &RandomSubset{rng: rng, P: p}
}

// Name implements statemodel.Daemon.
func (d *RandomSubset) Name() string { return fmt.Sprintf("distributed-random(p=%.2f)", d.P) }

// Select implements statemodel.Daemon.
//
//allocgate:hot
func (d *RandomSubset) Select(enabled []statemodel.Move) []statemodel.Move {
	d.buf = d.buf[:0]
	for _, m := range enabled {
		if d.rng.Float64() < d.P {
			d.buf = append(d.buf, m)
		}
	}
	if len(d.buf) == 0 {
		d.buf = append(d.buf, enabled[d.rng.Intn(len(enabled))])
	}
	return d.buf
}

// RuleBiased is an adversarial distributed daemon over rule numbers: if any
// enabled move executes a rule in Prefer, it selects exactly the preferred
// moves; only when every enabled move is non-preferred does it fall back to
// a single arbitrary move. With Prefer = {1, 3, 5} for SSRmin it realizes
// the executions of Lemma 5 that delay the Dijkstra part (Rules 2 and 4) as
// long as possible.
type RuleBiased struct {
	// Prefer is the set of rule numbers to run eagerly.
	Prefer map[int]bool
	rng    *rand.Rand
	buf    []statemodel.Move
}

// NewRuleBiased returns a RuleBiased daemon preferring the given rules.
func NewRuleBiased(rng *rand.Rand, prefer ...int) *RuleBiased {
	set := make(map[int]bool, len(prefer))
	for _, r := range prefer {
		set[r] = true
	}
	return &RuleBiased{Prefer: set, rng: rng}
}

// Name implements statemodel.Daemon.
func (d *RuleBiased) Name() string { return fmt.Sprintf("rule-biased%v", keys(d.Prefer)) }

// Select implements statemodel.Daemon.
//
//allocgate:hot
func (d *RuleBiased) Select(enabled []statemodel.Move) []statemodel.Move {
	d.buf = d.buf[:0]
	for _, m := range enabled {
		if d.Prefer[m.Rule] {
			d.buf = append(d.buf, m)
		}
	}
	if len(d.buf) == 0 {
		d.buf = append(d.buf, enabled[d.rng.Intn(len(enabled))])
	}
	return d.buf
}

// Starver is an unfairness witness: it never activates a process in the
// victim set while any non-victim is enabled. Only when the victims are the
// only enabled processes does it grudgingly activate one of them. Under an
// unfair daemon an algorithm must converge even against this scheduler.
type Starver struct {
	// Victims holds the starved process indices.
	Victims map[int]bool
	rng     *rand.Rand
	buf     []statemodel.Move
}

// NewStarver returns a Starver daemon for the given victim processes.
func NewStarver(rng *rand.Rand, victims ...int) *Starver {
	set := make(map[int]bool, len(victims))
	for _, v := range victims {
		set[v] = true
	}
	return &Starver{Victims: set, rng: rng}
}

// Name implements statemodel.Daemon.
func (d *Starver) Name() string { return fmt.Sprintf("starver%v", keys(d.Victims)) }

// Select implements statemodel.Daemon.
//
//allocgate:hot
func (d *Starver) Select(enabled []statemodel.Move) []statemodel.Move {
	d.buf = d.buf[:0]
	for _, m := range enabled {
		if !d.Victims[m.Process] {
			d.buf = append(d.buf, m)
		}
	}
	if len(d.buf) == 0 {
		d.buf = append(d.buf, enabled[d.rng.Intn(len(enabled))])
	}
	return d.buf
}

func keys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	// Insertion-sort for determinism of names; the sets are tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
