// Package fault injects the transient faults that self-stabilization
// tolerates: corruption of local states (soft errors), corruption of
// neighbor caches (message corruption absorbed into Z_i). All injection
// is deterministic from a seed so that every experiment is reproducible.
package fault

import (
	"math/rand"

	"ssrmin/internal/cst"
	"ssrmin/internal/statemodel"
)

// Injector is a seeded source of faults.
type Injector struct {
	rng *rand.Rand
}

// NewInjector returns an injector with its own RNG stream.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Rand exposes the injector's RNG for custom draw functions.
func (in *Injector) Rand() *rand.Rand { return in.rng }

// Pick draws count distinct positions out of 0..n-1 (count clamped to n):
// the victims of one state corruption, in the order their new states are
// drawn. Every state corruptor picks through it — including executors
// that plan a fault ahead and draw the states themselves — so one seed
// hits the same victims everywhere.
func (in *Injector) Pick(n, count int) []int {
	return in.rng.Perm(n)[:min(count, n)]
}

// PickCache draws the victim of one cache-entry corruption on a ring of
// members members: a position in ring order, then the side (true: the
// successor's cache). The new state is drawn next. CorruptCaches picks through it,
// and so does an executor that cannot inject into caches and discards
// the draws, so one seed hits the same victims everywhere after it.
func (in *Injector) PickCache(members int) (i int, succ bool) {
	return in.rng.Intn(members), in.rng.Intn(2) != 0
}

// CorruptConfig overwrites count distinct random entries of cfg with
// states drawn by draw. It mutates cfg in place and returns the indices
// hit. count is clamped to len(cfg).
func CorruptConfig[S comparable](in *Injector, cfg statemodel.Config[S], count int, draw func(*rand.Rand) S) []int {
	hit := in.Pick(len(cfg), count)
	for _, i := range hit {
		cfg[i] = draw(in.rng)
	}
	return hit
}

// CorruptStates overwrites the local states of count random ring members
// of a CST ring and returns their ids. Only current members are targeted:
// corrupting a node that churn has detached would be invisible (and,
// through a later join, indistinguishable from the joiner's arbitrary
// start state anyway). On a churn-free ring the draws are identical to a
// permutation over all node ids.
func CorruptStates[S comparable](in *Injector, r *cst.Ring[S], count int, draw func(*rand.Rand) S) []int {
	members := r.Members()
	hit := in.Pick(len(members), count)
	for j, mi := range hit {
		hit[j] = members[mi]
		r.Nodes[hit[j]].SetState(draw(in.rng))
	}
	return hit
}

// CorruptCaches overwrites count random cache entries (a random neighbor
// cache of a random member each) of a CST ring. The corrupted slot is one
// of the node's *current* neighbors, so the injection stays valid after
// churn has rewired the ring.
func CorruptCaches[S comparable](in *Injector, r *cst.Ring[S], count int, draw func(*rand.Rand) S) {
	members := r.Members()
	for j := 0; j < count; j++ {
		mi, side := in.PickCache(len(members))
		nd := r.Nodes[members[mi]]
		k, succ := nd.Neighbors()
		if side {
			k = succ
		}
		nd.SetCache(k, draw(in.rng))
	}
}
