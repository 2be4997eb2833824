// Package topo is the ring-membership model that churn rewires: which
// nodes are ring members, who neighbours whom, and which dormant spare
// the next join wakes. The scenario churn plan (internal/scenario), the
// CST ring over msgnet (internal/cst) and the sharded engine
// (internal/runtime) all rewire through one Ring, so a churn script means
// the same topology on every tier and its rules are checked here once:
//
//   - joiners take the ids n, n+1, ... in join order;
//   - node 0, the Dijkstra bottom the stabilization argument hangs on,
//     never leaves;
//   - the ring keeps at least 3 members;
//   - every anchor is a member;
//   - a removal reconnects the ring with one edge.
//
// A rejected change returns an error and leaves the ring as it was.
package topo

import "errors"

// The errors a rejected change returns.
var (
	ErrNotMember = errors.New("topo: not a ring member")
	ErrBottom    = errors.New("topo: removes node 0 (bottom)")
	ErrTooSmall  = errors.New("topo: shrinks the ring below 3 members")
	ErrNoSpare   = errors.New("topo: no dormant spare left to join")
	ErrCount     = errors.New("topo: removal count must be >= 1")
)

// Ring is a bidirectional ring over the ids 0..n+spare-1: n founding
// members in id order, then dormant spares.
type Ring struct {
	// Pred and Succ are each node's predecessor and successor, -1 for a
	// non-member (a spare or a node that left), so Pred[i] >= 0 is
	// membership. Per-event paths index them directly, which needs no
	// cross-package inlining; only Join and Remove write them.
	Pred, Succ []int32
	count      int // members
	spare      int // the id the next Join wakes
}

// New returns the ring 0, 1, ..., n-1 with spare dormant spares.
func New(n, spare int) Ring {
	r := Ring{
		Pred:  make([]int32, n+spare),
		Succ:  make([]int32, n+spare),
		count: n,
		spare: n,
	}
	for i := range r.Pred {
		r.Pred[i], r.Succ[i] = -1, -1
		if i < n {
			r.Pred[i], r.Succ[i] = int32((i-1+n)%n), int32((i+1)%n)
		}
	}
	return r
}

// Count returns the number of members.
func (r *Ring) Count() int { return r.count }

// Members returns the members in ring order, starting at node 0 (which
// never leaves) and following successors.
func (r *Ring) Members() []int {
	out := make([]int, r.count)
	for k, i := 0, 0; k < r.count; k, i = k+1, int(r.Succ[i]) {
		out[k] = i
	}
	return out
}

// member is the anchor rule: i is an id of the ring and a member.
func (r *Ring) member(i int) bool {
	return i >= 0 && i < len(r.Pred) && r.Pred[i] >= 0
}

// Join wakes the next dormant spare j and splices it in between after
// and after's successor b, so the ring reads after, j, b.
func (r *Ring) Join(after int) (j, b int, err error) {
	if !r.member(after) {
		return 0, 0, ErrNotMember
	}
	if r.spare == len(r.Pred) {
		return 0, 0, ErrNoSpare
	}
	j, b = r.spare, int(r.Succ[after])
	r.spare++
	r.count++
	r.Succ[after], r.Pred[j], r.Succ[j], r.Pred[b] = int32(j), int32(after), int32(b), int32(j)
	return j, b, nil
}

// Remove detaches the arc of count consecutive members that starts at
// first and reconnects the ring with the one edge a—b between the arc's
// outer neighbours. It returns a, b and the removed ids in ring order.
func (r *Ring) Remove(first, count int) (a, b int, gone []int, err error) {
	if !r.member(first) {
		return 0, 0, nil, ErrNotMember
	}
	if count < 1 {
		return 0, 0, nil, ErrCount
	}
	if r.count-count < 3 {
		return 0, 0, nil, ErrTooSmall
	}
	gone = make([]int, count)
	b = first
	for k := range gone {
		if b == 0 {
			return 0, 0, nil, ErrBottom
		}
		gone[k], b = b, int(r.Succ[b])
	}
	a = int(r.Pred[first])
	for _, v := range gone {
		r.Pred[v], r.Succ[v] = -1, -1
	}
	r.Succ[a], r.Pred[b] = int32(b), int32(a)
	r.count -= count
	return a, b, gone, nil
}

// Splice is Remove of the count members that follow after. An anchor
// that is not a member has no successor, so it is rejected like one.
func (r *Ring) Splice(after, count int) (a, b int, gone []int, err error) {
	first := -1
	if after >= 0 && after < len(r.Succ) {
		first = int(r.Succ[after])
	}
	return r.Remove(first, count)
}
