// Incremental holder tracking: the census and separation monitors of the
// deterministic tiers read their inputs from a holderTracker instead of
// rescanning every node after every event, and the live tier's
// separation monitor reads the holder bits its privilege predicate
// records.
package crosscheck

import (
	"ssrmin/internal/core"
	"ssrmin/internal/statemodel"
)

// Holder bits of one node.
const (
	bitPrimary uint8 = 1 << iota
	bitSecondary
)

// holderBits evaluates the token predicates on one view.
func holderBits(v statemodel.View[core.State]) uint8 {
	var b uint8
	if core.HasPrimary(v) {
		b |= bitPrimary
	}
	if core.HasSecondary(v) {
		b |= bitSecondary
	}
	return b
}

// holderTracker keeps every node's primary/secondary bits and, per token,
// the holder count and the XOR of the holders' ids — with exactly one
// holder that XOR is the holder itself, which is all the separation
// monitor needs. The census is the number of nodes holding either token
// (core.HasToken is primary ∨ secondary).
//
// Callers mark the nodes whose view may have changed since the last
// refresh; refresh re-evaluates only those, so an observation costs O(1)
// plus the marked nodes and allocates nothing.
type holderTracker struct {
	bits   []uint8
	marked []bool
	dirty  []int32
	all    bool // every node is marked

	census            int
	nPrimary, nSecond int
	xPrimary, xSecond int

	// pos is each member's index in ring order (-1 for non-members) and
	// size the member count; setMembers maintains both.
	pos  []int32
	size int
}

// newHolderTracker returns a tracker over nodes ids with every node
// marked, so the first refresh evaluates the whole configuration.
func newHolderTracker(nodes int) *holderTracker {
	return &holderTracker{
		bits:   make([]uint8, nodes),
		marked: make([]bool, nodes),
		dirty:  make([]int32, 0, nodes),
		all:    true,
		pos:    make([]int32, nodes),
	}
}

// mark schedules node i for re-evaluation.
func (h *holderTracker) mark(i int) {
	if h.all || h.marked[i] {
		return
	}
	h.marked[i] = true
	h.dirty = append(h.dirty, int32(i))
}

// markAll schedules every node (faults and churn).
func (h *holderTracker) markAll() { h.all = true }

// refresh re-evaluates the marked nodes with eval and clears the marks.
func (h *holderTracker) refresh(eval func(i int) uint8) {
	for _, i := range h.dirty {
		h.marked[i] = false
		if !h.all {
			h.set(int(i), eval(int(i)))
		}
	}
	h.dirty = h.dirty[:0]
	if h.all {
		h.all = false
		for i := range h.bits {
			h.set(i, eval(i))
		}
	}
}

// set records node i's bits, updating the counts and XORs.
func (h *holderTracker) set(i int, b uint8) {
	old := h.bits[i]
	if old == b {
		return
	}
	h.bits[i] = b
	if (old^b)&bitPrimary != 0 {
		h.xPrimary ^= i
		h.nPrimary += delta(b & bitPrimary)
	}
	if (old^b)&bitSecondary != 0 {
		h.xSecond ^= i
		h.nSecond += delta(b & bitSecondary)
	}
	if (old == 0) != (b == 0) {
		h.census += delta(b)
	}
}

// delta is +1 for a gained bit and -1 for a lost one.
func delta(gained uint8) int {
	if gained != 0 {
		return 1
	}
	return -1
}

// singletons returns the primary and secondary holders, or -1 for a token
// without exactly one holder.
func (h *holderTracker) singletons() (primary, secondary int) {
	primary, secondary = -1, -1
	if h.nPrimary == 1 {
		primary = h.xPrimary
	}
	if h.nSecond == 1 {
		secondary = h.xSecond
	}
	return primary, secondary
}

// setMembers records the ring membership in ring order.
func (h *holderTracker) setMembers(members []int) {
	for i := range h.pos {
		h.pos[i] = -1
	}
	for idx, id := range members {
		h.pos[id] = int32(idx)
	}
	h.size = len(members)
}

// distance is ringDistance over the recorded membership.
func (h *holderTracker) distance(a, b int) int {
	ia, ib := int(h.pos[a]), int(h.pos[b])
	if ia < 0 || ib < 0 {
		return -1
	}
	return hops(ia, ib, h.size)
}

// observeTracked refreshes the tracker and feeds one instant to the census
// checker and the separation monitor.
func observeTracked(t float64, h *holderTracker, eval func(int) uint8, chk *censusChecker, sep *SeparationMonitor) {
	h.refresh(eval)
	chk.observe(t, h.census)
	if p, s := h.singletons(); p >= 0 && s >= 0 {
		sep.observe(t, p, s, h.distance(p, s))
	}
}

// liveHolders records the holder bits of the live tier's nodes. Its holds
// method is the privilege predicate installed on the engine, which
// evaluates it on every view change: at start-up, on a joiner's wake and
// after every event that touches a node's state or caches. A member's
// bits therefore always describe its current view, and a tick reads the
// holders from them instead of re-evaluating every view.
type liveHolders struct {
	bits []uint8
}

func newLiveHolders(nodes int) *liveHolders {
	return &liveHolders{bits: make([]uint8, nodes)}
}

// holds is core.HasToken, recording the bits of the view's node. With
// more than one worker the engine calls it concurrently, each worker on
// the nodes of its own arc, so every node's bits have one writer.
func (l *liveHolders) holds(v statemodel.View[core.State]) bool {
	b := holderBits(v)
	l.bits[v.I] = b
	return b != 0
}

// observe feeds one instant to the separation monitor: the primary and
// secondary holders among members (the membership in ring order), when
// each token has exactly one.
func (l *liveHolders) observe(t float64, members []int, sep *SeparationMonitor) {
	var nPrimary, nSecond, ip, is int
	for idx, id := range members {
		b := l.bits[id]
		if b&bitPrimary != 0 {
			nPrimary++
			ip = idx
		}
		if b&bitSecondary != 0 {
			nSecond++
			is = idx
		}
	}
	if nPrimary == 1 && nSecond == 1 {
		sep.observe(t, members[ip], members[is], hops(ip, is, len(members)))
	}
}
