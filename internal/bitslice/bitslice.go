// Package bitslice compiles the SSRmin and SSToken state-reading rules
// into bit-sliced form: each component of a node's state is stored as
// ⌈log₂K⌉ planes of uint64, and each of the 64 bit lanes carries one
// independent seeded Monte-Carlo run, so a single guard/assign pass over
// the ring advances 64 configurations at once.
//
// The batch path is bit-identical, per lane, to running the scalar
// internal/statemodel simulator 64 times: every lane owns a splitmix64
// stream (SeedStream) that the scalar oracle consumes draw-for-draw —
// one draw per node for initial sampling, one draw per step for the
// subset daemon's selection coins. The differential tests and the
// FuzzBitsliceStep target hold the two paths to exact equality; the
// scalar runners in scalar.go are the oracle.
//
// Seeding is node-major: SeedLanes advances the 64 lane streams
// together, one draw per lane per node, and turns each node's 64 draws
// into its planes with one 64×64 bit transpose (transpose64, the same
// routine that turns the subset daemon's per-lane draws into
// per-process coins). Every lane still consumes its draws in node
// order, so the scalar oracle's per-lane sampling is unchanged.
//
// Lane-masked convergence detection retires lanes individually: a done
// mask freezes converged (or exhausted) lanes while the batch keeps
// stepping the rest, and per-lane step counts come back ready for
// internal/stats summaries. Run checks legitimacy before every step, and
// legitMask already computes every node's Dijkstra guard on the
// configuration the step reads, so Run's steps take those guards instead
// of recomputing them; the public Step computes its own.
package bitslice

import (
	"math/bits"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
)

// Lanes is the batch width: one Monte-Carlo run per bit of a uint64.
const Lanes = 64

// allLanes is the mask with every lane live.
const allLanes = ^uint64(0)

// DaemonKind selects the scheduler protocol shared by the batch kernels
// and their scalar oracle twins.
type DaemonKind int

const (
	// Synchronous activates every enabled process each step and draws
	// nothing from the lane streams (the scalar twin is
	// daemon.Synchronous).
	Synchronous DaemonKind = iota
	// Subset is the distributed unfair daemon: one draw per lane per
	// step, bit i of the draw is process i's inclusion coin, and an
	// empty pick falls back to all enabled processes (the scalar twin is
	// SubsetDaemon in this package). Requires n ≤ 64.
	Subset
)

// String names the daemon kind for reports.
func (d DaemonKind) String() string {
	if d == Synchronous {
		return "synchronous"
	}
	return "subset"
}

// RNG is a splitmix64 stream. The zero value is a valid (seed-0) stream,
// but lanes are normally created through SeedStream so that batch and
// scalar runs agree on the stream per (seed, lane) pair.
type RNG struct {
	s uint64
}

// Next advances the stream and returns the next 64 uniform bits.
//
//allocgate:hot
func (r *RNG) Next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix64 is the splitmix64 finalizer, used to decorrelate lane streams:
// without it, streams seeded at golden-ratio offsets of one another are
// the same sequence shifted by a few positions.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SeedStream returns lane `lane`'s stream for a batch seeded with seed.
// The scalar oracle calls this with the same pair to replay one lane.
func SeedStream(seed int64, lane int) RNG {
	return RNG{s: mix64(uint64(seed)^0x8CB92BA72F3D8DD7) ^ mix64(uint64(lane)*0xD1B54A32D192ED03+0x2545F4914F6CDD1D)}
}

// SampleSSRmin draws one SSRmin node state: X uniform in [0,K) from the
// low bits, RTS and TRA from the top two bits. Exactly one draw per node
// keeps batch seeding and scalar seeding in lockstep.
func SampleSSRmin(r *RNG, k int) core.State {
	d := r.Next()
	return core.State{X: int(d % uint64(k)), RTS: d>>62&1 == 1, TRA: d>>63 == 1}
}

// SampleSSToken draws one SSToken node state (X uniform in [0,K)).
func SampleSSToken(r *RNG, k int) dijkstra.State {
	d := r.Next()
	return dijkstra.State{X: int(d % uint64(k))}
}

// transpose64 transposes the 64×64 bit matrix in (the classic recursive
// block swap): out[i] bit L = in[L] bit i. It converts 64 per-lane
// daemon draws into 64 per-process lane masks, and 64 per-lane seeding
// draws into per-node digit planes and flag words.
//
// Stage j (32, 16, …, 1) swaps the upper j-bit blocks of row r with the
// lower j-bit blocks of row r+j, for every row r whose bit j is clear.
// The six stages run as three passes of two: each pass loads four rows
// closed under both of its stages' pairings, swaps them in registers and
// stores them once. Shifts and masks are constants and every row index
// is provably in 0..63, so the compiler emits no bounds checks. The
// first pass reads in and writes out, so in and out may be one array.
//
//allocgate:hot
func transpose64(in, out *[Lanes]uint64) {
	for i := 0; i < 16; i++ {
		a, b, c, d := in[i], in[i+16], in[i+32], in[i+48]
		a, c = blockSwap(a, c, 32, 0x00000000FFFFFFFF)
		b, d = blockSwap(b, d, 32, 0x00000000FFFFFFFF)
		a, b = blockSwap(a, b, 16, 0x0000FFFF0000FFFF)
		c, d = blockSwap(c, d, 16, 0x0000FFFF0000FFFF)
		out[i], out[i+16], out[i+32], out[i+48] = a, b, c, d
	}
	for i := 0; i < 16; i++ {
		r := (i&^3<<2 | i&3) & 63
		a, b, c, d := out[r], out[r|4], out[r|8], out[r|12]
		a, c = blockSwap(a, c, 8, 0x00FF00FF00FF00FF)
		b, d = blockSwap(b, d, 8, 0x00FF00FF00FF00FF)
		a, b = blockSwap(a, b, 4, 0x0F0F0F0F0F0F0F0F)
		c, d = blockSwap(c, d, 4, 0x0F0F0F0F0F0F0F0F)
		out[r], out[r|4], out[r|8], out[r|12] = a, b, c, d
	}
	for i := 0; i < 16; i++ {
		r := i << 2 & 63
		a, b, c, d := out[r], out[r|1], out[r|2], out[r|3]
		a, c = blockSwap(a, c, 2, 0x3333333333333333)
		b, d = blockSwap(b, d, 2, 0x3333333333333333)
		a, b = blockSwap(a, b, 1, 0x5555555555555555)
		c, d = blockSwap(c, d, 1, 0x5555555555555555)
		out[r], out[r|1], out[r|2], out[r|3] = a, b, c, d
	}
}

// blockSwap exchanges the j-bit blocks of lo selected by m<<j with the
// blocks of hi selected by m: one step of the transpose's block swap.
// It inlines into transpose64, where j and m are constants.
//
//allocgate:hot
func blockSwap(lo, hi uint64, j uint, m uint64) (uint64, uint64) {
	t := (lo>>j ^ hi) & m
	return lo ^ t<<j, hi ^ t
}

// planesFor returns the number of bit planes needed to store digits in
// [0, k).
func planesFor(k int) int {
	if k < 2 {
		return 1
	}
	return bits.Len(uint(k - 1))
}

// eqDigit returns the lane mask where the two digits (planes a and b,
// same length) are equal: the AND over planes of XNOR.
//
//allocgate:hot
func eqDigit(a, b []uint64) uint64 {
	m := allLanes
	for p := range a {
		m &= ^(a[p] ^ b[p])
	}
	return m
}

// fillGuards writes into g, one word per node, the lane mask of each
// node's Dijkstra guard over the digit planes x (planes words per node,
// len(g) nodes): node 0 is enabled where its digit equals its
// predecessor's, every other node where the two differ. Both kernels'
// legitMask and step read their guards from here.
//
//allocgate:hot
func fillGuards(g, x []uint64, planes int) {
	n := len(g)
	g[0] = eqDigit(x[:planes], x[(n-1)*planes:n*planes])
	for i := 1; i < n; i++ {
		g[i] = ^eqDigit(x[i*planes:(i+1)*planes], x[(i-1)*planes:i*planes])
	}
}

// incModK writes (src+1) mod K into dst, where kc holds the broadcast
// planes of K: a ripple-carry increment truncated to the plane width,
// then a reset to zero on the lanes whose result equals K. When K is
// exactly 2^planes the truncated K constant is zero and the wrap has
// already happened through the discarded carry, so the reset is a
// harmless no-op on the correct lanes either way; digits stay < K as
// long as they start < K.
//
//allocgate:hot
func incModK(dst, src, kc []uint64) {
	carry := allLanes
	eqK := allLanes
	for p := range src {
		dst[p] = src[p] ^ carry
		carry &= src[p]
		eqK &= ^(dst[p] ^ kc[p])
	}
	for p := range dst {
		dst[p] &^= eqK
	}
}

// selDigit overwrites dst's planes with src's on the lanes in m,
// leaving the other lanes untouched.
//
//allocgate:hot
func selDigit(dst, src []uint64, m uint64) {
	for p := range dst {
		dst[p] = (dst[p] &^ m) | (src[p] & m)
	}
}

// broadcastK fills planes with the broadcast constant K (every lane
// holds the same digit).
func broadcastK(planes []uint64, k int) {
	for p := range planes {
		if k>>uint(p)&1 == 1 {
			planes[p] = allLanes
		} else {
			planes[p] = 0
		}
	}
}

// setDigitLane overwrites lane `lane`'s digit across the planes with v;
// used by the SetLaneState helpers.
func setDigitLane(planes []uint64, lane, v int) {
	m := uint64(1) << uint(lane)
	for p := range planes {
		if v>>uint(p)&1 == 1 {
			planes[p] |= m
		} else {
			planes[p] &^= m
		}
	}
}

// digitLane reads lane `lane`'s digit out of the planes.
func digitLane(planes []uint64, lane int) int {
	v := 0
	for p := range planes {
		v |= int(planes[p]>>uint(lane)&1) << uint(p)
	}
	return v
}

// setFlagLane sets or clears lane `lane` in a one-word flag row.
func setFlagLane(row *uint64, lane int, v bool) {
	m := uint64(1) << uint(lane)
	if v {
		*row |= m
	} else {
		*row &^= m
	}
}

// forEachLane invokes f(lane) for every set bit in mask, cheapest-first.
func forEachLane(mask uint64, f func(lane int)) {
	for m := mask; m != 0; m &= m - 1 {
		f(bits.TrailingZeros64(m))
	}
}
