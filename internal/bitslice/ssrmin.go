package bitslice

import (
	"fmt"

	"ssrmin/internal/core"
	"ssrmin/internal/statemodel"
)

// SSRmin is a 64-lane bit-sliced batch of the paper's SSRmin algorithm.
// X digits live plane-transposed (planes words per node, bit L of plane
// p = bit p of lane L's digit); the RTS and TRA flags are one word per
// node. All buffers are allocated once in NewSSRmin; stepping is pure
// word arithmetic.
type SSRmin struct {
	n, k, planes int
	daemon       DaemonKind

	x   []uint64 // digit planes, x[i*planes : (i+1)*planes]
	rts []uint64 // one word per node
	tra []uint64

	kc   []uint64 // broadcast planes of the constant K
	inc  []uint64 // scratch digit: incremented predecessor
	save []uint64 // scratch digit: node n-1's pre-step value

	// Per-node rule masks of the step in flight: guard, enabled,
	// rules R1/R3 (flag writers), and R2|R4 (the X writers).
	g, en, r1, r3, cmd []uint64

	lanes [Lanes]RNG
	// transpose64 scratch: draws holds one word per lane, coins the
	// transposed rows (a step's per-process coins, or in SeedLanes one
	// node's planes and flags).
	draws [Lanes]uint64
	coins [Lanes]uint64
}

// NewSSRmin builds an all-zero batch for ring size n and alphabet K
// under the given daemon protocol. Seed lanes with SeedLanes (or poke
// states with SetLaneState) before running.
func NewSSRmin(n, k int, d DaemonKind) *SSRmin {
	if n < 3 || n > Lanes {
		panic(fmt.Sprintf("bitslice: ring size %d outside [3,%d]", n, Lanes))
	}
	if k <= n {
		panic(fmt.Sprintf("bitslice: need K > n, got K=%d n=%d", k, n))
	}
	if uint64(k) > 1<<62 {
		// SeedLanes packs the digit below the RTS/TRA bits 62 and 63.
		panic(fmt.Sprintf("bitslice: need K ≤ 2^62, got K=%d", k))
	}
	planes := planesFor(k)
	b := &SSRmin{
		n: n, k: k, planes: planes, daemon: d,
		x:    make([]uint64, n*planes),
		rts:  make([]uint64, n),
		tra:  make([]uint64, n),
		kc:   make([]uint64, planes),
		inc:  make([]uint64, planes),
		save: make([]uint64, planes),
		g:    make([]uint64, n),
		en:   make([]uint64, n),
		r1:   make([]uint64, n),
		r3:   make([]uint64, n),
		cmd:  make([]uint64, n),
	}
	broadcastK(b.kc, k)
	return b
}

// N returns the ring size.
func (b *SSRmin) N() int { return b.n }

// K returns the digit alphabet size.
func (b *SSRmin) K() int { return b.k }

// digit returns node i's plane slice.
func (b *SSRmin) digit(i int) []uint64 { return b.x[i*b.planes : (i+1)*b.planes] }

// SeedLanes samples all 64 lanes' initial configurations, lane L from
// SeedStream(seed, L) with one SampleSSRmin draw per node — exactly the
// draws the scalar oracle makes — and leaves each lane's stream
// positioned for the daemon coins of step one.
//
// Seeding is node-major: the 64 streams advance together, one draw per
// lane per node, so each lane still sees its draws in node order. Each
// draw is packed as d mod K in the low bits plus its RTS and TRA bits
// (62 and 63) in place, and one transpose64 per node turns the 64
// packed draws into the node's digit planes (rows 0..planes-1) and its
// rts and tra words (rows 62 and 63).
//
//allocgate:hot
func (b *SSRmin) SeedLanes(seed int64) {
	for lane := range b.lanes {
		b.lanes[lane] = SeedStream(seed, lane)
	}
	k := uint64(b.k)
	for i := 0; i < b.n; i++ {
		for lane := range b.lanes {
			d := b.lanes[lane].Next()
			b.draws[lane] = d%k | d&(3<<62)
		}
		transpose64(&b.draws, &b.coins)
		copy(b.digit(i), b.coins[:b.planes])
		b.rts[i], b.tra[i] = b.coins[62], b.coins[63]
	}
}

// SetLaneState overwrites node i's state in one lane.
func (b *SSRmin) SetLaneState(lane, i int, s core.State) {
	setDigitLane(b.digit(i), lane, s.X%b.k)
	setFlagLane(&b.rts[i], lane, s.RTS)
	setFlagLane(&b.tra[i], lane, s.TRA)
}

// LaneConfig extracts one lane's configuration in scalar form.
func (b *SSRmin) LaneConfig(lane int) statemodel.Config[core.State] {
	c := make(statemodel.Config[core.State], b.n)
	for i := 0; i < b.n; i++ {
		c[i] = core.State{
			X:   digitLane(b.digit(i), lane),
			RTS: b.rts[i]>>uint(lane)&1 == 1,
			TRA: b.tra[i]>>uint(lane)&1 == 1,
		}
	}
	return c
}

// Step advances every lane by one daemon step and returns the mask of
// lanes that had no enabled process (deadlocked lanes, untouched).
func (b *SSRmin) Step() uint64 { return b.step(allLanes, false) }

// LegitMask returns the mask of lanes currently in a legitimate
// configuration (the exact predicate of core.Algorithm.Legitimate).
func (b *SSRmin) LegitMask() uint64 { return b.legitMask() }

// Run seeds nothing and steps the batch until every lane either reaches
// a legitimate configuration, deadlocks, or exhausts maxSteps. It
// returns each lane's transition count at retirement — matching
// statemodel.Simulator.RunUntil(Legitimate, maxSteps) draw-for-draw —
// and the mask of lanes that converged.
func (b *SSRmin) Run(maxSteps int) (steps [Lanes]int, converged uint64) {
	var done uint64
	for t := 0; ; t++ {
		legit := b.legitMask()
		newly := legit &^ done
		forEachLane(newly, func(lane int) { steps[lane] = t })
		done |= newly
		converged |= newly
		if done == allLanes {
			return steps, converged
		}
		if t >= maxSteps {
			forEachLane(^done, func(lane int) { steps[lane] = maxSteps })
			return steps, converged
		}
		stuck := b.step(^done, true) &^ done
		forEachLane(stuck, func(lane int) { steps[lane] = t })
		done |= stuck
		if done == allLanes {
			return steps, converged
		}
	}
}

// step performs one composite-atomicity daemon step on the lanes in
// active. Pass 1 reads the old configuration into per-node rule masks
// and accumulates the subset daemon's selection try; pass 2 commits,
// walking the ring descending (with node n-1's old digit stashed) so
// every command still reads pre-step neighbor digits in place. Returns
// the active lanes with no enabled process.
//
// Pass 1 reads each node's Dijkstra guard from b.g. Without
// guardsReady, step fills b.g first. With it, step trusts b.g as
// legitMask left it: set it only when legitMask ran last on the current
// configuration, as in Run, because any step or SetLaneState in between
// leaves b.g stale.
//
//allocgate:hot
func (b *SSRmin) step(active uint64, guardsReady bool) (stuck uint64) {
	n := b.n
	subset := b.daemon == Subset
	if subset {
		for lane := range b.draws {
			b.draws[lane] = b.lanes[lane].Next()
		}
		transpose64(&b.draws, &b.coins)
	}
	if !guardsReady {
		fillGuards(b.g, b.x, b.planes)
	}

	var anyEn, anySel uint64
	for i := 0; i < n; i++ {
		pred, succ := i-1, i+1
		if i == 0 {
			pred = n - 1
		}
		if succ == n {
			succ = 0
		}
		g := b.g[i]
		sR, sT := b.rts[i], b.tra[i]
		pR, pT := b.rts[pred], b.tra[pred]
		nR, nT := b.rts[succ], b.tra[succ]

		self10 := sR &^ sT
		self01 := sT &^ sR
		self00 := ^(sR | sT)
		succ01 := nT &^ nR
		pred10 := pR &^ pT

		r1 := g &^ self10
		r2 := g & self10 & succ01
		r4 := g & self10 &^ succ01 &^ (^(pR | pT) & ^(nR | nT))
		r3 := ^g & pred10 &^ self01
		r5 := ^g &^ r3 &^ self00 &^ (pred10 & self01)

		en := (r1 | r2 | r3 | r4 | r5) & active
		b.en[i] = en
		b.r1[i], b.r3[i] = r1, r3
		b.cmd[i] = r2 | r4
		anyEn |= en
		if subset {
			anySel |= en & b.coins[i]
		}
	}
	stuck = active &^ anyEn

	// Lanes whose coin pick selected nothing fall back to every enabled
	// process; the synchronous daemon always takes everything enabled.
	fallback := allLanes
	if subset {
		fallback = anyEn &^ anySel
	}

	copy(b.save, b.digit(n-1))
	for i := n - 1; i >= 0; i-- {
		sel := b.en[i]
		if subset {
			sel &= b.coins[i] | fallback
		}
		b.rts[i] = (b.rts[i] &^ sel) | (sel & b.r1[i])
		b.tra[i] = (b.tra[i] &^ sel) | (sel & b.r3[i])
		if m := sel & b.cmd[i]; m != 0 {
			var src []uint64
			if i == 0 {
				incModK(b.inc, b.save, b.kc)
				src = b.inc
			} else {
				src = b.digit(i - 1)
			}
			selDigit(b.digit(i), src, m)
		}
	}
	return stuck
}

// legitMask evaluates core.Algorithm.Legitimate lane-parallel: exactly
// one Dijkstra guard, the strict-form digit condition, and no handshake
// violation anywhere on the ring.
//
//allocgate:hot
func (b *SSRmin) legitMask() uint64 {
	n := b.n
	fillGuards(b.g, b.x, b.planes)
	var seen, two uint64
	for _, g := range b.g {
		two |= seen & g
		seen |= g
	}
	exactly := seen &^ two
	if exactly == 0 {
		return 0
	}

	// Handshake discipline: every node outside {holder, holder's
	// successor} is ⟨0.0⟩; the holder is ⟨0.1⟩ or ⟨1.0⟩; a holder at
	// ⟨0.1⟩ demands successor ⟨0.0⟩, a holder at ⟨1.0⟩ allows successor
	// ⟨0.0⟩ or ⟨0.1⟩.
	var viol uint64
	for i := 0; i < n; i++ {
		pred, succ := i-1, i+1
		if i == 0 {
			pred = n - 1
		}
		if succ == n {
			succ = 0
		}
		g, hp := b.g[i], b.g[pred]
		sR, sT := b.rts[i], b.tra[i]
		nR, nT := b.rts[succ], b.tra[succ]
		p01 := sT &^ sR
		p10 := sR &^ sT
		viol |= ^g &^ hp & (sR | sT)
		viol |= g &^ (p01 | p10)
		viol |= g & p01 & (nR | nT)
		viol |= g & p10 & nR
	}

	// Strict form: with the unique guard at holder h > 0 the ring is
	// (A,…,A,B,…,B) with x₀ = A, xₙ₋₁ = B, and legitimacy needs
	// A = B+1 mod K; a guard at node 0 means a constant ring, which is
	// always in strict form.
	incModK(b.inc, b.digit(n-1), b.kc)
	xok := b.g[0] | eqDigit(b.digit(0), b.inc)
	return exactly & xok &^ viol
}
