package bitslice

import (
	"fmt"

	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// SSToken is a 64-lane bit-sliced batch of Dijkstra's K-state token
// ring (internal/dijkstra): digit planes only, one rule per node.
type SSToken struct {
	n, k, planes int
	daemon       DaemonKind

	x    []uint64 // digit planes, x[i*planes : (i+1)*planes]
	kc   []uint64
	inc  []uint64
	save []uint64

	g, en []uint64

	lanes [Lanes]RNG
	// transpose64 scratch: draws holds one word per lane, coins the
	// transposed rows (a step's per-process coins, or in SeedLanes one
	// node's planes).
	draws [Lanes]uint64
	coins [Lanes]uint64
}

// NewSSToken builds an all-zero batch for ring size n and alphabet K
// under the given daemon protocol.
func NewSSToken(n, k int, d DaemonKind) *SSToken {
	if n < 2 || n > Lanes {
		panic(fmt.Sprintf("bitslice: ring size %d outside [2,%d]", n, Lanes))
	}
	if k <= n {
		panic(fmt.Sprintf("bitslice: need K > n, got K=%d n=%d", k, n))
	}
	planes := planesFor(k)
	b := &SSToken{
		n: n, k: k, planes: planes, daemon: d,
		x:    make([]uint64, n*planes),
		kc:   make([]uint64, planes),
		inc:  make([]uint64, planes),
		save: make([]uint64, planes),
		g:    make([]uint64, n),
		en:   make([]uint64, n),
	}
	broadcastK(b.kc, k)
	return b
}

func (b *SSToken) digit(i int) []uint64 { return b.x[i*b.planes : (i+1)*b.planes] }

// SeedLanes samples all 64 lanes, lane L from SeedStream(seed, L) with
// one SampleSSToken draw per node, mirroring the scalar oracle. Like
// SSRmin.SeedLanes it is node-major: one draw per lane per node, then
// one transpose64 of the 64 digits d mod K into the node's planes.
//
//allocgate:hot
func (b *SSToken) SeedLanes(seed int64) {
	for lane := range b.lanes {
		b.lanes[lane] = SeedStream(seed, lane)
	}
	k := uint64(b.k)
	for i := 0; i < b.n; i++ {
		for lane := range b.lanes {
			b.draws[lane] = b.lanes[lane].Next() % k
		}
		transpose64(&b.draws, &b.coins)
		copy(b.digit(i), b.coins[:b.planes])
	}
}

// SetLaneState overwrites node i's state in one lane.
func (b *SSToken) SetLaneState(lane, i int, s dijkstra.State) {
	setDigitLane(b.digit(i), lane, s.X%b.k)
}

// LaneConfig extracts one lane's configuration in scalar form.
func (b *SSToken) LaneConfig(lane int) statemodel.Config[dijkstra.State] {
	c := make(statemodel.Config[dijkstra.State], b.n)
	for i := 0; i < b.n; i++ {
		c[i] = dijkstra.State{X: digitLane(b.digit(i), lane)}
	}
	return c
}

// Step advances every lane by one daemon step and returns the mask of
// deadlocked lanes (always zero for this algorithm: some guard is
// always up on a ring with K ≥ n).
func (b *SSToken) Step() uint64 { return b.step(allLanes, false) }

// LegitMask returns the mask of lanes currently in a legitimate
// (single-token strict-form) configuration.
func (b *SSToken) LegitMask() uint64 { return b.legitMask() }

// Run steps the batch until every lane reaches a legitimate
// configuration or exhausts maxSteps, returning per-lane transition
// counts and the converged mask — matching
// statemodel.Simulator.RunUntil(Legitimate, maxSteps) per lane.
func (b *SSToken) Run(maxSteps int) (steps [Lanes]int, converged uint64) {
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
// active; see SSRmin.step for the two-pass shape. As there, guardsReady
// trusts the guards legitMask left in b.g and may be set only when
// legitMask ran last on the current configuration.
//
//allocgate:hot
func (b *SSToken) step(active uint64, guardsReady bool) (stuck uint64) {
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
		en := b.g[i] & active
		b.en[i] = en
		anyEn |= en
		if subset {
			anySel |= en & b.coins[i]
		}
	}
	stuck = active &^ anyEn

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
		if sel == 0 {
			continue
		}
		var src []uint64
		if i == 0 {
			incModK(b.inc, b.save, b.kc)
			src = b.inc
		} else {
			src = b.digit(i - 1)
		}
		selDigit(b.digit(i), src, sel)
	}
	return stuck
}

// legitMask evaluates dijkstra.Algorithm.Legitimate lane-parallel:
// exactly one guard up, and the strict-form digit condition.
//
//allocgate:hot
func (b *SSToken) legitMask() uint64 {
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
	incModK(b.inc, b.digit(b.n-1), b.kc)
	xok := b.g[0] | eqDigit(b.digit(0), b.inc)
	return exactly & xok
}
