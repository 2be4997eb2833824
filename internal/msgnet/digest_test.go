// Digest test of the event engine: the full tap stream — every send,
// suppression, loss, corruption, duplication, delivery and timer, with
// exact timestamps — plus the final stats and clock of 40 seeded storms,
// hashed and compared with testdata/digests/msgnet-taps.sha256. The
// digest was recorded from the boxed container/heap engine the arena
// replaced, so it pins the (at, seq) pop order and the send() draw order
// that engine defined.
package msgnet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/digest"
	"ssrmin/internal/fault"
	"ssrmin/internal/msgnet"
)

// runStorm drives a CST ring of the paper's SSRmin algorithm through a
// lossy, jittery, duplicating, corrupting network — every coin and both
// event kinds exercised, plus mid-run state/cache faults — and returns
// the full tap stream, final stats and clock. Seeds above 32 run on
// jitter-free links, where deliveries, duplicates and timers fall due at
// equal times, so the trace depends on the (at, seq) tie-break. A nil
// arena runs on the network's own.
func runStorm(seed int64, arena *msgnet.Arena[core.State]) ([]msgnet.TapEvent, msgnet.Stats, msgnet.Time) {
	const n = 5
	const k = n + 1
	alg := core.New(n, k)
	draw := func(r *rand.Rand) core.State {
		return core.State{X: r.Intn(k), RTS: r.Intn(2) == 1, TRA: r.Intn(2) == 1}
	}
	jitter := msgnet.Time(0.003)
	if seed > 32 {
		jitter = 0
	}
	r := cst.NewRing[core.State](alg, alg.InitialLegitimate(), cst.Options[core.State]{
		Link: msgnet.LinkParams{
			Delay: 0.01, Jitter: jitter,
			LossProb: 0.1, DupProb: 0.2, CorruptProb: 0.05,
		},
		Refresh:        0.05,
		Seed:           seed,
		CoherentCaches: false,
		RandomState:    draw,
		Arena:          arena,
	})
	r.Net.Corrupt = func(rng *rand.Rand, payload core.State) core.State { return draw(rng) }

	var taps []msgnet.TapEvent
	r.Net.Tap = func(e msgnet.TapEvent) { taps = append(taps, e) }

	inj := fault.NewInjector(seed + 1)
	r.Net.Run(1.0)
	fault.CorruptStates(inj, r, 2, draw)
	r.Net.Run(2.0)
	fault.CorruptCaches(inj, r, n, draw)
	r.Net.Run(3.0)
	return taps, r.Net.Stats(), r.Net.Now()
}

// TestEnginesProduceIdenticalTapStreams pins the tap streams, stats and
// clocks of 40 seeded storms to testdata/digests/msgnet-taps.sha256,
// failing first if a seed leaves a network behaviour unexercised.
func TestEnginesProduceIdenticalTapStreams(t *testing.T) {
	h := digest.New()
	for seed := int64(1); seed <= 40; seed++ {
		taps, stats, now := runStorm(seed, nil)
		if stats.Lost == 0 || stats.Duplicated == 0 || stats.Corrupted == 0 || stats.Suppressed == 0 {
			t.Fatalf("seed %d exercised too few behaviours to pin: %+v", seed, stats)
		}
		for _, e := range taps {
			fmt.Fprintf(h, "%+v\n", e)
		}
		fmt.Fprintf(h, "seed %d: %+v now=%v\n", seed, stats, now)
	}
	digest.Check(t, "msgnet-taps.sha256", digest.Sum(h))
}

// TestArenaReuseAcrossRunsIsDeterministic pins the reset-not-reallocate
// contract: a simulation on a recycled arena (UseArena after a previous,
// different run) behaves bit-identically to one on a fresh arena.
func TestArenaReuseAcrossRunsIsDeterministic(t *testing.T) {
	fresh3, _, _ := runStorm(3, nil)
	arena := msgnet.NewArena[core.State]()
	runStorm(17, arena) // dirty the arena with an unrelated simulation
	reused3, _, _ := runStorm(3, arena)
	if len(fresh3) != len(reused3) {
		t.Fatalf("recycled arena emitted %d tap events, fresh %d", len(reused3), len(fresh3))
	}
	for i := range fresh3 {
		if fresh3[i] != reused3[i] {
			t.Fatalf("recycled arena diverges at event %d: fresh %+v, reused %+v",
				i, fresh3[i], reused3[i])
		}
	}
	if arena.Cap() == 0 {
		t.Fatal("arena never grew; the reuse test exercised nothing")
	}
}
