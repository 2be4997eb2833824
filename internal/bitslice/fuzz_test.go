package bitslice

import (
	"slices"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// FuzzBitsliceStep throws random ring sizes, alphabets, daemon kinds,
// and state corruptions at both batch kernels and steps them against 64
// scalar simulators; any divergence is reported with the offending lane
// as the witness. Pokes corrupt states after seeding (in both paths
// identically), so the kernels are exercised on arbitrary lane states,
// not just sampled ones.
func FuzzBitsliceStep(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), true, uint8(5), []byte{})
	f.Add(int64(42), uint8(5), uint8(3), false, uint8(9), []byte{0x03, 0x01, 0xc7})
	f.Add(int64(-7), uint8(13), uint8(7), true, uint8(3), []byte{0x3f, 0x00, 0x80, 0x11, 0x02, 0x41})
	f.Add(int64(1<<40), uint8(0), uint8(1), true, uint8(11), []byte{0x20, 0x03, 0x05})

	f.Fuzz(func(t *testing.T, seed int64, nb, kb uint8, subset bool, stepsB uint8, pokes []byte) {
		n := 3 + int(nb%14)    // 3..16
		k := n + 1 + int(kb%8) // n+1..n+8
		steps := 1 + int(stepsB%12)
		kind := Synchronous
		if subset {
			kind = Subset
		}

		fuzzSSRminStep(t, n, k, kind, seed, steps, pokes)
		fuzzSSTokenStep(t, n, k, kind, seed, steps, pokes)
	})
}

func fuzzSSRminStep(t *testing.T, n, k int, kind DaemonKind, seed int64, steps int, pokes []byte) {
	alg := core.New(n, k)
	b := NewSSRmin(n, k, kind)
	b.SeedLanes(seed)

	inits := make([]statemodel.Config[core.State], Lanes)
	rngs := make([]RNG, Lanes)
	for lane := 0; lane < Lanes; lane++ {
		rng := SeedStream(seed, lane)
		init := make(statemodel.Config[core.State], n)
		for i := range init {
			init[i] = SampleSSRmin(&rng, k)
		}
		inits[lane], rngs[lane] = init, rng
	}
	for j := 0; j+2 < len(pokes) && j < 30; j += 3 {
		lane := int(pokes[j]) % Lanes
		node := int(pokes[j+1]) % n
		s := core.State{X: int(pokes[j+2]&0x3f) % k, RTS: pokes[j+2]&0x40 != 0, TRA: pokes[j+2]&0x80 != 0}
		b.SetLaneState(lane, node, s)
		inits[lane][node] = s
	}

	sims := make([]*statemodel.Simulator[core.State], Lanes)
	for lane := 0; lane < Lanes; lane++ {
		sims[lane] = statemodel.NewSimulator[core.State](alg, scalarDaemon(kind, &rngs[lane]), inits[lane])
	}
	for s := 0; s < steps; s++ {
		legit := b.LegitMask()
		for lane := 0; lane < Lanes; lane++ {
			if got, want := legit>>uint(lane)&1 == 1, alg.Legitimate(sims[lane].Config()); got != want {
				t.Fatalf("ssrmin n=%d K=%d %v step %d: lane %d legit mask %v, scalar %v",
					n, k, kind, s, lane, got, want)
			}
		}
		if stuck := b.Step(); stuck != 0 {
			t.Fatalf("ssrmin n=%d K=%d step %d: deadlock mask %#x", n, k, s, stuck)
		}
		for lane := 0; lane < Lanes; lane++ {
			if _, ok := sims[lane].Step(); !ok {
				t.Fatalf("ssrmin n=%d K=%d step %d: lane %d scalar deadlock", n, k, s, lane)
			}
			if got, want := b.LaneConfig(lane), sims[lane].Config(); !slices.Equal(got, want) {
				t.Fatalf("ssrmin n=%d K=%d %v step %d: lane %d diverged\n batch:  %v\n scalar: %v",
					n, k, kind, s, lane, got, want)
			}
		}
	}
}

func fuzzSSTokenStep(t *testing.T, n, k int, kind DaemonKind, seed int64, steps int, pokes []byte) {
	alg := dijkstra.New(n, k)
	b := NewSSToken(n, k, kind)
	b.SeedLanes(seed)

	inits := make([]statemodel.Config[dijkstra.State], Lanes)
	rngs := make([]RNG, Lanes)
	for lane := 0; lane < Lanes; lane++ {
		rng := SeedStream(seed, lane)
		init := make(statemodel.Config[dijkstra.State], n)
		for i := range init {
			init[i] = SampleSSToken(&rng, k)
		}
		inits[lane], rngs[lane] = init, rng
	}
	for j := 0; j+2 < len(pokes) && j < 30; j += 3 {
		lane := int(pokes[j]) % Lanes
		node := int(pokes[j+1]) % n
		s := dijkstra.State{X: int(pokes[j+2]) % k}
		b.SetLaneState(lane, node, s)
		inits[lane][node] = s
	}

	sims := make([]*statemodel.Simulator[dijkstra.State], Lanes)
	for lane := 0; lane < Lanes; lane++ {
		sims[lane] = statemodel.NewSimulator[dijkstra.State](alg, scalarDaemon(kind, &rngs[lane]), inits[lane])
	}
	for s := 0; s < steps; s++ {
		legit := b.LegitMask()
		for lane := 0; lane < Lanes; lane++ {
			if got, want := legit>>uint(lane)&1 == 1, alg.Legitimate(sims[lane].Config()); got != want {
				t.Fatalf("sstoken n=%d K=%d %v step %d: lane %d legit mask %v, scalar %v",
					n, k, kind, s, lane, got, want)
			}
		}
		if stuck := b.Step(); stuck != 0 {
			t.Fatalf("sstoken n=%d K=%d step %d: deadlock mask %#x", n, k, s, stuck)
		}
		for lane := 0; lane < Lanes; lane++ {
			if _, ok := sims[lane].Step(); !ok {
				t.Fatalf("sstoken n=%d K=%d step %d: lane %d scalar deadlock", n, k, s, lane)
			}
			if got, want := b.LaneConfig(lane), sims[lane].Config(); !slices.Equal(got, want) {
				t.Fatalf("sstoken n=%d K=%d %v step %d: lane %d diverged\n batch:  %v\n scalar: %v",
					n, k, kind, s, lane, got, want)
			}
		}
	}
}
