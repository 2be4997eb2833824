package bitslice

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// naiveTranspose64 is the per-bit reference: out[i] bit L = in[L] bit i.
func naiveTranspose64(in *[Lanes]uint64) (out [Lanes]uint64) {
	for i := 0; i < Lanes; i++ {
		for l := 0; l < Lanes; l++ {
			out[i] |= (in[l] >> uint(i) & 1) << uint(l)
		}
	}
	return out
}

// TestTranspose64 pins the bit-matrix orientation against the naive
// per-bit transpose: exhaustively over every single-bit matrix (one per
// (row, bit) pair, so every source bit is traced to its destination),
// plus the identity, all-ones and 1,000 random matrices.
func TestTranspose64(t *testing.T) {
	check := func(in *[Lanes]uint64, what string) {
		t.Helper()
		var out [Lanes]uint64
		transpose64(in, &out)
		if want := naiveTranspose64(in); out != want {
			t.Fatalf("transpose64 wrong on %s", what)
		}
	}
	for row := 0; row < Lanes; row++ {
		for bit := 0; bit < Lanes; bit++ {
			var in [Lanes]uint64
			in[row] = 1 << uint(bit)
			check(&in, fmt.Sprintf("single bit (row %d, bit %d)", row, bit))
		}
	}
	var id, ones [Lanes]uint64
	for i := range id {
		id[i], ones[i] = 1<<uint(i), allLanes
	}
	check(&id, "identity")
	check(&ones, "all ones")
	r := SeedStream(7, 0)
	for m := 0; m < 1000; m++ {
		var in [Lanes]uint64
		for i := range in {
			in[i] = r.Next()
		}
		check(&in, fmt.Sprintf("random matrix %d", m))
	}
}

// seedKs is the alphabet set the seeding test covers at ring size n:
// the smallest legal K, the power of two filling all planes of n+1
// (where the digit mod K uses every plane bit), one past it (one plane
// more, mostly unused), and a wide K.
func seedKs(n int) []int {
	p := 1 << uint(planesFor(n+1))
	ks := []int{n + 1}
	if p != n+1 {
		ks = append(ks, p)
	}
	return append(ks, p+1, 1000)
}

// TestNewSSRminRejectsHugeK pins SeedLanes' packing precondition: the
// digit sits below the RTS/TRA bits 62 and 63, so NewSSRmin refuses an
// alphabet larger than 2^62.
func TestNewSSRminRejectsHugeK(t *testing.T) {
	if uint64(math.MaxInt) <= 1<<62 {
		t.Skip("int cannot hold K > 2^62")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSSRmin accepted K = MaxInt")
		}
	}()
	NewSSRmin(3, math.MaxInt, Subset)
}

// TestSeedLanesMatchesPerLane holds the node-major SeedLanes to the
// per-lane reference: lane L sampled node by node from SeedStream(seed,
// L) through SampleSSRmin/SampleSSToken and poked in with SetLaneState.
// Every digit plane, every flag word and every lane's final stream must
// agree, the last so that step one's daemon coins are unchanged.
func TestSeedLanesMatchesPerLane(t *testing.T) {
	const seed = 31
	for n := 3; n <= Lanes; n++ {
		for _, k := range seedKs(n) {
			got, want := NewSSRmin(n, k, Subset), NewSSRmin(n, k, Subset)
			got.SeedLanes(seed)
			for lane := 0; lane < Lanes; lane++ {
				r := SeedStream(seed, lane)
				for i := 0; i < n; i++ {
					want.SetLaneState(lane, i, SampleSSRmin(&r, k))
				}
				want.lanes[lane] = r
			}
			for i := range want.x {
				if got.x[i] != want.x[i] {
					t.Fatalf("ssrmin n=%d K=%d: node %d plane %d = %#x, want %#x",
						n, k, i/want.planes, i%want.planes, got.x[i], want.x[i])
				}
			}
			for i := 0; i < n; i++ {
				if got.rts[i] != want.rts[i] || got.tra[i] != want.tra[i] {
					t.Fatalf("ssrmin n=%d K=%d: node %d flags (rts %#x, tra %#x), want (%#x, %#x)",
						n, k, i, got.rts[i], got.tra[i], want.rts[i], want.tra[i])
				}
			}
			if got.lanes != want.lanes {
				t.Fatalf("ssrmin n=%d K=%d: lane streams end at a different position", n, k)
			}
		}
	}
	for n := 2; n <= Lanes; n++ {
		for _, k := range seedKs(n) {
			got, want := NewSSToken(n, k, Subset), NewSSToken(n, k, Subset)
			got.SeedLanes(seed)
			for lane := 0; lane < Lanes; lane++ {
				r := SeedStream(seed, lane)
				for i := 0; i < n; i++ {
					want.SetLaneState(lane, i, SampleSSToken(&r, k))
				}
				want.lanes[lane] = r
			}
			for i := range want.x {
				if got.x[i] != want.x[i] {
					t.Fatalf("sstoken n=%d K=%d: node %d plane %d = %#x, want %#x",
						n, k, i/want.planes, i%want.planes, got.x[i], want.x[i])
				}
			}
			if got.lanes != want.lanes {
				t.Fatalf("sstoken n=%d K=%d: lane streams end at a different position", n, k)
			}
		}
	}
}

// TestIncModK sweeps every digit for several alphabets, including the
// power-of-two case where the truncated K constant is zero.
func TestIncModK(t *testing.T) {
	for _, k := range []int{5, 8, 9, 16, 17, 33} {
		planes := planesFor(k)
		src := make([]uint64, planes)
		dst := make([]uint64, planes)
		kc := make([]uint64, planes)
		broadcastK(kc, k)
		for v := 0; v < k; v++ {
			for lane := 0; lane < Lanes; lane++ {
				setDigitLane(src, lane, (v+lane)%k)
			}
			incModK(dst, src, kc)
			for lane := 0; lane < Lanes; lane++ {
				want := ((v+lane)%k + 1) % k
				if got := digitLane(dst, lane); got != want {
					t.Fatalf("K=%d lane=%d: inc(%d) = %d, want %d", k, lane, (v+lane)%k, got, want)
				}
			}
		}
	}
}

// TestRNGMatchesScalarStream checks SeedStream determinism and lane
// decorrelation (no two of the first lanes share their first draws).
func TestRNGMatchesScalarStream(t *testing.T) {
	seen := map[uint64]int{}
	for lane := 0; lane < Lanes; lane++ {
		a, b := SeedStream(42, lane), SeedStream(42, lane)
		if a.Next() != b.Next() || a.Next() != b.Next() {
			t.Fatalf("lane %d: SeedStream not deterministic", lane)
		}
		c := SeedStream(42, lane)
		first := c.Next()
		if prev, dup := seen[first]; dup {
			t.Fatalf("lanes %d and %d share their first draw", prev, lane)
		}
		seen[first] = lane
	}
}

// checkLane compares one extracted lane against a scalar configuration.
func checkLaneSSRmin(t *testing.T, b *SSRmin, lane int, want statemodel.Config[core.State], at string) {
	t.Helper()
	got := b.LaneConfig(lane)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: lane %d diverged\n batch:  %v\n scalar: %v", at, lane, got, want)
	}
}

// TestSSRminMatchesScalar steps seeded batches against 64 scalar
// simulators configuration-for-configuration, and checks the legitimacy
// mask against core.Algorithm.Legitimate at every step.
func TestSSRminMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		n, k  int
		kind  DaemonKind
		seed  int64
		steps int
	}{
		{5, 7, Subset, 1, 120},
		{5, 8, Synchronous, 2, 120},
		{8, 16, Subset, 3, 80},
		{13, 17, Subset, 4, 60},
		{64, 65, Subset, 5, 25},
	} {
		alg := core.New(tc.n, tc.k)
		b := NewSSRmin(tc.n, tc.k, tc.kind)
		b.SeedLanes(tc.seed)

		sims := make([]*statemodel.Simulator[core.State], Lanes)
		for lane := 0; lane < Lanes; lane++ {
			rng := SeedStream(tc.seed, lane)
			init := make(statemodel.Config[core.State], tc.n)
			for i := range init {
				init[i] = SampleSSRmin(&rng, tc.k)
			}
			r := rng // pin the stream copy for this lane's daemon
			sims[lane] = statemodel.NewSimulator[core.State](alg, scalarDaemon(tc.kind, &r), init)
			checkLaneSSRmin(t, b, lane, init, "seeding")
		}
		for s := 0; s < tc.steps; s++ {
			legit := b.LegitMask()
			for lane := 0; lane < Lanes; lane++ {
				if got, want := legit>>uint(lane)&1 == 1, alg.Legitimate(sims[lane].Config()); got != want {
					t.Fatalf("n=%d step %d lane %d: legit mask %v, scalar %v", tc.n, s, lane, got, want)
				}
			}
			if stuck := b.Step(); stuck != 0 {
				t.Fatalf("n=%d step %d: unexpected deadlock mask %#x", tc.n, s, stuck)
			}
			for lane := 0; lane < Lanes; lane++ {
				if _, ok := sims[lane].Step(); !ok {
					t.Fatalf("n=%d step %d lane %d: scalar deadlock", tc.n, s, lane)
				}
				checkLaneSSRmin(t, b, lane, sims[lane].Config(), "stepping")
			}
		}
	}
}

// TestSSTokenMatchesScalar is the SSToken twin of the test above.
func TestSSTokenMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		n, k  int
		kind  DaemonKind
		seed  int64
		steps int
	}{
		{5, 7, Subset, 11, 120},
		{5, 8, Synchronous, 12, 120},
		{9, 16, Subset, 13, 80},
		{64, 66, Subset, 14, 25},
	} {
		alg := dijkstra.New(tc.n, tc.k)
		b := NewSSToken(tc.n, tc.k, tc.kind)
		b.SeedLanes(tc.seed)

		sims := make([]*statemodel.Simulator[dijkstra.State], Lanes)
		for lane := 0; lane < Lanes; lane++ {
			rng := SeedStream(tc.seed, lane)
			init := make(statemodel.Config[dijkstra.State], tc.n)
			for i := range init {
				init[i] = SampleSSToken(&rng, tc.k)
			}
			r := rng
			sims[lane] = statemodel.NewSimulator[dijkstra.State](alg, scalarDaemon(tc.kind, &r), init)
			if !slices.Equal(b.LaneConfig(lane), init) {
				t.Fatalf("n=%d lane %d: seeding diverged", tc.n, lane)
			}
		}
		for s := 0; s < tc.steps; s++ {
			legit := b.LegitMask()
			for lane := 0; lane < Lanes; lane++ {
				if got, want := legit>>uint(lane)&1 == 1, alg.Legitimate(sims[lane].Config()); got != want {
					t.Fatalf("n=%d step %d lane %d: legit mask %v, scalar %v", tc.n, s, lane, got, want)
				}
			}
			if stuck := b.Step(); stuck != 0 {
				t.Fatalf("n=%d step %d: unexpected deadlock mask %#x", tc.n, s, stuck)
			}
			for lane := 0; lane < Lanes; lane++ {
				if _, ok := sims[lane].Step(); !ok {
					t.Fatalf("n=%d step %d lane %d: scalar deadlock", tc.n, s, lane)
				}
				if got, want := b.LaneConfig(lane), sims[lane].Config(); !slices.Equal(got, want) {
					t.Fatalf("n=%d step %d lane %d diverged\n batch:  %v\n scalar: %v", tc.n, s, lane, got, want)
				}
			}
		}
	}
}

// TestRunMatchesScalarRunUntil pins the whole convergence loop — step
// counts and converged flags — against RunUntil per lane, for both
// algorithms and both daemons.
func TestRunMatchesScalarRunUntil(t *testing.T) {
	for _, kind := range []DaemonKind{Synchronous, Subset} {
		for _, seed := range []int64{1, 99} {
			n, k := 8, 12
			bound := core.New(n, k).ConvergenceStepBound()
			b := NewSSRmin(n, k, kind)
			b.SeedLanes(seed)
			steps, converged := b.Run(bound)
			for lane := 0; lane < Lanes; lane++ {
				ws, wok := ScalarSSRminRun(n, k, kind, seed, lane, bound)
				if steps[lane] != ws || (converged>>uint(lane)&1 == 1) != wok {
					t.Fatalf("ssrmin %v seed %d lane %d: batch (%d,%v) scalar (%d,%v)",
						kind, seed, lane, steps[lane], converged>>uint(lane)&1 == 1, ws, wok)
				}
			}

			d := NewSSToken(n, k, kind)
			d.SeedLanes(seed)
			dBound := 3 * dijkstra.New(n, k).ConvergenceBound()
			dSteps, dConv := d.Run(dBound)
			for lane := 0; lane < Lanes; lane++ {
				ws, wok := ScalarSSTokenRun(n, k, kind, seed, lane, dBound)
				if dSteps[lane] != ws || (dConv>>uint(lane)&1 == 1) != wok {
					t.Fatalf("sstoken %v seed %d lane %d: batch (%d,%v) scalar (%d,%v)",
						kind, seed, lane, dSteps[lane], dConv>>uint(lane)&1 == 1, ws, wok)
				}
			}
		}
	}
}

// TestRunRetiresLanesAtBudget forces a tiny step budget and checks the
// non-converged lanes come back with steps = maxSteps and a zero
// converged bit.
func TestRunRetiresLanesAtBudget(t *testing.T) {
	b := NewSSRmin(8, 12, Subset)
	b.SeedLanes(3)
	steps, converged := b.Run(2)
	for lane := 0; lane < Lanes; lane++ {
		ok := converged>>uint(lane)&1 == 1
		if !ok && steps[lane] != 2 {
			t.Fatalf("lane %d: not converged but steps=%d, want 2", lane, steps[lane])
		}
		if ok && steps[lane] > 2 {
			t.Fatalf("lane %d: converged with steps=%d past budget", lane, steps[lane])
		}
	}
}

// laneKernel is the public surface of a batch kernel that handRun
// drives.
type laneKernel[S comparable] interface {
	LegitMask() uint64
	Step() uint64
	LaneConfig(lane int) statemodel.Config[S]
}

// handRun is Run written with the public LegitMask and Step, which
// compute their own guards. Step advances every lane, retired ones
// included, so each lane's configuration is captured when it retires;
// lanes are independent and every step draws one coin word per lane
// either way, so the live lanes see exactly what Run's lanes see.
func handRun[S comparable](b laneKernel[S], maxSteps int) (steps [Lanes]int, converged uint64, final [Lanes]statemodel.Config[S]) {
	var done uint64
	retire := func(mask uint64, t int) {
		forEachLane(mask, func(lane int) {
			steps[lane], final[lane] = t, b.LaneConfig(lane)
		})
		done |= mask
	}
	for t := 0; ; t++ {
		newly := b.LegitMask() &^ done
		converged |= newly
		retire(newly, t)
		if done == allLanes {
			return
		}
		if t >= maxSteps {
			retire(^done, maxSteps)
			return
		}
		retire(b.Step()&^done, t)
		if done == allLanes {
			return
		}
	}
}

// TestRunReusesGuardsExactly holds Run, whose steps take their guards
// from the legitMask call before them, to handRun, which recomputes
// them: per-lane steps, the converged mask and every lane's final
// configuration must agree bit for bit, for both kernels, both daemons,
// a full budget and a budget that retires lanes early.
func TestRunReusesGuardsExactly(t *testing.T) {
	for _, kind := range []DaemonKind{Synchronous, Subset} {
		for _, tc := range []struct {
			n, k int
			seed int64
		}{{5, 7, 3}, {8, 12, 4}, {16, 17, 5}, {33, 64, 6}} {
			for _, budget := range []int{core.New(tc.n, tc.k).ConvergenceStepBound(), 4} {
				b, h := NewSSRmin(tc.n, tc.k, kind), NewSSRmin(tc.n, tc.k, kind)
				b.SeedLanes(tc.seed)
				h.SeedLanes(tc.seed)
				steps, conv := b.Run(budget)
				hSteps, hConv, final := handRun[core.State](h, budget)
				if steps != hSteps || conv != hConv {
					t.Fatalf("ssrmin %v n=%d budget %d: Run (%v, %#x), hand loop (%v, %#x)",
						kind, tc.n, budget, steps, conv, hSteps, hConv)
				}
				for lane := 0; lane < Lanes; lane++ {
					checkLaneSSRmin(t, b, lane, final[lane], fmt.Sprintf("ssrmin %v n=%d budget %d", kind, tc.n, budget))
				}

				d, e := NewSSToken(tc.n, tc.k, kind), NewSSToken(tc.n, tc.k, kind)
				d.SeedLanes(tc.seed)
				e.SeedLanes(tc.seed)
				dBudget := min(budget, 3*dijkstra.New(tc.n, tc.k).ConvergenceBound())
				dSteps, dConv := d.Run(dBudget)
				eSteps, eConv, eFinal := handRun[dijkstra.State](e, dBudget)
				if dSteps != eSteps || dConv != eConv {
					t.Fatalf("sstoken %v n=%d budget %d: Run (%v, %#x), hand loop (%v, %#x)",
						kind, tc.n, dBudget, dSteps, dConv, eSteps, eConv)
				}
				for lane := 0; lane < Lanes; lane++ {
					if got := d.LaneConfig(lane); !slices.Equal(got, eFinal[lane]) {
						t.Fatalf("sstoken %v n=%d budget %d: lane %d final %v, hand loop %v",
							kind, tc.n, dBudget, lane, got, eFinal[lane])
					}
				}
			}
		}
	}
}

// TestStepComputesOwnGuards steps both kernels with no LegitMask call
// between steps, after one LegitMask has left the initial guards in
// b.g. A public Step that reused those guards would drift from the
// scalar simulators after its first move.
func TestStepComputesOwnGuards(t *testing.T) {
	const n, k, seed, steps = 8, 12, 21, 30
	for _, kind := range []DaemonKind{Synchronous, Subset} {
		b, d := NewSSRmin(n, k, kind), NewSSToken(n, k, kind)
		b.SeedLanes(seed)
		d.SeedLanes(seed)
		b.LegitMask()
		d.LegitMask()
		for s := 0; s < steps; s++ {
			b.Step()
			d.Step()
		}
		for lane := 0; lane < Lanes; lane++ {
			r, q := SeedStream(seed, lane), SeedStream(seed, lane)
			bInit := make(statemodel.Config[core.State], n)
			dInit := make(statemodel.Config[dijkstra.State], n)
			for i := 0; i < n; i++ {
				bInit[i], dInit[i] = SampleSSRmin(&r, k), SampleSSToken(&q, k)
			}
			bSim := statemodel.NewSimulator[core.State](core.New(n, k), scalarDaemon(kind, &r), bInit)
			dSim := statemodel.NewSimulator[dijkstra.State](dijkstra.New(n, k), scalarDaemon(kind, &q), dInit)
			for s := 0; s < steps; s++ {
				bSim.Step()
				dSim.Step()
			}
			checkLaneSSRmin(t, b, lane, bSim.Config(), fmt.Sprintf("ssrmin %v after %d bare steps", kind, steps))
			if got, want := d.LaneConfig(lane), dSim.Config(); !slices.Equal(got, want) {
				t.Fatalf("sstoken %v after %d bare steps: lane %d %v, scalar %v", kind, steps, lane, got, want)
			}
		}
	}
}

// TestKernelsAllocateNothing measures the kernels' 0 allocs/op at run
// time. allocgate reads the compiler's escape analysis, which cannot see
// a non-escaping map or slice that later grows on the heap; a ring of 64
// nodes outgrows any small stack-resident buffer.
func TestKernelsAllocateNothing(t *testing.T) {
	const n = 64
	for _, kind := range []DaemonKind{Subset, Synchronous} {
		ssr, sst := NewSSRmin(n, n+1, kind), NewSSToken(n, n+1, kind)
		seed := int64(0)
		allocs := testing.AllocsPerRun(20, func() {
			seed++
			ssr.SeedLanes(seed)
			ssr.Step()
			ssr.LegitMask()
			ssr.Run(4)
			sst.SeedLanes(seed)
			sst.Step()
			sst.LegitMask()
			sst.Run(4)
		})
		if allocs != 0 {
			t.Errorf("%v daemon: %v allocs per seed, step, legitimacy test and run, want 0", kind, allocs)
		}
	}
}
