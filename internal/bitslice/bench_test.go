package bitslice

import (
	"fmt"
	"testing"

	"ssrmin/internal/core"
)

// BenchmarkBitsliceBatch measures the fig12-style SSRmin convergence
// sweep — 64 seeded runs to legitimacy under the subset daemon — through
// the scalar statemodel oracle and through the bit-sliced batch kernel.
// One op is one 64-seed batch on both paths, so ns/op is directly
// comparable and the seeds/s ratio between the batch and scalar rows is
// the recorded speedup (`make bench-batch` → BENCH_batch.json).
func BenchmarkBitsliceBatch(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{8, 12}, {16, 20}, {32, 40}} {
		bound := core.New(tc.n, tc.k).ConvergenceStepBound()

		b.Run(fmt.Sprintf("scalar/n=%d,K=%d", tc.n, tc.k), func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				for lane := 0; lane < Lanes; lane++ {
					s, ok := ScalarSSRminRun(tc.n, tc.k, Subset, int64(i), lane, bound)
					if !ok {
						b.Fatalf("seed %d lane %d did not converge within %d steps", i, lane, bound)
					}
					steps += s
				}
			}
			b.ReportMetric(float64(b.N*Lanes)/b.Elapsed().Seconds(), "seeds/s")
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
		})

		b.Run(fmt.Sprintf("batch/n=%d,K=%d", tc.n, tc.k), func(b *testing.B) {
			batch := NewSSRmin(tc.n, tc.k, Subset)
			var steps int
			for i := 0; i < b.N; i++ {
				batch.SeedLanes(int64(i))
				laneSteps, converged := batch.Run(bound)
				if converged != allLanes {
					b.Fatalf("seed %d: lanes %#x did not converge within %d steps", i, ^converged, bound)
				}
				for _, s := range laneSteps {
					steps += s
				}
			}
			b.ReportMetric(float64(b.N*Lanes)/b.Elapsed().Seconds(), "seeds/s")
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// The per-layer micro-benchmarks below split a batch's cost the way the
// fig12 trace does: RNG (BenchmarkRNG64), transpose
// (BenchmarkTranspose64), seeding (BenchmarkSeedLanes) and the rule
// kernel (BenchmarkStep, BenchmarkLegitMask). All use K = n+1, the fig12
// alphabet. `make bench-batch` records them next to the end-to-end rows.

// benchSink keeps benchmark results live so the measured calls stay.
var benchSink uint64

// BenchmarkRNG64 draws once from each of the 64 lane streams: the RNG
// half of a subset-daemon step.
func BenchmarkRNG64(b *testing.B) {
	var lanes [Lanes]RNG
	for l := range lanes {
		lanes[l] = SeedStream(1, l)
	}
	var acc uint64
	for i := 0; i < b.N; i++ {
		for l := range lanes {
			acc ^= lanes[l].Next()
		}
	}
	benchSink ^= acc
}

// BenchmarkTranspose64 transposes one 64×64 bit matrix: the other half
// of a subset-daemon step, and one call per node in SeedLanes.
func BenchmarkTranspose64(b *testing.B) {
	var in, out [Lanes]uint64
	r := SeedStream(1, 0)
	for i := range in {
		in[i] = r.Next()
	}
	for i := 0; i < b.N; i++ {
		transpose64(&in, &out)
		in[0] ^= out[1]
	}
	benchSink ^= in[0]
}

// BenchmarkSeedLanes seeds one 64-lane batch: one op is 64·n draws.
func BenchmarkSeedLanes(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("ssrmin/n=%d", n), func(b *testing.B) {
			batch := NewSSRmin(n, n+1, Subset)
			for i := 0; i < b.N; i++ {
				batch.SeedLanes(int64(i))
			}
		})
		b.Run(fmt.Sprintf("sstoken/n=%d", n), func(b *testing.B) {
			batch := NewSSToken(n, n+1, Subset)
			for i := 0; i < b.N; i++ {
				batch.SeedLanes(int64(i))
			}
		})
	}
}

// BenchmarkStep times the public SSRmin Step (which computes its own
// guards) at n=64 under both daemons; the difference between the two
// rows is the subset daemon's draws plus their transpose.
func BenchmarkStep(b *testing.B) {
	const n = 64
	for _, kind := range []DaemonKind{Subset, Synchronous} {
		name := "subset"
		if kind == Synchronous {
			name = "sync"
		}
		b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
			batch := NewSSRmin(n, n+1, kind)
			batch.SeedLanes(1)
			var acc uint64
			for i := 0; i < b.N; i++ {
				acc ^= batch.Step()
			}
			benchSink ^= acc
		})
	}
}

// BenchmarkLegitMask times the lane-parallel SSRmin legitimacy test at
// n=64.
func BenchmarkLegitMask(b *testing.B) {
	const n = 64
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		batch := NewSSRmin(n, n+1, Subset)
		batch.SeedLanes(1)
		var acc uint64
		for i := 0; i < b.N; i++ {
			acc ^= batch.LegitMask()
		}
		benchSink ^= acc
	})
}
