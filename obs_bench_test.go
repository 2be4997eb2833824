package ssrmin

import (
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/daemon"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/obs"
	"ssrmin/internal/runtime"
	"ssrmin/internal/statemodel"
)

// BenchmarkObsOverhead measures what the instrumentation hooks cost on
// the three hot paths that carry them unconditionally: the state-reading
// step loop (sim), the discrete-event network (mp) and the live engine
// on one worker (live). "bare" is the uninstrumented path (nil observer
// — the default for every existing caller); "nop" attaches a
// counters-only observer with no event sink, which sim bumps per step
// and mp and live fill from their own tallies once per run or epoch.
// The acceptance bar is nop within 5% of bare; `make bench-obs` records
// all six in BENCH_obs.json.
func BenchmarkObsOverhead(b *testing.B) {
	const n = 64
	b.Run("sim", func(b *testing.B) {
		for _, mode := range []string{"bare", "nop"} {
			b.Run(mode, func(b *testing.B) {
				alg := core.New(n, n+1)
				sim := statemodel.NewSimulator[core.State](alg, daemon.NewCentralLowest(), alg.InitialLegitimate())
				if mode == "nop" {
					sim.Obs = obs.New(nil)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim.Run(3 * n)
				}
			})
		}
	})
	b.Run("mp", func(b *testing.B) {
		for _, mode := range []string{"bare", "nop"} {
			b.Run(mode, func(b *testing.B) {
				alg := core.New(n, n+1)
				r := cst.NewRing[core.State](alg, alg.InitialLegitimate(), cst.Options[core.State]{
					Link:           msgnet.LinkParams{Delay: 0.01, Jitter: 0.002},
					Refresh:        0.05,
					Seed:           1,
					CoherentCaches: true,
				})
				if mode == "nop" {
					r.Net.Obs = obs.New(nil)
				}
				b.ResetTimer()
				horizon := msgnet.Time(0)
				for i := 0; i < b.N; i++ {
					horizon += 1
					r.Net.Run(horizon)
				}
			})
		}
	})
	b.Run("live", func(b *testing.B) {
		for _, mode := range []string{"bare", "nop"} {
			b.Run(mode, func(b *testing.B) {
				alg := core.New(n, n+1)
				eng := runtime.NewEngine[core.State](alg, alg.InitialLegitimate(), runtime.Options[core.State]{
					Delay:          10 * time.Millisecond,
					Jitter:         2 * time.Millisecond,
					Refresh:        50 * time.Millisecond,
					Seed:           1,
					CoherentCaches: true,
					Workers:        1,
				})
				if mode == "nop" {
					eng.SetObserver(obs.New(nil), nil)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.RunUntil(float64(i + 1))
				}
			})
		}
	})
}
