package crosscheck

import (
	"testing"

	"ssrmin/internal/obs"
	"ssrmin/internal/scenario"
)

// BenchmarkSoakScenario runs one storm scenario of the soak-mix shape
// (n=8, K=14, random start, incoherent caches, a lossy duplicating and
// corrupting link, a states/caches storm over a 40 s horizon) through
// each tier alone, with reused resources and a no-op observer as a soak
// sweep runs it. One op is one scenario; -benchmem gives each tier's
// allocations per scenario.
func BenchmarkSoakScenario(b *testing.B) {
	for _, engine := range AllEngines {
		b.Run(engine, func(b *testing.B) {
			const horizon = 40
			sc := Scenario{
				Name: "soak-bench", N: 8, K: 14, Seed: 1, Horizon: horizon, Settle: 15,
				Link:        scenario.Link{Delay: 0.01, Jitter: 0.002, Loss: 0.05, Dup: 0.1, Corrupt: 0.02},
				RandomStart: true, IncoherentCaches: true, LiveWorkers: 1,
				Faults: []scenario.Fault{
					{At: 0.3 * horizon, Type: "states", Count: 4},
					{At: 0.45 * horizon, Type: "caches", Count: 8},
					{At: 0.6 * horizon, Type: "states", Count: 1},
				},
				Engines: []string{engine},
			}
			res, o := NewResources(), obs.New(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := RunWithRes(sc, o, res)
				if err != nil || !rep.OK() {
					b.Fatalf("scenario failed: %v %v", err, rep.Violations())
				}
			}
		})
	}
}
