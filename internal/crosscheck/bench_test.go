package crosscheck

import (
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/obs"
	"ssrmin/internal/scenario"
)

// soakBenchScenario is one storm scenario of the soak-mix shape (n=8,
// K=14, random start, incoherent caches, a lossy duplicating and
// corrupting link, a states/caches storm over a 40 s horizon) on the
// given tiers.
func soakBenchScenario(engines ...string) Scenario {
	const horizon = 40
	return Scenario{
		Name: "soak-bench", N: 8, K: 14, Seed: 1, Horizon: horizon, Settle: 15,
		Link:        scenario.Link{Delay: 0.01, Jitter: 0.002, Loss: 0.05, Dup: 0.1, Corrupt: 0.02},
		RandomStart: true, IncoherentCaches: true, LiveWorkers: 1,
		Faults: []scenario.Fault{
			{At: 0.3 * horizon, Type: "states", Count: 4},
			{At: 0.45 * horizon, Type: "caches", Count: 8},
			{At: 0.6 * horizon, Type: "states", Count: 1},
		},
		Engines: engines,
	}
}

// BenchmarkSoakScenario runs soakBenchScenario through each tier alone,
// with reused resources and a no-op observer as a soak sweep runs it.
// One op is one scenario; -benchmem gives each tier's allocations per
// scenario.
func BenchmarkSoakScenario(b *testing.B) {
	for _, engine := range AllEngines {
		b.Run(engine, func(b *testing.B) {
			sc := soakBenchScenario(engine)
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

// BenchmarkLinkMonitorTap replays the msgnet tap stream of
// soakBenchScenario's ring (its link, without the fault storm) through a
// LinkMonitor, one fresh monitor per pass as each scenario run builds
// one. One op is one tap.
func BenchmarkLinkMonitorTap(b *testing.B) {
	sc := soakBenchScenario(EngineMsgnet)
	if err := sc.Validate(); err != nil { // fills the defaults
		b.Fatal(err)
	}
	alg, init := sc.start()
	ring := scenario.NewRing[core.State](sc.script(), alg, init, alg.RandomState, nil)
	var taps []msgnet.TapEvent
	ring.Net.Tap = func(e msgnet.TapEvent) { taps = append(taps, e) }
	ring.Net.Run(msgnet.Time(sc.Horizon))
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		m := NewLinkMonitor()
		for _, e := range taps[:min(len(taps), b.N-done)] {
			m.Tap(e)
		}
		done += len(taps)
		if v := m.Finish(); len(v) != 0 {
			b.Fatalf("violations on a legal stream: %v", v)
		}
	}
}
