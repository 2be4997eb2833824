package ssrmin

// One benchmark per evaluation artifact of the paper (see DESIGN.md's
// experiment index). Absolute numbers depend on the host; the *shapes* —
// who wins, how costs scale with n, where the graceful handover's
// overhead lands — are the reproduction targets:
//
//	BenchmarkCirculation        Fig 1/4:  3 steps per position advance
//	BenchmarkConvergence        Thm 2:    steps grow ≈ n^1.2–1.7 ≤ n²
//	BenchmarkConvergenceSSToken Lemma 8:  baseline converges faster
//	BenchmarkMPGracefulHandover Fig 13:   0 zero-token time for SSRmin
//	BenchmarkMPSSToken          Fig 11:   large zero-token time for SSToken
//	BenchmarkModelCheck         Lemmas:   exhaustive verification cost,
//	                                      legacy vs table-compiled engine
//	BenchmarkParallelSweepContention      atomic vs per-item dispatch cost
//	BenchmarkRuleEvaluation     (micro)   guard evaluation cost
//	BenchmarkDiscreteEvents     (micro)   simulator event throughput
//	BenchmarkMsgnetStorm        (micro)   legacy heap vs zero-alloc arena
//	                                      under a lossy/duplicating storm
//	BenchmarkSynchronizer       §1.3:     α-synchronizer round throughput
//	BenchmarkComposed           [9]:      (m,2m)-CS composition step cost
//	BenchmarkParallelSweep      harness:  parallel vs sequential sweeps
//	BenchmarkLiveRing           §5:       paced live ring throughput
//	BenchmarkRuntimeEngine      §5:       sharded event-loop engine at scale

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ssrmin/internal/check"
	"ssrmin/internal/compose"
	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/daemon"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/parsweep"
	"ssrmin/internal/runtime"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/synchro"
)

// BenchmarkCirculation measures one full two-token rotation (3n steps) in
// the state-reading model — the steady-state cost of Figure 1/4.
func BenchmarkCirculation(b *testing.B) {
	for _, n := range []int{5, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg := core.New(n, n+1)
			sim := statemodel.NewSimulator[core.State](alg, daemon.NewCentralLowest(), alg.InitialLegitimate())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Run(3 * n)
			}
			b.ReportMetric(float64(3*n), "steps/rotation")
		})
	}
}

// BenchmarkConvergence measures convergence from random configurations
// under the random distributed daemon — the Theorem 2 experiment.
func BenchmarkConvergence(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg := core.New(n, n+1)
			rng := rand.New(rand.NewSource(1))
			totalSteps := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				init := randomSSRminConfig(alg, rng)
				d := daemon.NewRandomSubset(rand.New(rand.NewSource(int64(i))), 0.5)
				sim := statemodel.NewSimulator[core.State](alg, d, init)
				b.StartTimer()
				steps, ok := sim.RunUntil(alg.Legitimate, alg.ConvergenceStepBound())
				if !ok {
					b.Fatal("no convergence within the O(n²) budget")
				}
				totalSteps += steps
			}
			b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/convergence")
		})
	}
}

// BenchmarkConvergenceSSToken is the Dijkstra baseline of Lemma 8.
func BenchmarkConvergenceSSToken(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg := dijkstra.New(n, n+1)
			rng := rand.New(rand.NewSource(1))
			totalSteps := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				init := make(statemodel.Config[dijkstra.State], n)
				for j := range init {
					init[j] = dijkstra.State{X: rng.Intn(n + 1)}
				}
				d := daemon.NewRandomSubset(rand.New(rand.NewSource(int64(i))), 0.5)
				sim := statemodel.NewSimulator[dijkstra.State](alg, d, init)
				b.StartTimer()
				steps, ok := sim.RunUntil(alg.SingleToken, alg.ConvergenceBound()+1)
				if !ok {
					b.Fatal("SSToken exceeded 3n(n−1)/2")
				}
				totalSteps += steps
			}
			b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/convergence")
		})
	}
}

// BenchmarkMPGracefulHandover simulates 10s of message-passing SSRmin and
// reports the zero-token fraction (expected: exactly 0) and the message
// cost — the Figure 13 experiment.
func BenchmarkMPGracefulHandover(b *testing.B) {
	for _, n := range []int{5, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zeroTime, msgs, advances := 0.0, 0, 0
			for i := 0; i < b.N; i++ {
				m := NewMPSimulation(n, WithSeed(int64(i+1)))
				m.Run(10)
				tl := m.Timeline()
				zeroTime += tl.Duration(0)
				msgs += m.MessagesSent()
				advances += m.RuleExecutions() / 3
			}
			if zeroTime != 0 {
				b.Fatalf("SSRmin spent %v simulated seconds with zero tokens", zeroTime)
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/10s")
			b.ReportMetric(float64(advances)/float64(b.N), "advances/10s")
			b.ReportMetric(0, "zero-token-s")
		})
	}
}

// BenchmarkMPSSToken is the Figure 11 baseline: the same network, plain
// Dijkstra — reports the (large) zero-token fraction.
func BenchmarkMPSSToken(b *testing.B) {
	for _, n := range []int{5, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zeroFrac := 0.0
			for i := 0; i < b.N; i++ {
				alg := dijkstra.New(n, n+1)
				r := cst.NewRing[dijkstra.State](alg, alg.InitialLegitimate(), cst.Options[dijkstra.State]{
					Link:           msgnet.LinkParams{Delay: 0.01, Jitter: 0.002},
					Refresh:        0.05,
					Hold:           0.02,
					Seed:           int64(i + 1),
					CoherentCaches: true,
				})
				var tl timelineLite
				r.Net.Observer = func(now msgnet.Time) {
					tl.record(float64(now), r.Census(dijkstra.HasToken))
				}
				r.Net.Run(10)
				zeroFrac += tl.zero / float64(r.Net.Now())
			}
			b.ReportMetric(100*zeroFrac/float64(b.N), "zero-token-%")
		})
	}
}

// BenchmarkModelCheck measures exhaustive verification (closure +
// convergence longest-path) on the legacy Decode/Encode checker vs. the
// table-compiled single-threaded engine, per instance. The engine's
// speedup comes from the compiled transition tables alone here (workers =
// 1); parallel scaling is on top.
func BenchmarkModelCheck(b *testing.B) {
	cases := []struct{ n, k, worst int }{{3, 4, 16}, {4, 5, 43}}
	for _, tc := range cases {
		alg := core.New(tc.n, tc.k)
		b.Run(fmt.Sprintf("legacy/n=%d,K=%d", tc.n, tc.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := check.New[core.State](alg, 0)
				rep := c.CheckClosure(alg.Legitimate)
				if rep.Counterexample != nil {
					b.Fatal("closure failed")
				}
				conv := c.CheckConvergence(alg.Legitimate)
				if !conv.Converges || conv.WorstSteps != tc.worst {
					b.Fatalf("convergence check wrong: %+v", conv.WorstSteps)
				}
			}
		})
		b.Run(fmt.Sprintf("engine/n=%d,K=%d", tc.n, tc.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := check.New[core.State](alg, 0)
				e, err := c.Compile(1)
				if err != nil {
					b.Fatal(err)
				}
				lam := e.LegitSet(alg.Legitimate)
				rep := e.CheckClosure(lam)
				if rep.Counterexample != nil {
					b.Fatal("closure failed")
				}
				conv, _ := e.CheckConvergence(lam)
				if !conv.Converges || conv.WorstSteps != tc.worst {
					b.Fatalf("convergence check wrong: %+v", conv.WorstSteps)
				}
			}
		})
	}
}

// BenchmarkRuleEvaluation is the micro cost of one guard evaluation —
// what every node pays per received message.
func BenchmarkRuleEvaluation(b *testing.B) {
	alg := core.New(64, 65)
	cfg := alg.InitialLegitimate()
	views := make([]statemodel.View[core.State], len(cfg))
	for i := range cfg {
		views[i] = cfg.View(i)
	}
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += alg.EnabledRule(views[i%len(views)])
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkDiscreteEvents measures raw event throughput of the
// discrete-event network running the full CST stack.
func BenchmarkDiscreteEvents(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg := core.New(n, n+1)
			r := cst.NewRing[core.State](alg, alg.InitialLegitimate(), cst.Options[core.State]{
				Link:           msgnet.LinkParams{Delay: 0.01, Jitter: 0.002},
				Refresh:        0.05,
				Seed:           1,
				CoherentCaches: true,
			})
			b.ResetTimer()
			events := 0
			horizon := msgnet.Time(0)
			for i := 0; i < b.N; i++ {
				horizon += 1
				events += r.Net.Run(horizon)
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// BenchmarkMsgnetStorm is the event-engine shoot-out: the legacy boxed
// container/heap queue against the zero-alloc arena, each driving the
// same lossy, jittery, duplicating, corrupting CST storm (incoherent
// caches keep every node arguing, so the ring never quiesces). The two
// engines are bit-identical in behaviour (see internal/msgnet's
// differential test); this benchmark records what that behaviour costs —
// B/op and allocs/op per simulated-time window plus raw events/s. The
// committed snapshot lives in BENCH_msgnet.json (`make bench-msgnet`).
func BenchmarkMsgnetStorm(b *testing.B) {
	for _, engine := range []string{"legacy", "arena"} {
		for _, n := range []int{8, 32, 128} {
			b.Run(fmt.Sprintf("%s/n=%d", engine, n), func(b *testing.B) {
				alg := core.New(n, n+1)
				draw := func(r *rand.Rand) core.State {
					return core.State{X: r.Intn(n + 1), RTS: r.Intn(2) == 1, TRA: r.Intn(2) == 1}
				}
				r := cst.NewRing[core.State](alg, alg.InitialLegitimate(), cst.Options[core.State]{
					Link: msgnet.LinkParams{
						Delay: 0.01, Jitter: 0.003,
						LossProb: 0.1, DupProb: 0.2, CorruptProb: 0.05,
					},
					Refresh:        0.05,
					Seed:           1,
					CoherentCaches: false,
					RandomState:    draw,
				})
				r.Net.Legacy = engine == "legacy"
				r.Net.Corrupt = func(rng *rand.Rand, payload core.State) core.State { return draw(rng) }
				b.ResetTimer()
				events := 0
				horizon := msgnet.Time(0)
				for i := 0; i < b.N; i++ {
					horizon += 0.5
					events += r.Net.Run(horizon)
				}
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// timelineLite tracks only time-at-zero, cheaply, for benches.
type timelineLite struct {
	last  float64
	count int
	zero  float64
	init  bool
}

func (t *timelineLite) record(now float64, count int) {
	if t.init && t.count == 0 {
		t.zero += now - t.last
	}
	t.last, t.count, t.init = now, count, true
}

func randomSSRminConfig(a *core.Algorithm, rng *rand.Rand) statemodel.Config[core.State] {
	c := make(statemodel.Config[core.State], a.N())
	for i := range c {
		c[i] = core.State{X: rng.Intn(a.K()), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
	}
	return c
}

// BenchmarkSynchronizer measures round throughput of the α-synchronizer
// transform (the expensive alternative the "transforms" experiment
// compares against CST).
func BenchmarkSynchronizer(b *testing.B) {
	for _, n := range []int{5, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			alg := core.New(n, n+1)
			r := synchro.NewRing[core.State](alg, alg.InitialLegitimate(),
				msgnet.LinkParams{Delay: 0.01, Jitter: 0.002}, 0.05, 1)
			b.ResetTimer()
			horizon := msgnet.Time(0)
			for i := 0; i < b.N; i++ {
				horizon += 1
				r.Net.Run(horizon)
			}
			b.ReportMetric(float64(r.MinRound())/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkComposed measures the step cost of the (m,2m)-CS composition.
func BenchmarkComposed(b *testing.B) {
	for _, m := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			inner := core.New(8, 9)
			c := compose.New[core.State](inner, m)
			parts := make([]statemodel.Config[core.State], m)
			for j := range parts {
				sim := statemodel.NewSimulator[core.State](inner, daemon.NewCentralLowest(), inner.InitialLegitimate())
				sim.Run(3 * j)
				parts[j] = sim.Config()
			}
			sim := statemodel.NewSimulator[compose.MultiState[core.State]](c,
				daemon.NewRandomSubset(rand.New(rand.NewSource(1)), 0.5), c.Pack(parts...))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := sim.Step(); !ok {
					b.Fatal("deadlock")
				}
			}
		})
	}
}

// BenchmarkParallelSweep measures the sweep driver against the sequential
// baseline on a convergence workload.
func BenchmarkParallelSweep(b *testing.B) {
	work := func(i int) float64 {
		alg := core.New(12, 13)
		rng := rand.New(rand.NewSource(int64(i)))
		init := randomSSRminConfig(alg, rng)
		d := daemon.NewRandomSubset(rand.New(rand.NewSource(int64(i))), 0.5)
		sim := statemodel.NewSimulator[core.State](alg, d, init)
		steps, _ := sim.RunUntil(alg.Legitimate, alg.ConvergenceStepBound())
		return float64(steps)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parsweep.Map(64, 1, work)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parsweep.Map(64, 0, work)
		}
	})
}

// BenchmarkParallelSweepContention stresses the sweep driver's work-index
// grab with tiny per-item work, where the dispatch cost dominates — the
// case the lock-free atomic counter (vs. the old mutex) wins.
func BenchmarkParallelSweepContention(b *testing.B) {
	const items = 1 << 14
	work := func(i int) int { return i * i }
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := parsweep.Map(items, workers, work)
				if out[3] != 9 {
					b.Fatal("wrong result")
				}
			}
		})
	}
}

// BenchmarkLiveRing measures wall-clock advance throughput of the paced
// live deployment (short windows; dominated by the configured link
// delay, as it should be).
func BenchmarkLiveRing(b *testing.B) {
	ring := NewLiveRing(5,
		WithDelay(200*time.Microsecond),
		WithJitter(50*time.Microsecond),
		WithRefresh(time.Millisecond),
		WithSeed(1),
	)
	ring.Start()
	defer ring.Stop()
	b.ResetTimer()
	start := ring.RuleExecutions()
	for i := 0; i < b.N; i++ {
		time.Sleep(time.Millisecond)
	}
	execs := ring.RuleExecutions() - start
	b.ReportMetric(float64(execs)/float64(b.N), "rules/ms")
}

// BenchmarkRuntimeEngine measures sustained event throughput of the
// sharded virtual-time engine at scale. The engine advances unscaled
// virtual time, so its events/s is bounded by dispatch cost. The worker
// count is an explicit benchmark dimension — recorded as the
// workers/run metric — so committed BENCH_runtime.json numbers say what
// parallelism they were taken at instead of silently inheriting
// GOMAXPROCS.
func BenchmarkRuntimeEngine(b *testing.B) {
	ropts := runtime.Options[core.State]{
		Delay:          10 * time.Millisecond,
		Jitter:         2 * time.Millisecond,
		Refresh:        50 * time.Millisecond,
		Seed:           1,
		CoherentCaches: true,
	}
	for _, n := range []int{10000, 100000} {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("engine/n=%d,w=%d", n, w), func(b *testing.B) {
				opts := ropts
				opts.Workers = w
				alg := core.New(n, n+1)
				eng := runtime.NewEngine[core.State](alg, alg.InitialLegitimate(), opts)
				b.ResetTimer()
				start := eng.Stats().Events
				for i := 0; i < b.N; i++ {
					eng.RunUntil(eng.Now() + 0.05)
				}
				events := eng.Stats().Events - start
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
				b.ReportMetric(float64(n), "nodes/ring")
				b.ReportMetric(float64(eng.Workers()), "workers/run")
			})
		}
	}
}
