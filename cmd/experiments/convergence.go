package main

import (
	"fmt"
	"math/rand"

	"ssrmin/internal/cliconf"
	"ssrmin/internal/core"
	"ssrmin/internal/daemon"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/parsweep"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/stats"
	"ssrmin/internal/verify"
)

func init() {
	register(80, "convergence", "Theorem 2 / Lemmas 7–8: O(n²) convergence under the unfair distributed daemon", runConvergence)
	register(85, "exactworst", "Exact worst-case stabilization times (exhaustive, small n)", runExactWorst)
	register(90, "baseline", "SSToken baseline: convergence within 3n(n−1)/2", runBaseline)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func randomConfig(a *core.Algorithm, rng *rand.Rand) statemodel.Config[core.State] {
	c := make(statemodel.Config[core.State], a.N())
	for i := range c {
		c[i] = a.RandomState(rng)
	}
	return c
}

// convergenceSteps runs one convergence trial and returns the step count.
func convergenceSteps(a *core.Algorithm, d statemodel.Daemon, init statemodel.Config[core.State]) (int, bool) {
	sim := statemodel.NewSimulator[core.State](a, d, init)
	return sim.RunUntil(a.Legitimate, a.ConvergenceStepBound())
}

func runConvergence(cfg runConfig) {
	ns := []int{4, 6, 8, 12, 16, 24, 32}
	trials := 300
	if cfg.quick {
		ns = []int{4, 6, 8, 12}
		trials = 60
	}

	// The sweep covers every scheduler in the shared registry (the same
	// list the -daemon CLI flags accept), at inclusion probability 0.5.
	type daemonMaker struct {
		name string
		make func(seed int64) statemodel.Daemon
	}
	var daemons []daemonMaker
	for _, spec := range cliconf.Daemons() {
		spec := spec
		daemons = append(daemons, daemonMaker{spec.Label,
			func(s int64) statemodel.Daemon { return spec.New(s, 0.5) }})
	}

	for _, dm := range daemons {
		tb := newTable("n", "K", "mean steps", "p90", "max", "budget 63n²+4")
		var xs, ys []float64
		for _, n := range ns {
			k := n + 1
			a := core.New(n, k)
			// Each trial derives its own RNGs from its index, so the sweep
			// parallelizes without losing reproducibility.
			samples := parsweep.Map(trials, 0, func(t int) float64 {
				init := randomConfig(a, newRand(cfg.seed+int64(n)*100_000+int64(t)))
				steps, ok := convergenceSteps(a, dm.make(cfg.seed+int64(t)), init)
				if !ok {
					return -1
				}
				return float64(steps)
			})
			for _, s := range samples {
				if s < 0 {
					fmt.Printf("FAIL: %s n=%d did not converge within %d steps\n", dm.name, n, a.ConvergenceStepBound())
					return
				}
			}
			s := stats.Summarize(samples)
			tb.AddRow(n, k, s.Mean, s.P90, s.Max, a.ConvergenceStepBound())
			xs = append(xs, float64(n))
			ys = append(ys, s.Max)
		}
		exp := stats.GrowthExponent(xs, ys)
		fmt.Printf("--- daemon: %s (%d trials per n, random initial configurations) ---\n", dm.name, trials)
		printTable(tb)
		fmt.Printf("observed max-steps growth exponent: n^%.2f (Theorem 2 bound: n^2)\n\n", exp)
	}
}

func runExactWorst(cfg runConfig) {
	tb := newTable("instance", "|Γ∖Λ|", "exact worst-case steps", "O(n²) budget")
	instances := []struct{ n, k int }{{3, 4}, {4, 5}}
	if cfg.quick {
		instances = instances[:1]
	}
	for _, in := range instances {
		a := core.New(in.n, in.k)
		_, e, lam := modelCheck(a)
		conv, _ := e.CheckConvergence(lam)
		if !conv.Converges {
			fmt.Printf("FAIL: cycle at %v\n", conv.Cycle)
			return
		}
		tb.AddRow(a.Name(), conv.Illegitimate, conv.WorstSteps, a.ConvergenceStepBound())
	}
	printTable(tb)
	fmt.Println("\nThe exact worst case (longest path to Λ over ALL daemon strategies,")
	fmt.Println("computed exhaustively) is far below the analytical O(n²) budget:")
	fmt.Println("16 steps for n=3, 43 for n=4 — consistent with quadratic growth.")
}

func runBaseline(cfg runConfig) {
	ns := []int{4, 8, 16, 32, 64}
	trials := 500
	if cfg.quick {
		ns = []int{4, 8, 16}
		trials = 100
	}
	tb := newTable("n", "K", "mean steps", "max", "bound 3n(n−1)/2")
	var xs, ys []float64
	for _, n := range ns {
		k := n + 1
		a := dijkstra.New(n, k)
		rng := newRand(cfg.seed + int64(n))
		var samples []float64
		for t := 0; t < trials; t++ {
			c := make(statemodel.Config[dijkstra.State], n)
			for i := range c {
				c[i] = dijkstra.State{X: rng.Intn(k)}
			}
			sim := statemodel.NewSimulator[dijkstra.State](a, daemon.NewRandomSubset(newRand(cfg.seed+int64(t)), 0.5), c)
			steps, ok := sim.RunUntil(a.SingleToken, a.ConvergenceBound()+1)
			if !ok {
				fmt.Printf("FAIL: SSToken n=%d exceeded its bound\n", n)
				return
			}
			samples = append(samples, float64(steps))
		}
		s := stats.Summarize(samples)
		tb.AddRow(n, k, s.Mean, s.Max, a.ConvergenceBound())
		xs = append(xs, float64(n))
		ys = append(ys, s.Max+1) // +1 keeps log defined when max = 0
	}
	printTable(tb)
	fmt.Printf("observed max-steps growth exponent: n^%.2f\n", stats.GrowthExponent(xs, ys))
	fmt.Println("\nSSToken (mutual exclusion only) converges faster than SSRmin, but it")
	fmt.Println("offers no mutual inclusion in the message-passing model (see fig11).")
}

func init() {
	register(95, "rounds", "Round complexity: convergence measured in rounds as well as steps", runRounds)
}

// runRounds reports convergence time in *rounds* — the normalized time
// unit of the self-stabilization literature (a round ends when every
// process enabled at its start has moved or been disabled). The paper
// proves O(n²) steps; the observed round counts grow roughly linearly,
// matching the intuition that each of the O(n) "laps" of the Dijkstra
// token costs O(n) steps but only O(1)–O(n) rounds.
func runRounds(cfg runConfig) {
	ns := []int{4, 6, 8, 12, 16, 24}
	trials := 200
	if cfg.quick {
		ns = ns[:4]
		trials = 50
	}
	tb := newTable("n", "mean steps", "mean rounds", "max rounds", "steps/round")
	var xs, ys []float64
	for _, n := range ns {
		a := core.New(n, n+1)
		type res struct{ steps, rounds int }
		results := parsweep.Map(trials, 0, func(t int) res {
			init := randomConfig(a, newRand(cfg.seed+int64(n)*77_000+int64(t)))
			d := daemon.NewRandomSubset(newRand(cfg.seed+int64(t)), 0.5)
			sim := statemodel.NewSimulator[core.State](a, d, init)
			steps, rounds, ok := statemodel.ConvergenceRounds[core.State](sim, a.Legitimate, a.ConvergenceStepBound())
			if !ok {
				return res{-1, -1}
			}
			return res{steps, rounds}
		})
		var stepsS, roundsS []float64
		maxR := 0
		for _, r := range results {
			if r.steps < 0 {
				fmt.Printf("FAIL: n=%d no convergence\n", n)
				return
			}
			stepsS = append(stepsS, float64(r.steps))
			roundsS = append(roundsS, float64(r.rounds))
			if r.rounds > maxR {
				maxR = r.rounds
			}
		}
		ms, mr := stats.Summarize(stepsS).Mean, stats.Summarize(roundsS).Mean
		ratio := 0.0
		if mr > 0 {
			ratio = ms / mr
		}
		tb.AddRow(n, ms, mr, maxR, ratio)
		xs = append(xs, float64(n))
		ys = append(ys, float64(maxR)+1)
	}
	printTable(tb)
	fmt.Printf("observed max-rounds growth exponent: n^%.2f\n", stats.GrowthExponent(xs, ys))
	fmt.Println("\nRound counts normalize away the daemon's freedom to drip-feed one")
	fmt.Println("process per step; SSRmin converges in close-to-linear rounds while")
	fmt.Println("its step complexity is Θ(n²) in the worst case.")
}

func init() {
	register(87, "worstpath", "The exact worst-case execution of the n=3 instance, step by step", runWorstPath)
}

// runWorstPath prints the exact worst-case execution (over all daemon
// strategies and all starting configurations) of the n=3, K=4 instance,
// extracted from the model checker's distance map — the concrete
// counterpart of Theorem 2's O(n²) bound.
func runWorstPath(cfg runConfig) {
	a := core.New(3, 4)
	_, e, lam := modelCheck(a)
	path := e.WorstPath(lam)
	if path == nil {
		fmt.Println("FAIL: no worst path (convergence broken?)")
		return
	}
	fmt.Printf("worst-case execution: %d steps (n=3, K=4)\n\n", len(path)-1)
	fmt.Println("step  P0      P1      P2      tokens  legit")
	for i, cfgI := range path {
		tc := verify.Count(cfgI)
		fmt.Printf("%-5d %-7v %-7v %-7v %d       %v\n",
			i, cfgI[0], cfgI[1], cfgI[2], tc.Privileged, a.Legitimate(cfgI))
	}
	fmt.Println("\nEvery transition is a legal unfair-distributed-daemon step; the")
	fmt.Println("daemon drags the system through the longest possible path before the")
	fmt.Println("fix rules and the Dijkstra layer force legitimacy. Note the census")
	fmt.Println("can stray outside [1,2] before convergence — exactly what Theorems")
	fmt.Println("3/4 scope to legitimate (or settled) executions.")
}
