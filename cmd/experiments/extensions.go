package main

// Extension experiments beyond the paper's own artifacts: ablations of the
// design choices DESIGN.md calls out (refresh period, link delay, ring
// size), a superstabilization-flavored single-fault analysis (the paper's
// future-work pointer to Katayama et al. [15]), and the (m, 2m)
// critical-section composition (the (ℓ,k)-CS family of reference [9]).

import (
	"fmt"
	"math/rand"
	"time"

	"ssrmin/internal/adversary"
	"ssrmin/internal/compose"
	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/daemon"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/herman"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/netring"
	"ssrmin/internal/parsweep"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/stats"
	"ssrmin/internal/synchro"
	"ssrmin/internal/verify"
)

func init() {
	register(200, "singlefault", "Ablation: exact recovery cost and census excursion after ONE transient fault", runSingleFault)
	register(210, "refresh", "Ablation: stabilization time and overhead vs cache-refresh period", runRefreshSweep)
	register(220, "delay", "Ablation: census mix and advance rate vs link delay", runDelaySweep)
	register(230, "scaling", "Ablation: advance rate and message cost vs ring size", runScaling)
	register(240, "corruption", "Ablation: healing under sustained message corruption", runCorruption)
	register(250, "lkcs", "(m,2m)-critical section via m composed SSRmin instances", runLKCS)
}

// runSingleFault measures recovery from a single transient fault — the
// superstabilization question (the paper's future work cites Katayama et
// al.'s superstabilizing mutual exclusion). For n=3 the analysis is exact:
// every legitimate configuration is perturbed in every process to every
// other local state; the model checker's distance map gives the exact
// worst-case steps back to Λ, and a BFS bounds the worst census excursion
// on the way.
func runSingleFault(cfg runConfig) {
	a := core.New(3, 4)
	c, e, lam := modelCheck(a)
	dist, rep := e.Distances(lam)
	if !rep.Converges {
		fmt.Println("FAIL: base convergence broken")
		return
	}

	worst := 0
	var worstCfg statemodel.Config[core.State]
	histo := map[int]int{}
	minCensus, maxCensus := 1<<30, -1
	faults := 0
	for _, legit := range a.LegitimateConfigs() {
		for i := 0; i < a.N(); i++ {
			for _, alt := range a.AllStates() {
				if alt == legit[i] {
					continue
				}
				faulty := legit.Clone()
				faulty[i] = alt
				faults++
				d := dist[c.Encode(faulty)]
				histo[d]++
				if d > worst {
					worst = d
					worstCfg = faulty
				}
				tc := verify.Count(faulty)
				if tc.Privileged < minCensus {
					minCensus = tc.Privileged
				}
				if tc.Privileged > maxCensus {
					maxCensus = tc.Privileged
				}
			}
		}
	}
	fmt.Printf("n=3 K=4: %d single-fault configurations analyzed exactly\n\n", faults)
	tb := newTable("recovery steps", "single-fault configs")
	for d := 0; d <= worst; d++ {
		if histo[d] > 0 {
			tb.AddRow(d, histo[d])
		}
	}
	printTable(tb)
	fmt.Printf("\nworst case: %d steps (vs %d from the worst arbitrary configuration),\n", worst, rep.WorstSteps)
	fmt.Printf("e.g. from %v\n", worstCfg)
	fmt.Printf("census immediately after a single fault: %d..%d privileged\n", minCensus, maxCensus)
	fmt.Println("\nNotably, the global worst case is already reachable by a SINGLE fault")
	fmt.Println("(corrupting one handshake bit next to the holder): SSRmin is")
	fmt.Println("self-stabilizing but not superstabilizing. The census can briefly")
	fmt.Println("reach 3 (never 0 here). A superstabilizing variant — the paper's")
	fmt.Println("future-work pointer to Katayama et al. [15] — would bound both.")
}

func runRefreshSweep(cfg runConfig) {
	tb := newTable("refresh (s)", "stabilized by (s)", "msgs/s", "advances/s")
	horizon := msgnet.Time(60)
	if cfg.quick {
		horizon = 20
	}
	for _, refresh := range []msgnet.Time{0.02, 0.05, 0.1, 0.2, 0.5} {
		a := core.New(6, 8)
		init := make(statemodel.Config[core.State], 6)
		inj := newRand(cfg.seed)
		for i := range init {
			init[i] = core.State{X: inj.Intn(8), RTS: inj.Intn(2) == 1, TRA: inj.Intn(2) == 1}
		}
		r := cst.NewRing[core.State](a, init, cst.Options[core.State]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter, LossProb: 0.05},
			Refresh:        refresh,
			Seed:           cfg.seed,
			CoherentCaches: false,
		})
		lastBad := 0.0
		advances := 0
		for _, nd := range r.Nodes {
			nd.OnExecute = func(now msgnet.Time, rule int) {
				if rule == core.RuleSendPrimary {
					advances++
				}
			}
		}
		r.Net.Observer = func(now msgnet.Time) {
			c := r.Census(core.HasToken)
			if c < 1 || c > 2 {
				lastBad = float64(now)
			}
		}
		r.Net.Run(horizon)
		st := r.Net.Stats()
		tb.AddRow(float64(refresh), fmt.Sprintf("%.2f", lastBad),
			float64(st.Sent)/float64(horizon), float64(advances)/float64(horizon))
	}
	printTable(tb)
	fmt.Println("\nStabilization is quick at every refresh period and the advance rate")
	fmt.Println("barely moves, because Algorithm 4 also evaluates a rule on every")
	fmt.Println("receipt — the echo traffic, not the timer, drives progress. Slower")
	fmt.Println("refresh only trims the message rate; its real role is healing lost")
	fmt.Println("updates and corrupted caches (see the corruption ablation).")
}

func runDelaySweep(cfg runConfig) {
	tb := newTable("delay (s)", "1 holder", "2 holders", "advances/s", "violations")
	horizon := msgnet.Time(60)
	if cfg.quick {
		horizon = 20
	}
	for _, delay := range []msgnet.Time{0.001, 0.005, 0.01, 0.05, 0.1} {
		a := core.New(5, 6)
		r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
			Link:           msgnet.LinkParams{Delay: delay, Jitter: delay / 5},
			Refresh:        5 * delay,
			Seed:           cfg.seed,
			CoherentCaches: true,
		})
		var tl verify.Timeline
		mon := verify.Monitor{Bounds: verify.SSRminBounds}
		advances := 0
		for _, nd := range r.Nodes {
			nd.OnExecute = func(now msgnet.Time, rule int) {
				if rule == core.RuleSendPrimary {
					advances++
				}
			}
		}
		r.Net.Observer = func(now msgnet.Time) {
			c := r.Census(core.HasToken)
			tl.Record(float64(now), c)
			mon.Observe(float64(now), c)
		}
		r.Net.Run(horizon)
		tl.Close(float64(r.Net.Now()))
		tb.AddRow(float64(delay), pct(tl.Fraction(1)), pct(tl.Fraction(2)),
			float64(advances)/float64(horizon), len(mon.Violations))
	}
	printTable(tb)
	fmt.Println("\nWith the refresh period scaled to the delay, the census mix is")
	fmt.Println("delay-invariant (≈2/3 one holder, ≈1/3 two) while the advance rate")
	fmt.Println("falls ∝ 1/delay — and the 1–2 invariant holds at every delay")
	fmt.Println("(violations = 0).")
}

func runScaling(cfg runConfig) {
	tb := newTable("n", "advances/s", "msgs/s", "msgs/advance", "violations")
	horizon := msgnet.Time(30)
	ns := []int{4, 8, 16, 32, 64}
	if cfg.quick {
		ns = []int{4, 8, 16}
	}
	for _, n := range ns {
		a := core.New(n, n+1)
		r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter},
			Refresh:        mpRefresh,
			Seed:           cfg.seed,
			CoherentCaches: true,
		})
		mon := verify.Monitor{Bounds: verify.SSRminBounds}
		advances := 0
		for _, nd := range r.Nodes {
			nd.OnExecute = func(now msgnet.Time, rule int) {
				if rule == core.RuleSendPrimary {
					advances++
				}
			}
		}
		r.Net.Observer = func(now msgnet.Time) {
			mon.Observe(float64(now), r.Census(core.HasToken))
		}
		r.Net.Run(horizon)
		st := r.Net.Stats()
		tb.AddRow(n, float64(advances)/float64(horizon), float64(st.Sent)/float64(horizon),
			float64(st.Sent)/float64(max(advances, 1)), len(mon.Violations))
	}
	printTable(tb)
	fmt.Println("\nThe advance rate is delay-bound (a single privilege walks the ring),")
	fmt.Println("while the background announcement traffic grows linearly with n —")
	fmt.Println("so messages-per-advance grows ≈ linearly. The 1–2 invariant holds at")
	fmt.Println("every size.")
}

func runCorruption(cfg runConfig) {
	tb := newTable("corrupt prob", "corrupted msgs", "bad time (s)", "bad time (%)", "census at end")
	horizon := msgnet.Time(120)
	if cfg.quick {
		horizon = 40
	}
	for _, p := range []float64{0.001, 0.01, 0.05} {
		a := core.New(5, 6)
		r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter, CorruptProb: p},
			Refresh:        mpRefresh,
			Seed:           cfg.seed,
			CoherentCaches: true,
		})
		r.Net.Corrupt = func(rng *rand.Rand, payload core.State) core.State {
			return core.State{X: rng.Intn(6), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
		}
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) {
			c := r.Census(core.HasToken)
			if c >= 1 && c <= 2 {
				c = 1 // collapse the good band
			} else {
				c = 0 // bad instant
			}
			tl.Record(float64(now), c)
		}
		r.Net.Run(horizon)
		tl.Close(float64(r.Net.Now()))
		tb.AddRow(p, r.Net.Stats().Corrupted, tl.Duration(0), pct(tl.Fraction(0)), r.Census(core.HasToken))
	}
	printTable(tb)
	fmt.Println("\nSustained random payload corruption keeps knocking caches over, and")
	fmt.Println("the refresh + fix rules keep healing them: even at 5% corruption the")
	fmt.Println("census spends only a small fraction of time outside [1,2], and the")
	fmt.Println("system is healthy whenever corruption pauses (self-stabilization).")
}

func runLKCS(cfg runConfig) {
	tb := newTable("m (instances)", "steps", "grants range", "distinct holders range", "spec (m,2m)")
	steps := 2000
	if cfg.quick {
		steps = 400
	}
	for m := 1; m <= 3; m++ {
		inner := core.New(6, 7)
		c := compose.New[core.State](inner, m)
		// Stagger the instances around the ring.
		parts := make([]statemodel.Config[core.State], m)
		for j := range parts {
			sim := statemodel.NewSimulator[core.State](inner, daemon.NewCentralLowest(), inner.InitialLegitimate())
			sim.Run(3 * 2 * j)
			parts[j] = sim.Config()
		}
		sim := statemodel.NewSimulator[compose.MultiState[core.State]](c,
			daemon.NewRandomSubset(newRand(cfg.seed), 0.5), c.Pack(parts...))
		minG, maxG := 1<<30, -1
		minH, maxH := 1<<30, -1
		ok := true
		for s := 0; s < steps; s++ {
			if _, alive := sim.Step(); !alive {
				ok = false
				break
			}
			g := c.Grants(sim.Config(), core.HasToken)
			h := len(c.HoldersAny(sim.Config(), core.HasToken))
			minG, maxG = min(minG, g), max(maxG, g)
			minH, maxH = min(minH, h), max(maxH, h)
		}
		verdict := "PASS"
		if !ok || minG < m || maxG > 2*m {
			verdict = "FAIL"
		}
		tb.AddRow(m, steps, fmt.Sprintf("%d..%d", minG, maxG),
			fmt.Sprintf("%d..%d", minH, maxH), verdict)
	}
	printTable(tb)
	fmt.Println("\nComposing m independent SSRmin instances yields a (m, 2m)-critical-")
	fmt.Println("section system in the sense of reference [9]: the number of privilege")
	fmt.Println("grants stays within [m, 2m] at every step after convergence.")
}

func init() {
	register(260, "outage", "Model boundary: permanent link cut vs the eventual-delivery assumption", runOutage)
}

// runOutage cuts one ring edge for a while and measures coverage. It
// documents the boundary of Theorem 3: the model-gap tolerance needs every
// state update to be *eventually* delivered (Lemma 9's fairness). A
// permanent duplex cut can freeze exactly the caches the token predicates
// read, and the ring goes dark until the edge heals — after which
// self-stabilization restores the 1–2 regime unaided.
func runOutage(cfg runConfig) {
	tb := newTable("seed", "dark during cut (s)", "dark after heal+settle (s)", "recovered")
	seeds := []int64{1, 2, 3, 4, 5}
	if cfg.quick {
		seeds = seeds[:3]
	}
	// Independent seeded outages: fan out over parsweep with the shared
	// core.State arena pool, then print rows in seed order.
	type row struct {
		darkDuring, darkAfter float64
		recovered             bool
	}
	rows := parsweep.MapWith(len(seeds), 0, mpArenas, func(i int, arena *msgnet.Arena[core.State]) row {
		a := core.New(5, 6)
		r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter},
			Refresh:        mpRefresh,
			Seed:           seeds[i],
			CoherentCaches: true,
			Arena:          arena,
		})
		r.Net.Run(1)
		r.Net.SetLinkUp(1, 2, false)
		r.Net.SetLinkUp(2, 1, false)
		var during verify.Timeline
		r.Net.Observer = func(now msgnet.Time) {
			during.Record(float64(now), boolToCount(r.Census(core.HasToken) >= 1))
		}
		r.Net.Run(11)
		during.Close(float64(r.Net.Now()))

		r.Net.SetLinkUp(1, 2, true)
		r.Net.SetLinkUp(2, 1, true)
		r.Net.Observer = nil
		settle := r.Net.Now() + 5
		r.Net.Run(settle)
		var after verify.Timeline
		recovered := true
		r.Net.Observer = func(now msgnet.Time) {
			c := r.Census(core.HasToken)
			after.Record(float64(now), boolToCount(c >= 1))
			if c < 1 || c > 2 {
				recovered = false
			}
		}
		r.Net.Run(settle + 10)
		after.Close(float64(r.Net.Now()))
		return row{darkDuring: during.Duration(0), darkAfter: after.Duration(0), recovered: recovered}
	})
	for i, rw := range rows {
		tb.AddRow(seeds[i], rw.darkDuring, rw.darkAfter, rw.recovered)
	}
	printTable(tb)
	fmt.Println("\nA permanent duplex cut exceeds the paper's fault model (which requires")
	fmt.Println("eventual delivery): if the cut catches a handover mid-flight the ring")
	fmt.Println("can stay dark for the whole outage, because the privilege predicates")
	fmt.Println("read frozen caches. The moment the edge heals, self-stabilization")
	fmt.Println("restores the 1–2 regime with no intervention.")
}

func boolToCount(ok bool) int {
	if ok {
		return 1
	}
	return 0
}

func init() {
	register(270, "secondary", "Design choice of §3.1: naive (tra-only) vs designed secondary-token condition", runSecondaryCondition)
}

// runSecondaryCondition quantifies the discussion at the end of Section
// 3.1: with the naive condition "tra_i = 1", the secondary token goes
// extinct whenever the two tokens are co-located and announced; with the
// designed condition it exists at every instant, even through the
// message-passing transients. (The privileged census stays ≥1 under both —
// the primary token covers the naive condition's hole — but any
// application riding specifically on the secondary token, e.g. a
// second service role, would see outages.)
func runSecondaryCondition(cfg runConfig) {
	tb := newTable("condition", "0 secondaries", "1 secondary", "2 secondaries", "min")
	const horizon = 30.0
	for _, mode := range []string{"naive (tra only)", "designed (§3.1)"} {
		holder := core.HasSecondary
		if mode == "naive (tra only)" {
			holder = core.HasSecondaryNaive
		}
		a := core.New(5, 6)
		r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter},
			Refresh:        mpRefresh,
			Hold:           0.02,
			Seed:           cfg.seed,
			CoherentCaches: true,
		})
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) {
			tl.Record(float64(now), r.Census(holder))
		}
		r.Net.Run(msgnet.Time(horizon))
		tl.Close(float64(r.Net.Now()))
		tb.AddRow(mode, pct(tl.Fraction(0)), pct(tl.Fraction(1)), pct(tl.Fraction(2)), tl.MinCount())
	}
	printTable(tb)
	fmt.Println("\nThe naive condition loses the secondary token for a third of the time")
	fmt.Println("(every co-located-and-announced phase); the designed ⟨?.1⟩ ∨ ⟨1.?, 0.0⟩")
	fmt.Println("condition never loses it — it trades extinction for brief, harmless")
	fmt.Println("duplication while the ack is in flight (at-least-one semantics). This")
	fmt.Println("is the model-gap-tolerant design choice at the end of Section 3.1.")
}

func init() {
	register(280, "transforms", "Transform comparison: CST vs α-synchronizer — scheduling cannot close the gap", runTransforms)
}

// runTransforms compares the two execution transforms on both algorithms.
// The α-synchronizer simulates the synchronous daemon exactly (at a higher
// message cost), yet plain SSToken still shows zero-token instants under
// it: the model gap lives in the token predicates, not in the scheduling —
// which is why the paper fixes it with model-gap-tolerant conditions
// (SSRmin) on top of the cheap transform rather than with a stronger one.
func runTransforms(cfg runConfig) {
	const horizon = 30.0
	link := msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter}
	tb := newTable("algorithm", "transform", "0 holders", "min..max", "msgs/s", "advances/s")

	// SSToken under CST.
	{
		a := dijkstra.New(5, 6)
		r := cst.NewRing[dijkstra.State](a, a.InitialLegitimate(), cst.Options[dijkstra.State]{
			Link: link, Refresh: mpRefresh, Hold: 0.02, Seed: cfg.seed, CoherentCaches: true,
		})
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) { tl.Record(float64(now), r.Census(dijkstra.HasToken)) }
		r.Net.Run(horizon)
		tl.Close(float64(r.Net.Now()))
		tb.AddRow("sstoken", "CST", pct(tl.Fraction(0)),
			fmt.Sprintf("%d..%d", tl.MinCount(), tl.MaxCount()),
			float64(r.Net.Stats().Sent)/horizon, float64(r.RuleExecutions())/horizon)
	}
	// SSToken under the α-synchronizer.
	{
		a := dijkstra.New(5, 6)
		r := synchro.NewRing[dijkstra.State](a, a.InitialLegitimate(), link, mpRefresh, cfg.seed)
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) { tl.Record(float64(now), r.Census(dijkstra.HasToken)) }
		r.Net.Run(horizon)
		tl.Close(float64(r.Net.Now()))
		tb.AddRow("sstoken", "α-synchronizer", pct(tl.Fraction(0)),
			fmt.Sprintf("%d..%d", tl.MinCount(), tl.MaxCount()),
			float64(r.Net.Stats().Sent)/horizon, float64(r.RuleExecutions())/horizon)
	}
	// SSRmin under CST.
	{
		a := core.New(5, 6)
		r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
			Link: link, Refresh: mpRefresh, Hold: 0.02, Seed: cfg.seed, CoherentCaches: true,
		})
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) { tl.Record(float64(now), r.Census(core.HasToken)) }
		r.Net.Run(horizon)
		tl.Close(float64(r.Net.Now()))
		tb.AddRow("ssrmin", "CST", pct(tl.Fraction(0)),
			fmt.Sprintf("%d..%d", tl.MinCount(), tl.MaxCount()),
			float64(r.Net.Stats().Sent)/horizon, float64(r.RuleExecutions())/horizon/3)
	}
	// SSRmin under the α-synchronizer.
	{
		a := core.New(5, 6)
		r := synchro.NewRing[core.State](a, a.InitialLegitimate(), link, mpRefresh, cfg.seed)
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) { tl.Record(float64(now), r.Census(core.HasToken)) }
		r.Net.Run(horizon)
		tl.Close(float64(r.Net.Now()))
		tb.AddRow("ssrmin", "α-synchronizer", pct(tl.Fraction(0)),
			fmt.Sprintf("%d..%d", tl.MinCount(), tl.MaxCount()),
			float64(r.Net.Stats().Sent)/horizon, float64(r.RuleExecutions())/horizon/3)
	}
	printTable(tb)
	fmt.Println("\nExact lockstep simulation does not save the plain token ring: its")
	fmt.Println("token predicate still evaluates to false everywhere between the")
	fmt.Println("release and the (observed) receipt. SSRmin's predicates keep 1–2")
	fmt.Println("holders under BOTH transforms — and the cheap CST suffices, which is")
	fmt.Println("precisely the paper's design argument (Sections 1.3 and 5).")
}

func init() {
	register(290, "worstcase", "Adversarial search for worst-case convergence starts (vs random, vs exact)", runWorstCase)
}

// runWorstCase hill-climbs over initial configurations (under the
// quiet-adversary daemon) to find slow-converging starts, compares them
// with the best of equally many random samples, and — for n ≤ 4 — with the
// exact worst case over ALL daemons from the model checker. The remaining
// gap to the exact value shows how much of the worst case is daemon
// strategy rather than starting configuration.
func runWorstCase(cfg runConfig) {
	tb := newTable("n", "random best", "search best", "exact (all daemons)", "budget 63n²+4")
	ns := []int{3, 4, 6, 8, 12}
	if cfg.quick {
		ns = []int{3, 4, 6}
	}
	for _, n := range ns {
		a := core.New(n, n+1)
		measure := func(init statemodel.Config[core.State]) int {
			d := daemon.NewRuleBiased(rand.New(rand.NewSource(7)),
				core.RuleReadySecondary, core.RuleRecvSecondary, core.RuleFixNoG)
			sim := statemodel.NewSimulator[core.State](a, d, init)
			steps, ok := sim.RunUntil(a.Legitimate, a.ConvergenceStepBound())
			if !ok {
				return a.ConvergenceStepBound() + 1
			}
			return steps
		}
		draw := func(rng *rand.Rand) statemodel.Config[core.State] {
			return randomConfig(a, rng)
		}
		mutate := func(rng *rand.Rand, s core.State) core.State {
			switch rng.Intn(3) {
			case 0:
				s.X = rng.Intn(a.K())
			case 1:
				s.RTS = !s.RTS
			default:
				s.TRA = !s.TRA
			}
			return s
		}
		evals := 2000
		if cfg.quick {
			evals = 600
		}
		rng := newRand(cfg.seed)
		randomBest := 0
		for i := 0; i < evals; i++ {
			if s := measure(draw(rng)); s > randomBest {
				randomBest = s
			}
		}
		res := adversary.Search[core.State](n, draw, mutate, measure,
			adversary.Options{Restarts: 8, Budget: evals/8 - 1, Seed: cfg.seed})
		exact := "-"
		if n <= 4 {
			_, e, lam := modelCheck(a)
			conv, _ := e.CheckConvergence(lam)
			exact = fmt.Sprintf("%d", conv.WorstSteps)
		}
		tb.AddRow(n, randomBest, res.Score, exact, a.ConvergenceStepBound())
	}
	printTable(tb)
	fmt.Println("\nHill-climbing on the start finds little beyond random sampling, and")
	fmt.Println("both sit well below the exact worst case (which maximizes over every")
	fmt.Println("daemon strategy, not just the quiet adversary): the hard part of the")
	fmt.Println("O(n²) worst case is the SCHEDULE, not the starting configuration.")
}

func init() {
	register(300, "herman", "Baseline: Herman's probabilistic token ring vs the deterministic rings", runHerman)
}

// runHerman situates SSRmin among token rings: Herman's 1990 ring uses a
// single bit per process and randomization (synchronous schedule, odd n),
// converging in expected Θ(n²) rounds; Dijkstra's SSToken and SSRmin are
// deterministic under the unfair daemon with K > n counter values. None of
// the two baselines offers mutual inclusion in the message-passing model —
// that is SSRmin's contribution.
func runHerman(cfg runConfig) {
	ns := []int{5, 9, 15, 25}
	trials := 300
	if cfg.quick {
		ns = ns[:3]
		trials = 100
	}
	tb := newTable("n", "mean rounds", "p90", "max", "4n²/27 (worst E[T])", "states/proc")
	var xs, ys []float64
	for _, n := range ns {
		samples := parsweep.Map(trials, 0, func(t int) float64 {
			r := herman.New(n, cfg.seed+int64(n*10_000+t))
			r.Randomize()
			steps, ok := r.RunUntilStable(int(1000 * herman.WorstCaseExpected(n)))
			if !ok {
				return -1
			}
			return float64(steps)
		})
		for _, s := range samples {
			if s < 0 {
				fmt.Printf("FAIL: n=%d did not converge\n", n)
				return
			}
		}
		sum := stats.Summarize(samples)
		tb.AddRow(n, sum.Mean, sum.P90, sum.Max, herman.WorstCaseExpected(n), 2)
		xs = append(xs, float64(n))
		ys = append(ys, sum.Mean+1)
	}
	printTable(tb)
	fmt.Printf("observed mean-rounds growth exponent: n^%.2f (theory: n²)\n", stats.GrowthExponent(xs, ys))
	fmt.Println("\nHerman's ring: 2 states/process and probability-1 convergence under")
	fmt.Println("a synchronous scheduler, vs SSRmin's 4K states and deterministic")
	fmt.Println("convergence under the unfair daemon. Like SSToken, Herman's single")
	fmt.Println("token gives no mutual inclusion once messages have latency.")
}

func init() {
	register(310, "fairness", "Fairness: the privilege shares monitoring work almost perfectly evenly", runFairness)
}

// runFairness measures how evenly the circulating privilege distributes
// critical-section time across stations — the energy story of the paper's
// camera application depends on it. Jain's index is 1.0 for perfectly
// equal shares.
func runFairness(cfg runConfig) {
	tb := newTable("n", "horizon (s)", "mean duty", "min duty", "max duty", "Jain index")
	horizon := msgnet.Time(120)
	if cfg.quick {
		horizon = 40
	}
	for _, n := range []int{4, 6, 10, 16} {
		a := core.New(n, n+1)
		r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter},
			Refresh:        mpRefresh,
			Seed:           cfg.seed,
			CoherentCaches: true,
		})
		// Integrate per-node privileged time via the observer.
		busy := make([]float64, n)
		last := 0.0
		holders := map[int]bool{}
		r.Net.Observer = func(now msgnet.Time) {
			dt := float64(now) - last
			for h := range holders {
				busy[h] += dt
			}
			last = float64(now)
			for k := range holders {
				delete(holders, k)
			}
			for _, h := range r.Holders(core.HasToken) {
				holders[h] = true
			}
		}
		r.Net.Run(horizon)
		duties := make([]float64, n)
		minD, maxD, sum := 1.0, 0.0, 0.0
		for i := range duties {
			duties[i] = busy[i] / float64(horizon)
			if duties[i] < minD {
				minD = duties[i]
			}
			if duties[i] > maxD {
				maxD = duties[i]
			}
			sum += duties[i]
		}
		tb.AddRow(n, float64(horizon), sum/float64(n), minD, maxD, verify.JainFairness(duties))
	}
	printTable(tb)
	fmt.Println("\nJain's fairness index stays ≈1.00: every station gets an equal share")
	fmt.Println("of the monitoring duty (mean duty ≈ between 1/n and 2/n), which is")
	fmt.Println("what keeps every battery alive in the camera application.")
}

func init() {
	register(320, "tcp", "Real sockets: SSRmin as TCP services on loopback (wall clock)", runTCP)
}

// runTCP is the only wall-clock experiment: it starts an SSRmin ring as
// real TCP services on loopback, samples the census for a second, injects
// a live fault and samples again. Numbers vary with machine load; the
// *invariants* (census range, full circulation, recovery) must not.
func runTCP(cfg runConfig) {
	secs := 1.0
	if cfg.quick {
		secs = 0.5
	}
	ring, err := netring.StartLocalRing(5, 6, 10*time.Millisecond)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer ring.Stop()
	time.Sleep(100 * time.Millisecond)

	sample := func(d time.Duration) (min, max, samples int, visited map[int]bool) {
		min, max = 1<<30, -1
		visited = map[int]bool{}
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			c := ring.Census()
			samples++
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
			for _, h := range ring.Holders() {
				visited[h] = true
			}
			time.Sleep(300 * time.Microsecond)
		}
		return
	}

	min1, max1, n1, visited := sample(time.Duration(secs * float64(time.Second)))
	fmt.Printf("clean phase:   %d samples, census [%d,%d], %d/%d nodes privileged at some point\n",
		n1, min1, max1, len(visited), 5)

	ring.Nodes[2].Inject(core.State{X: 4, RTS: true, TRA: true})
	time.Sleep(300 * time.Millisecond) // recovery window
	min2, max2, n2, _ := sample(time.Duration(secs * float64(time.Second) / 2))
	fmt.Printf("after a live fault + recovery: %d samples, census [%d,%d]\n", n2, min2, max2)
	fmt.Printf("total rule executions: %d\n", ring.RuleExecutions())

	if min1 >= 1 && max1 <= 2 && min2 >= 1 && max2 <= 2 && len(visited) == 5 {
		fmt.Println("\nPASS: mutual inclusion with graceful handover held on real sockets,")
		fmt.Println("through a live transient fault — the paper's guarantee, deployed.")
	} else {
		fmt.Println("\nWARN: census excursion observed (heavily loaded machine?)")
	}
}
