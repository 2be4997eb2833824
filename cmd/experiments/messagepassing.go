package main

import (
	"fmt"
	"os"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/fault"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/parsweep"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/trace"
	"ssrmin/internal/verify"
)

func init() {
	register(100, "fig2", "Figure 2: the rts/tra handshake between P_i and P_{i+1}", runFig2)
	register(110, "fig11", "Figure 11: token extinction of SSToken in the message-passing model", runFig11)
	register(120, "fig12", "Figure 12: two independent SSToken instances still go tokenless", runFig12)
	register(130, "fig13", "Figure 13 / Theorem 3: SSRmin keeps 1–2 holders through every transient", runFig13)
	register(140, "theorem4", "Theorem 4: stabilization from arbitrary states, caches and loss", runTheorem4)
	register(150, "handover", "Graceful handover: coverage-gap comparison SSRmin vs SSToken", runHandover)
	register(160, "overhead", "Message and rule overhead of the graceful handover", runOverhead)
}

const (
	mpDelay   = 0.01
	mpJitter  = 0.002
	mpRefresh = 0.05
)

// mpArenas hands each sweep worker a reusable event arena for the
// core.State rings; consecutive experiments recycle the same arenas
// (reset-not-reallocate), shared by every parallel sweep in this
// command that simulates SSRmin rings.
var mpArenas = parsweep.NewPool(msgnet.NewArena[core.State])

func runFig2(cfg runConfig) {
	// Trace one full handover in the message-passing model, logging every
	// rule execution with the census before/after — the handshake of
	// Figure 2 with the transient periods of Figure 13.
	a := core.New(5, 6)
	r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
		Link:           msgnet.LinkParams{Delay: mpDelay},
		Refresh:        mpRefresh,
		Seed:           cfg.seed,
		CoherentCaches: true,
	})
	fmt.Println("time(s)  node  rule                 census after")
	events := 0
	for i, nd := range r.Nodes {
		id := i
		nd.OnExecute = func(now msgnet.Time, rule int) {
			if events >= 9 {
				return
			}
			events++
			fmt.Printf("%7.3f  P%d    %-20s %d holder(s) %v\n",
				float64(now), id, core.RuleName(rule), r.Census(core.HasToken), r.Holders(core.HasToken))
		}
	}
	st := trace.NewSpaceTime(a.N())
	trace.Attach(st, r.Net)
	for i, nd := range r.Nodes {
		id := i
		prev := nd.OnExecute
		nd.OnExecute = func(now msgnet.Time, rule int) {
			st.Annotate(now, id, fmt.Sprintf("R%d", rule))
			if prev != nil {
				prev(now, rule)
			}
		}
	}
	st.Limit = 60
	r.Net.Run(3)
	fmt.Println("\nspace-time diagram of the first events (s→k send, r←k receive,")
	fmt.Println("T refresh timer, Rk rule execution):")
	if err := st.Render(os.Stdout); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Println("\nEach position advance is the three-step handshake of Figure 2:")
	fmt.Println("R1 (ready-to-send) at P_i, R3 (receive ack) at P_{i+1}, R2 (send")
	fmt.Println("primary) at P_i — and the census never leaves {1, 2}.")
}

func runFig11(cfg runConfig) {
	tb := newTable("dwell (s)", "0 holders", "1 holder", "2+ holders", "min census")
	for _, hold := range []msgnet.Time{0, 0.02, 0.05} {
		a := dijkstra.New(5, 6)
		r := cst.NewRing[dijkstra.State](a, a.InitialLegitimate(), cst.Options[dijkstra.State]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter},
			Refresh:        mpRefresh,
			Hold:           hold,
			Seed:           cfg.seed,
			CoherentCaches: true,
		})
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) {
			tl.Record(float64(now), r.Census(dijkstra.HasToken))
		}
		r.Net.Run(30)
		tl.Close(float64(r.Net.Now()))
		two := 0.0
		for _, c := range tl.Counts() {
			if c >= 2 {
				two += tl.Fraction(c)
			}
		}
		tb.AddRow(float64(hold), pct(tl.Fraction(0)), pct(tl.Fraction(1)), pct(two), tl.MinCount())
	}
	printTable(tb)
	fmt.Println("\nPlain SSToken under CST: whenever the (unique) token is in flight")
	fmt.Println("between the release at P_i and the receipt at P_{i+1}, NO node is")
	fmt.Println("privileged — mutual inclusion fails in the message-passing model,")
	fmt.Println("exactly the defect Figure 11 illustrates.")
}

func runFig12(cfg runConfig) {
	p := dijkstra.NewPair(5, 6)
	init := make(statemodel.Config[dijkstra.PairState], 5)
	for i := range init {
		if i < 2 {
			init[i] = dijkstra.PairState{A: 0, B: 1}
		} else {
			init[i] = dijkstra.PairState{A: 0, B: 0}
		}
	}
	holderEither := func(v statemodel.View[dijkstra.PairState]) bool {
		va := statemodel.View[dijkstra.State]{I: v.I, N: v.N, Self: dijkstra.State{X: v.Self.A}, Pred: dijkstra.State{X: v.Pred.A}, Succ: dijkstra.State{X: v.Succ.A}}
		vb := statemodel.View[dijkstra.State]{I: v.I, N: v.N, Self: dijkstra.State{X: v.Self.B}, Pred: dijkstra.State{X: v.Pred.B}, Succ: dijkstra.State{X: v.Succ.B}}
		return dijkstra.Guard(va) || dijkstra.Guard(vb)
	}
	tb := newTable("seed", "0 holders", "1 holder", "2 holders", "min census")
	seeds := []int64{1, 2, 3, 4, 5}
	if cfg.quick {
		seeds = seeds[:2]
	}
	// Each seed is an independent simulation, so the sweep fans out over
	// parsweep with one reusable event arena per worker; rows come back
	// in seed order, so the table is identical to the sequential run.
	pool := parsweep.NewPool(msgnet.NewArena[dijkstra.PairState])
	type row struct {
		tl verify.Timeline
	}
	rows := parsweep.MapWith(len(seeds), 0, pool, func(i int, arena *msgnet.Arena[dijkstra.PairState]) row {
		r := cst.NewRing[dijkstra.PairState](p, init, cst.Options[dijkstra.PairState]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: 0.005},
			Refresh:        mpRefresh,
			Hold:           0.02,
			Seed:           seeds[i],
			CoherentCaches: true,
			Arena:          arena,
		})
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) {
			tl.Record(float64(now), r.Census(holderEither))
		}
		r.Net.Run(30)
		tl.Close(float64(r.Net.Now()))
		return row{tl: tl}
	})
	for i, rw := range rows {
		tl := rw.tl
		tb.AddRow(seeds[i], pct(tl.Fraction(0)), pct(tl.Fraction(1)), pct(tl.Fraction(2)), tl.MinCount())
	}
	printTable(tb)
	fmt.Println("\nEven two concurrent, independent token rings reach instants where both")
	fmt.Println("tokens are in flight simultaneously (census 0) — uncoordinated")
	fmt.Println("redundancy does not give mutual inclusion (Figure 12).")
}

func runFig13(cfg runConfig) {
	tb := newTable("seed", "loss", "dwell", "0 holders", "1 holder", "2 holders", "violations")
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if cfg.quick {
		seeds = seeds[:3]
	}
	// Flatten the loss × seed grid into independent trials and fan out
	// over parsweep with worker-scoped arenas; results return in trial
	// order, so the printed table matches the sequential nesting.
	type trial struct {
		loss float64
		seed int64
	}
	var trials []trial
	for _, loss := range []float64{0, 0.1} {
		for _, seed := range seeds {
			trials = append(trials, trial{loss: loss, seed: seed})
		}
	}
	type row struct {
		tl         verify.Timeline
		violations int
	}
	rows := parsweep.MapWith(len(trials), 0, mpArenas, func(i int, arena *msgnet.Arena[core.State]) row {
		tr := trials[i]
		a := core.New(5, 6)
		r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter, LossProb: tr.loss},
			Refresh:        mpRefresh,
			Hold:           0.02,
			Seed:           tr.seed,
			CoherentCaches: true,
			Arena:          arena,
		})
		var tl verify.Timeline
		mon := verify.Monitor{Bounds: verify.SSRminBounds}
		r.Net.Observer = func(now msgnet.Time) {
			c := r.Census(core.HasToken)
			tl.Record(float64(now), c)
			mon.Observe(float64(now), c)
		}
		r.Net.Run(30)
		tl.Close(float64(r.Net.Now()))
		return row{tl: tl, violations: len(mon.Violations)}
	})
	for i, rw := range rows {
		tr, tl := trials[i], rw.tl
		tb.AddRow(tr.seed, tr.loss, 0.02, pct(tl.Fraction(0)), pct(tl.Fraction(1)), pct(tl.Fraction(2)), rw.violations)
	}
	printTable(tb)
	fmt.Println("\nSSRmin through the same transform: the census NEVER leaves {1, 2} —")
	fmt.Println("zero violations at every observed instant, with and without message")
	fmt.Println("loss. This is the model gap tolerance of Theorem 3 (Figure 13).")
}

func runTheorem4(cfg runConfig) {
	trials := 10
	if cfg.quick {
		trials = 4
	}
	tb := newTable("trial", "loss", "stabilized at (s)", "census after", "coherent")
	inj := fault.NewInjector(cfg.seed)
	for trial := 0; trial < trials; trial++ {
		loss := 0.1
		a := core.New(6, 8)
		init := make(statemodel.Config[core.State], 6)
		for i := range init {
			init[i] = a.RandomState(inj.Rand())
		}
		r := cst.NewRing[core.State](a, init, cst.Options[core.State]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter, LossProb: loss},
			Refresh:        mpRefresh,
			Seed:           cfg.seed + int64(trial),
			CoherentCaches: false,
			RandomState:    a.RandomState,
		})
		// Track the last instant at which the invariant was violated.
		lastBad := -1.0
		r.Net.Observer = func(now msgnet.Time) {
			c := r.Census(core.HasToken)
			if c < 1 || c > 2 {
				lastBad = float64(now)
			}
		}
		const horizon = 120
		r.Net.Run(horizon)
		tb.AddRow(trial, loss, fmt.Sprintf("%.2f", lastBad), r.Census(core.HasToken), r.Coherent())
	}
	printTable(tb)
	fmt.Println("\n\"stabilized at\" is the last instant the census left [1,2]; -1 means")
	fmt.Println("it never did. From arbitrary states, arbitrary caches and 10% message")
	fmt.Println("loss, every run settles into the 1–2 holder regime and stays there")
	fmt.Println("(Theorem 4 / Lemma 9).")
}

func runHandover(cfg runConfig) {
	// Coverage gaps: the application-level consequence. A station is
	// active while privileged; measure total un-covered time.
	tb := newTable("algorithm", "dwell (s)", "gaps", "total gap (s)", "longest gap (s)", "availability")
	const horizon = 60.0
	{
		a := dijkstra.New(5, 6)
		r := cst.NewRing[dijkstra.State](a, a.InitialLegitimate(), cst.Options[dijkstra.State]{
			Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter},
			Refresh:        mpRefresh,
			Hold:           0.02,
			Seed:           cfg.seed,
			CoherentCaches: true,
		})
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) {
			tl.Record(float64(now), r.Census(dijkstra.HasToken))
		}
		r.Net.Run(msgnet.Time(horizon))
		tl.Close(float64(r.Net.Now()))
		gaps := tl.Intervals(0)
		longest := 0.0
		for _, g := range gaps {
			if g.Len() > longest {
				longest = g.Len()
			}
		}
		tb.AddRow("sstoken", 0.02, len(gaps), tl.Duration(0), longest, pct(verify.Availability(&tl)))
	}
	{
		a, r := ssrminMPRingSimple(5, 6, cfg.seed, 0.02)
		_ = a
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) {
			tl.Record(float64(now), r.Census(core.HasToken))
		}
		r.Net.Run(msgnet.Time(horizon))
		tl.Close(float64(r.Net.Now()))
		gaps := tl.Intervals(0)
		longest := 0.0
		for _, g := range gaps {
			if g.Len() > longest {
				longest = g.Len()
			}
		}
		tb.AddRow("ssrmin", 0.02, len(gaps), tl.Duration(0), longest, pct(verify.Availability(&tl)))
	}
	printTable(tb)
	fmt.Println("\nThe handover is graceful for SSRmin: zero coverage gaps over the whole")
	fmt.Println("run, versus hundreds of gaps (one per hop) for the naive token ring.")
}

func ssrminMPRingSimple(n, k int, seed int64, hold msgnet.Time) (*core.Algorithm, *cst.Ring[core.State]) {
	a := core.New(n, k)
	r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
		Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter},
		Refresh:        mpRefresh,
		Hold:           hold,
		Seed:           seed,
		CoherentCaches: true,
	})
	return a, r
}

func runOverhead(cfg runConfig) {
	// Cost of the graceful handover: rule executions and messages per
	// position advance, SSRmin vs SSToken, across refresh periods.
	tb := newTable("algorithm", "refresh (s)", "advances", "rules/advance", "msgs/advance")
	const horizon = 60.0
	for _, refresh := range []msgnet.Time{0.02, 0.05, 0.1} {
		{
			a := dijkstra.New(5, 6)
			r := cst.NewRing[dijkstra.State](a, a.InitialLegitimate(), cst.Options[dijkstra.State]{
				Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter},
				Refresh:        refresh,
				Seed:           cfg.seed,
				CoherentCaches: true,
			})
			r.Net.Run(msgnet.Time(horizon))
			adv := r.RuleExecutions() // every SSToken rule is one advance
			if adv > 0 {
				tb.AddRow("sstoken", float64(refresh), adv,
					float64(r.RuleExecutions())/float64(adv),
					float64(r.Net.Stats().Sent)/float64(adv))
			}
		}
		{
			a := core.New(5, 6)
			r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
				Link:           msgnet.LinkParams{Delay: mpDelay, Jitter: mpJitter},
				Refresh:        refresh,
				Seed:           cfg.seed,
				CoherentCaches: true,
			})
			advances := 0
			for _, nd := range r.Nodes {
				nd.OnExecute = func(now msgnet.Time, rule int) {
					if rule == core.RuleSendPrimary {
						advances++
					}
				}
			}
			r.Net.Run(msgnet.Time(horizon))
			if advances > 0 {
				tb.AddRow("ssrmin", float64(refresh), advances,
					float64(r.RuleExecutions())/float64(advances),
					float64(r.Net.Stats().Sent)/float64(advances))
			}
		}
	}
	printTable(tb)
	fmt.Println("\nGraceful handover costs ≈3 rule executions per position advance")
	fmt.Println("(Rules 1, 3, 2) instead of SSToken's 1, plus the corresponding state")
	fmt.Println("announcements — the price of never being uncovered.")
}

func pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }
