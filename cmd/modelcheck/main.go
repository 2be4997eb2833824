// Command modelcheck exhaustively verifies the paper's lemmas on small
// SSRmin (and SSToken) instances by walking the full configuration space
// under the unfair distributed daemon:
//
//   - Lemma 1  (closure): every successor of a legitimate configuration is
//     legitimate, and exactly one process is enabled in Λ.
//   - Lemma 4  (no deadlock): every configuration has an enabled process.
//   - Lemma 5  (quiet bound): executions using only Rules 1/3/5 are finite
//     and at most 3n steps long.
//   - Lemma 6 / Theorem 2 (convergence): no execution avoids Λ forever;
//     the exact worst-case stabilization time is reported.
//   - Theorem 1: 1 ≤ privileged ≤ 2 in every legitimate configuration.
//
// By default the checks run on the table-compiled parallel ID-space engine
// (internal/check.Engine): guards and commands are compiled once into
// per-class transition tables and every scan — including the convergence
// longest-path analysis — works on dense uint64 configuration IDs sharded
// across -workers goroutines. That makes the n=5, K=6 instance (24⁵ ≈
// 7.96M configurations) exhaustively checkable.
//
// The process exits non-zero on any lemma violation, so `make modelcheck`
// can gate CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ssrmin/internal/check"
	"ssrmin/internal/cliconf"
	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/inclusion"
)

func main() {
	var cc cliconf.Config
	cc.BindRing(flag.CommandLine, 3)
	var (
		algF    = flag.String("alg", "ssrmin", "algorithm: ssrmin | sstoken")
		maxConf = flag.Uint64("max-configs", 50_000_000, "refuse spaces larger than this")
		workers = flag.Int("workers", 0, "parallel workers for all engine scans (0 = GOMAXPROCS)")
	)
	var prof cliconf.Profile
	prof.Bind(flag.CommandLine)
	flag.Parse()
	if err := cc.ResolveK(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ok := true
	switch *algF {
	case "ssrmin":
		ok = checkSSRmin(cc.N, cc.K, *maxConf, *workers)
	case "sstoken":
		ok = checkSSToken(cc.N, cc.K, *maxConf, *workers)
	default:
		prof.Stop()
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algF)
		os.Exit(2)
	}
	// os.Exit skips deferred calls: flush the profiles before gating CI.
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if !ok {
		os.Exit(1)
	}
}

// phase prints one check's verdict with its wall time and throughput in
// configurations per second.
func phase(name string, pass bool, detail string, configs uint64, dt time.Duration) {
	verdict := "PASS"
	if !pass {
		verdict = "FAIL"
	}
	rate := float64(configs) / dt.Seconds()
	fmt.Printf("%s %-44s [%8v  %10.3g cfg/s]", verdict, name+": "+detail, dt.Round(time.Millisecond), rate)
	fmt.Println()
}

func checkSSRmin(n, k int, maxConf uint64, workers int) bool {
	a := core.New(n, k)
	c := check.New[core.State](a, maxConf)
	total := c.NumConfigs()

	start := time.Now()
	eng, err := c.Compile(workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "table compilation failed: %v\n", err)
		return false
	}
	fmt.Printf("== %s: |Γ| = %d configurations, %d workers, tables compiled in %v ==\n",
		a.Name(), total, eng.Workers(), time.Since(start).Round(time.Millisecond))
	ok := true

	start = time.Now()
	lam := eng.LegitSet(a.Legitimate)
	fmt.Printf("     Λ bitmap built: |Λ| = %d                       [%8v  %10.3g cfg/s]\n",
		lam.Count(), time.Since(start).Round(time.Millisecond), float64(total)/time.Since(start).Seconds())

	start = time.Now()
	cex, fine := eng.CheckNoDeadlock()
	phase("Lemma 4 (no deadlock)", fine, "every config enabled", total, time.Since(start))
	if !fine {
		fmt.Printf("     deadlocked at %v\n", cex)
		ok = false
	}

	start = time.Now()
	rep := eng.CheckClosure(lam)
	closureOK := rep.Counterexample == nil && rep.MaxEnabled == 1
	phase("Lemma 1 (closure)", closureOK,
		fmt.Sprintf("|Λ| = %d, max enabled %d", rep.Legitimate, rep.MaxEnabled), rep.Legitimate, time.Since(start))
	if rep.Counterexample != nil {
		fmt.Printf("     counterexample %v -> %v\n", rep.Counterexample, rep.Successor)
	}
	ok = ok && closureOK

	// Theorem 1 via the compiled census of the mutual-inclusion layer:
	// token predicates evaluated by table probes over Λ's IDs.
	start = time.Now()
	ct := inclusion.CompileCensus(a.AllStates(), n, core.HasPrimary, core.HasSecondary)
	censusOK := true
	var badID uint64
	var triples []uint32
	lam.ForEach(func(id uint64) bool {
		triples = eng.Triples(id, triples)
		p, s, priv := ct.Counts(triples)
		if !(p == 1 && s == 1 && priv >= 1 && priv <= 2) {
			censusOK, badID = false, id
			return false
		}
		return true
	})
	phase("Theorem 1 (1 ≤ privileged ≤ 2 in Λ)", censusOK, "compiled census", lam.Count(), time.Since(start))
	if !censusOK {
		fmt.Printf("     violated at %v\n", c.Decode(badID))
		ok = false
	}

	start = time.Now()
	steps, from, fine := eng.LongestRestricted(map[int]bool{
		core.RuleReadySecondary: true, core.RuleRecvSecondary: true, core.RuleFixNoG: true,
	})
	quietOK := fine && steps <= 3*n
	phase("Lemma 5 (quiet bound)", quietOK,
		fmt.Sprintf("longest {1,3,5}-run %d ≤ 3n = %d", steps, 3*n), total, time.Since(start))
	if !fine {
		fmt.Printf("     infinite quiet execution from %v\n", from)
	} else if steps > 3*n {
		fmt.Printf("     quiet execution of %d steps from %v\n", steps, from)
	}
	ok = ok && quietOK

	start = time.Now()
	conv, stats := eng.CheckConvergence(lam)
	convOK := conv.Converges && conv.WorstSteps <= a.ConvergenceStepBound()
	phase("Lemma 6/Theorem 2 (convergence)", convOK,
		fmt.Sprintf("worst %d ≤ 63n²+4 = %d", conv.WorstSteps, a.ConvergenceStepBound()), total, time.Since(start))
	if !conv.Converges {
		fmt.Printf("     cycle through %v\n", conv.Cycle)
	} else {
		fmt.Printf("     |Γ∖Λ| = %d, worst start %v, graph edges %d, peak DFS depth %d, bookkeeping %.1f MiB\n",
			conv.Illegitimate, conv.WorstStart, stats.Edges, stats.Layers,
			float64(stats.BookkeepingBytes)/(1<<20))
	}
	return ok && convOK
}

func checkSSToken(n, k int, maxConf uint64, workers int) bool {
	a := dijkstra.New(n, k)
	c := check.New[dijkstra.State](a, maxConf)
	total := c.NumConfigs()
	eng, err := c.Compile(workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "table compilation failed: %v\n", err)
		return false
	}
	fmt.Printf("== %s: |Γ| = %d configurations, %d workers ==\n", a.Name(), total, eng.Workers())
	ok := true

	start := time.Now()
	lam := eng.LegitSet(a.Legitimate)
	cex, fine := eng.CheckNoDeadlock()
	phase("no deadlock", fine, "every config enabled", total, time.Since(start))
	if !fine {
		fmt.Printf("     deadlocked at %v\n", cex)
		ok = false
	}

	start = time.Now()
	rep := eng.CheckClosure(lam)
	phase("closure", rep.Counterexample == nil,
		fmt.Sprintf("|Λ| = %d, max enabled %d", rep.Legitimate, rep.MaxEnabled), rep.Legitimate, time.Since(start))
	if rep.Counterexample != nil {
		fmt.Printf("     counterexample %v -> %v\n", rep.Counterexample, rep.Successor)
		ok = false
	}

	start = time.Now()
	conv, stats := eng.CheckConvergence(lam)
	convOK := conv.Converges
	phase("convergence", convOK,
		fmt.Sprintf("worst %d (bound 3n(n−1)/2 = %d)", conv.WorstSteps, a.ConvergenceBound()), total, time.Since(start))
	if !conv.Converges {
		fmt.Printf("     cycle through %v\n", conv.Cycle)
	} else {
		fmt.Printf("     |Γ∖Λ| = %d, edges %d, peak DFS depth %d, bookkeeping %.1f MiB\n",
			conv.Illegitimate, stats.Edges, stats.Layers, float64(stats.BookkeepingBytes)/(1<<20))
	}
	return ok && convOK
}
