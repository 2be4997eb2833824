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
// 7.96M configurations) exhaustively checkable. Both algorithms declare
// their digit-shift symmetry, so the engine visits one configuration per
// orbit (|Γ|/K representatives); the header reports both counts.
//
// The process exits 1 on any lemma violation, so `make modelcheck` can
// gate CI, and 2 on a bad flag, including a space larger than
// -max-configs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ssrmin/internal/check"
	"ssrmin/internal/cliconf"
	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/inclusion"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the checks and returns the exit code: 0 when
// every check passes, 1 on a violation, 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("modelcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cc cliconf.Config
	cc.BindRing(fs, 3)
	var (
		algF    = fs.String("alg", "ssrmin", "algorithm: ssrmin | sstoken")
		maxConf = fs.Uint64("max-configs", 50_000_000, "refuse spaces larger than this")
		workers = fs.Int("workers", 0, "parallel workers for all engine scans (0 = GOMAXPROCS)")
	)
	var prof cliconf.Profile
	prof.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := cc.ResolveK(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var states int
	switch *algF {
	case "ssrmin":
		states = len(core.New(cc.N, cc.K).AllStates())
	case "sstoken":
		states = len(dijkstra.New(cc.N, cc.K).AllStates())
	default:
		fmt.Fprintf(stderr, "unknown algorithm %q\n", *algF)
		return 2
	}
	if err := fitSpace(states, cc.N, *maxConf); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var ok bool
	if *algF == "ssrmin" {
		ok = checkSSRmin(stdout, stderr, cc.N, cc.K, *maxConf, *workers)
	} else {
		ok = checkSSToken(stdout, stderr, cc.N, cc.K, *maxConf, *workers)
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(stderr, err)
	}
	if !ok {
		return 1
	}
	return 0
}

// fitSpace rejects a configuration space of q^n above limit, the guard
// check.New enforces by panicking.
func fitSpace(q, n int, limit uint64) error {
	size := uint64(1)
	for i := 0; i < n; i++ {
		if size > limit/uint64(q) {
			return fmt.Errorf("-n %d: |Γ| = %d^%d configurations exceeds -max-configs %d", n, q, n, limit)
		}
		size *= uint64(q)
	}
	return nil
}

// phase prints one check's verdict with its wall time and throughput in
// configurations per second.
func phase(w io.Writer, name string, pass bool, detail string, configs uint64, dt time.Duration) {
	verdict := "PASS"
	if !pass {
		verdict = "FAIL"
	}
	rate := float64(configs) / dt.Seconds()
	fmt.Fprintf(w, "%s %-44s [%8v  %10.3g cfg/s]\n", verdict, name+": "+detail, dt.Round(time.Millisecond), rate)
}

func checkSSRmin(w, stderr io.Writer, n, k int, maxConf uint64, workers int) bool {
	a := core.New(n, k)
	c := check.New[core.State](a, maxConf)
	total := c.NumConfigs()

	start := time.Now()
	eng, err := c.Compile(workers)
	if err != nil {
		fmt.Fprintf(stderr, "table compilation failed: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "== %s: |Γ| = %d configurations (orbit %d, %d representatives), %d workers, tables compiled in %v ==\n",
		a.Name(), total, eng.Orbit(), eng.Representatives(), eng.Workers(), time.Since(start).Round(time.Millisecond))
	ok := true

	start = time.Now()
	lam := eng.LegitSet(a.Legitimate)
	fmt.Fprintf(w, "     Λ bitmap built: |Λ| = %d                       [%8v  %10.3g cfg/s]\n",
		lam.Count(), time.Since(start).Round(time.Millisecond), float64(total)/time.Since(start).Seconds())

	start = time.Now()
	cex, fine := eng.CheckNoDeadlock()
	phase(w, "Lemma 4 (no deadlock)", fine, "every config enabled", total, time.Since(start))
	if !fine {
		fmt.Fprintf(w, "     deadlocked at %v\n", cex)
		ok = false
	}

	start = time.Now()
	rep := eng.CheckClosure(lam)
	closureOK := rep.Counterexample == nil && rep.MaxEnabled == 1
	phase(w, "Lemma 1 (closure)", closureOK,
		fmt.Sprintf("|Λ| = %d, max enabled %d", rep.Legitimate, rep.MaxEnabled), rep.Legitimate, time.Since(start))
	if rep.Counterexample != nil {
		fmt.Fprintf(w, "     counterexample %v -> %v\n", rep.Counterexample, rep.Successor)
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
	phase(w, "Theorem 1 (1 ≤ privileged ≤ 2 in Λ)", censusOK, "compiled census", lam.Count(), time.Since(start))
	if !censusOK {
		fmt.Fprintf(w, "     violated at %v\n", c.Decode(badID))
		ok = false
	}

	start = time.Now()
	steps, from, fine := eng.LongestRestricted(map[int]bool{
		core.RuleReadySecondary: true, core.RuleRecvSecondary: true, core.RuleFixNoG: true,
	})
	quietOK := fine && steps <= 3*n
	phase(w, "Lemma 5 (quiet bound)", quietOK,
		fmt.Sprintf("longest {1,3,5}-run %d ≤ 3n = %d", steps, 3*n), total, time.Since(start))
	if !fine {
		fmt.Fprintf(w, "     infinite quiet execution from %v\n", from)
	} else if steps > 3*n {
		fmt.Fprintf(w, "     quiet execution of %d steps from %v\n", steps, from)
	}
	ok = ok && quietOK

	start = time.Now()
	conv, stats := eng.CheckConvergence(lam)
	convOK := conv.Converges && conv.WorstSteps <= a.ConvergenceStepBound()
	phase(w, "Lemma 6/Theorem 2 (convergence)", convOK,
		fmt.Sprintf("worst %d ≤ 63n²+4 = %d", conv.WorstSteps, a.ConvergenceStepBound()), total, time.Since(start))
	if !conv.Converges {
		fmt.Fprintf(w, "     cycle through %v\n", conv.Cycle)
	} else {
		fmt.Fprintf(w, "     |Γ∖Λ| = %d, worst start %v, graph edges %d, peak DFS depth %d, bookkeeping %.1f MiB\n",
			conv.Illegitimate, conv.WorstStart, stats.Edges, stats.Layers,
			float64(stats.BookkeepingBytes)/(1<<20))
	}
	return ok && convOK
}

func checkSSToken(w, stderr io.Writer, n, k int, maxConf uint64, workers int) bool {
	a := dijkstra.New(n, k)
	c := check.New[dijkstra.State](a, maxConf)
	total := c.NumConfigs()
	eng, err := c.Compile(workers)
	if err != nil {
		fmt.Fprintf(stderr, "table compilation failed: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "== %s: |Γ| = %d configurations (orbit %d, %d representatives), %d workers ==\n",
		a.Name(), total, eng.Orbit(), eng.Representatives(), eng.Workers())
	ok := true

	start := time.Now()
	lam := eng.LegitSet(a.Legitimate)
	cex, fine := eng.CheckNoDeadlock()
	phase(w, "no deadlock", fine, "every config enabled", total, time.Since(start))
	if !fine {
		fmt.Fprintf(w, "     deadlocked at %v\n", cex)
		ok = false
	}

	start = time.Now()
	rep := eng.CheckClosure(lam)
	phase(w, "closure", rep.Counterexample == nil,
		fmt.Sprintf("|Λ| = %d, max enabled %d", rep.Legitimate, rep.MaxEnabled), rep.Legitimate, time.Since(start))
	if rep.Counterexample != nil {
		fmt.Fprintf(w, "     counterexample %v -> %v\n", rep.Counterexample, rep.Successor)
		ok = false
	}

	start = time.Now()
	conv, stats := eng.CheckConvergence(lam)
	convOK := conv.Converges
	phase(w, "convergence", convOK,
		fmt.Sprintf("worst %d (bound 3n(n−1)/2 = %d)", conv.WorstSteps, a.ConvergenceBound()), total, time.Since(start))
	if !conv.Converges {
		fmt.Fprintf(w, "     cycle through %v\n", conv.Cycle)
	} else {
		fmt.Fprintf(w, "     |Γ∖Λ| = %d, edges %d, peak DFS depth %d, bookkeeping %.1f MiB\n",
			conv.Illegitimate, stats.Edges, stats.Layers, float64(stats.BookkeepingBytes)/(1<<20))
	}
	return ok && convOK
}
