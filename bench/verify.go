package main

import (
	"fmt"
	"math"

	"ssrmin/internal/check"
	"ssrmin/internal/core"
	"ssrmin/internal/inclusion"
)

// verify-n5: the largest exhaustive artefact. The full Lemma 1/4/5/6 and
// Theorem 1/2 sequence of `make modelcheck-n5` on SSRmin at n=5, K=6:
// 7,962,624 configurations and 196,273,032 transition edges. It lives
// entirely in internal/check (plus the compiled census of
// internal/inclusion), is memory-bound, and runs no simulator. The input
// is the instance itself, so the seed does not change it.

// verifyExpect pins the exact values a correct checker reports.
type verifyExpect struct {
	legit uint64 // |Λ| = 3nK
	quiet int    // longest execution using only Rules 1, 3 and 5
	worst int    // exact worst-case stabilization time
	edges uint64 // illegitimate→illegitimate transition edges
}

type verifyConfig struct {
	n, k   int
	expect verifyExpect
	// The set-up warm-up runs the same sequence on a smaller instance.
	warmN, warmK int
	warmExpect   verifyExpect
}

var verifyFull = verifyConfig{
	n: 5, k: 6, expect: verifyExpect{legit: 90, quiet: 9, worst: 77, edges: 196_273_032},
	warmN: 4, warmK: 5, warmExpect: verifyExpect{legit: 60, quiet: 7, worst: 43, edges: 1_922_580},
}

// maxVerifyConfigs is modelcheck's default refusal limit.
const maxVerifyConfigs = 50_000_000

// verifyOut is what one pass of the sequence reports.
type verifyOut struct {
	n, k       int
	compileErr error
	noDeadlock bool
	closure    check.ClosureReport[core.State]
	censusOK   bool
	quiet      int
	quietOK    bool
	conv       check.ConvergenceReport[core.State]
	stats      check.ConvStats
	bound      int
}

type verify struct {
	cfg     verifyConfig
	workers int
	last    verifyOut
}

func newVerify(cfg verifyConfig) *verify { return &verify{cfg: cfg, workers: numWorkers()} }

func (v *verify) name() string { return wVerify }

func (v *verify) params() map[string]any {
	return map[string]any{
		"n": v.cfg.n, "k": v.cfg.k, "algorithm": "ssrmin", "workers": v.workers,
		"warm_n": v.cfg.warmN, "warm_k": v.cfg.warmK,
	}
}

func (v *verify) inputDigest() string { return digest([]int{v.cfg.n, v.cfg.k}) }

func (v *verify) setup() error {
	out := runVerify(v.cfg.warmN, v.cfg.warmK, v.workers, nil, -1)
	if t := judgeVerify(out, v.cfg.warmExpect); t.failed > 0 {
		return fmt.Errorf("warm-up n=%d: %v", v.cfg.warmN, t.notes)
	}
	return nil
}

func (v *verify) teardown() {}

func (v *verify) work() (float64, string) {
	states := float64(len(core.New(v.cfg.n, v.cfg.k).AllStates()))
	return math.Pow(states, float64(v.cfg.n)), "configurations"
}

func (v *verify) rep(tr *tracer, root int32) {
	v.last = runVerify(v.cfg.n, v.cfg.k, v.workers, tr, root)
}

// runVerify is cmd/modelcheck's engine sequence, one span per phase.
func runVerify(n, k, workers int, tr *tracer, root int32) verifyOut {
	out := verifyOut{n: n, k: k}
	a := core.New(n, k)
	out.bound = a.ConvergenceStepBound()

	s := tr.begin("check.compile", root)
	c := check.New[core.State](a, maxVerifyConfigs)
	eng, err := c.Compile(workers)
	tr.end(s)
	if err != nil {
		out.compileErr = err
		return out
	}

	s = tr.begin("check.legitset", root)
	lam := eng.LegitSet(a.Legitimate)
	tr.end(s)

	s = tr.begin("check.nodeadlock", root)
	_, out.noDeadlock = eng.CheckNoDeadlock()
	tr.end(s)

	s = tr.begin("check.closure", root)
	out.closure = eng.CheckClosure(lam)
	tr.end(s)

	s = tr.begin("check.census", root)
	ct := inclusion.CompileCensus(a.AllStates(), n, core.HasPrimary, core.HasSecondary)
	out.censusOK = true
	var triples []uint32
	lam.ForEach(func(id uint64) bool {
		triples = eng.Triples(id, triples)
		p, sec, priv := ct.Counts(triples)
		if !(p == 1 && sec == 1 && priv >= 1 && priv <= 2) {
			out.censusOK = false
			return false
		}
		return true
	})
	tr.end(s)

	s = tr.begin("check.quiet", root)
	out.quiet, _, out.quietOK = eng.LongestRestricted(map[int]bool{
		core.RuleReadySecondary: true, core.RuleRecvSecondary: true, core.RuleFixNoG: true,
	})
	tr.end(s)

	s = tr.begin("check.convergence", root)
	out.conv, out.stats = eng.CheckConvergence(lam)
	tr.end(s)
	return out
}

// judgeVerify checks one pass: five lemma checks, each also against the
// exact values a correct checker reports for the instance.
func judgeVerify(o verifyOut, want verifyExpect) tally {
	var t tally
	if o.compileErr != nil {
		t.expect(false, "n=%d: table compilation: %v", o.n, o.compileErr)
		return t
	}
	t.expect(o.noDeadlock, "n=%d: Lemma 4: a deadlocked configuration exists", o.n)
	t.expect(o.closure.Counterexample == nil && o.closure.MaxEnabled == 1 && o.closure.Legitimate == want.legit,
		"n=%d: Lemma 1: |Λ| = %d (want %d), max enabled %d, counterexample %v",
		o.n, o.closure.Legitimate, want.legit, o.closure.MaxEnabled, o.closure.Counterexample)
	t.expect(o.censusOK, "n=%d: Theorem 1: a legitimate configuration has a census outside 1..2", o.n)
	t.expect(o.quietOK && o.quiet <= 3*o.n && o.quiet == want.quiet,
		"n=%d: Lemma 5: longest quiet run %d (finite %v), want %d ≤ 3n", o.n, o.quiet, o.quietOK, want.quiet)
	t.expect(o.conv.Converges && o.conv.WorstSteps == want.worst && o.conv.WorstSteps <= o.bound && o.stats.Edges == want.edges,
		"n=%d: Lemma 6/Theorem 2: converges %v, worst %d (want %d, bound %d), edges %d (want %d)",
		o.n, o.conv.Converges, o.conv.WorstSteps, want.worst, o.bound, o.stats.Edges, want.edges)
	return t
}

func (v *verify) check() tally { return judgeVerify(v.last, v.cfg.expect) }

func (v *verify) minTracedReps() int { return 1 }

func (v *verify) counts() map[string]float64 {
	return map[string]float64{
		"legit":       float64(v.last.closure.Legitimate),
		"quiet":       float64(v.last.quiet),
		"worst":       float64(v.last.conv.WorstSteps),
		"check.edges": float64(v.last.stats.Edges),
	}
}

func (v *verify) layers(tr *tracer, m metricSet) tally {
	lt := layerTotals(tr.snapshot())
	reps := lt["rep"]
	if reps == nil || reps.calls == 0 {
		return tally{attempted: 1, failed: 1, notes: []string{"verify: no traced repetition"}}
	}
	perRep := func(name string) float64 {
		if l := lt[name]; l != nil {
			return float64(l.totalNS) / 1e9 / float64(reps.calls)
		}
		return 0
	}
	for _, p := range []string{"compile", "legitset", "nodeadlock", "closure", "census", "quiet", "convergence"} {
		m["check."+p+"_s"] = perRep("check." + p)
	}
	m["check.edges"] = float64(v.last.stats.Edges)
	m["check.kahn_layers"] = float64(v.last.stats.Layers)
	m["check.bookkeeping_mib"] = float64(v.last.stats.BookkeepingBytes) / (1 << 20)
	// The phases run back to back, so the repetition's self time, which
	// no phase covers, is the glue between the calls.
	m["check.unexplained_share"] = float64(reps.selfNS) / float64(reps.totalNS)
	return tally{}
}
