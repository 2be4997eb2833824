package check

import (
	"fmt"
	"io"
	"slices"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/digest"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// TestCheckerReportsDigest pins the checker's reports to
// testdata/digests/check-reports.sha256: on SSRmin (3,4), (3,5), (4,5)
// and SSToken n = 3, 4, 5 with K = n+1, the closure report, the
// convergence report with its worst start, every nonzero distance to Λ in
// ID order and the distinct-successor edge count of Γ∖Λ; on SSRmin (3,4)
// also the Lemma 5 {1,3,5}-restricted longest execution, the worst-case
// path and the Λ DOT text. Regenerate deliberately with -update.
func TestCheckerReportsDigest(t *testing.T) {
	h := digest.New()
	for _, nk := range [][2]int{{3, 4}, {3, 5}, {4, 5}} {
		a := core.New(nk[0], nk[1])
		writeReports[core.State](t, h, a, a.Legitimate)
	}
	for n := 3; n <= 5; n++ {
		a := dijkstra.New(n, n+1)
		writeReports[dijkstra.State](t, h, a, a.Legitimate)
	}

	a := core.New(3, 4)
	e, lam := compile[core.State](t, a, a.Legitimate)
	steps, start, ok := e.LongestRestricted(map[int]bool{
		core.RuleReadySecondary: true, core.RuleRecvSecondary: true, core.RuleFixNoG: true,
	})
	fmt.Fprintf(h, "quiet %d %v %v\n", steps, start, ok)
	for i, cfg := range e.WorstPath(lam) {
		fmt.Fprintf(h, "path %d %v\n", i, cfg)
	}
	nodes, edges, err := e.ExportDOT(h, "lambda-n3", lam)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "dot %d %d\n", nodes, edges)
	digest.Check(t, "check-reports.sha256", digest.Sum(h))
}

// writeReports writes one instance's closure and convergence reports, its
// distance map and its edge count to w, and logs their own digest.
func writeReports[S comparable](t *testing.T, w io.Writer, alg Space[S], legit func(statemodel.Config[S]) bool) {
	t.Helper()
	eh := digest.New()
	w = io.MultiWriter(w, eh)
	e, lam := compile(t, alg, legit)
	fmt.Fprintf(w, "== %s\n", alg.Name())
	cl := e.CheckClosure(lam)
	fmt.Fprintf(w, "closure %d %d %v %v\n", cl.Legitimate, cl.MaxEnabled, cl.Counterexample, cl.Successor)
	dist, conv := e.Distances(lam)
	fmt.Fprintf(w, "convergence %v %v %d %v %d\n", conv.Converges, conv.Cycle, conv.WorstSteps, conv.WorstStart, conv.Illegitimate)
	ids := make([]uint64, 0, len(dist))
	for id := range dist {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "%d %d\n", id, dist[id])
	}
	_, stats := e.CheckConvergence(lam)
	fmt.Fprintf(w, "edges %d\n", stats.Edges)
	t.Logf("%s %s", digest.Sum(eh), alg.Name())
}
