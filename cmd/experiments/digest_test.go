package main

import (
	"fmt"
	"io"
	"sort"
	"testing"

	"ssrmin/internal/digest"
)

// digestSkip names the experiments the quick-mode digest leaves out, with
// the reason.
var digestSkip = map[string]string{
	"tcp": "live loopback sockets sampled on the wall clock",
}

// TestQuickExperimentsDigest runs every registered experiment in quick
// mode with seed 1 and pins the captured output to
// testdata/digests/experiments-quick.sha256. batchconv contributes only
// its step-count tables, not its wall-clock timing and speedup columns.
func TestQuickExperimentsDigest(t *testing.T) {
	cfg := runConfig{quick: true, seed: 1}
	exps := append([]experiment(nil), registry...)
	sort.Slice(exps, func(i, j int) bool { return exps[i].order < exps[j].order })
	h := digest.New()
	for _, e := range exps {
		if _, skip := digestSkip[e.id]; skip {
			continue
		}
		eh := digest.New()
		w := io.MultiWriter(h, eh)
		fmt.Fprintf(w, "== %s\n", e.id)
		if e.id == "batchconv" {
			ns, batches := batchConvSizes(cfg)
			for _, a := range batchAlgos {
				scalarTab, batchTab, _, _ := renderBatchTables(a, ns, batches, cfg.seed)
				io.WriteString(w, scalarTab+batchTab)
			}
		} else if err := withStdout(w, func() { e.run(cfg) }); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s %s", digest.Sum(eh), e.id)
	}
	digest.Check(t, "experiments-quick.sha256", digest.Sum(h))
}
