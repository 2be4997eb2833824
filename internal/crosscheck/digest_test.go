package crosscheck

import (
	"encoding/json"
	"fmt"
	"testing"

	"ssrmin/internal/digest"
	"ssrmin/internal/scenario"
)

// digestScenarios returns 24 storm and churn scenarios through all three
// tiers: even indices carry a states/caches storm on a lossy, duplicating,
// corrupting link from a random start with incoherent caches; odd ones a
// join, a leave and a splice.
func digestScenarios() []Scenario {
	out := make([]Scenario, 24)
	for i := range out {
		sc := Scenario{
			Name:        fmt.Sprintf("digest-%d", i),
			N:           6,
			K:           12,
			Seed:        int64(i + 1),
			Horizon:     8,
			Settle:      3,
			Link:        scenario.Link{Delay: 0.01, Jitter: 0.002},
			LiveWorkers: 1,
		}
		if i%2 == 0 {
			sc.RandomStart = true
			sc.IncoherentCaches = true
			sc.Link.Loss, sc.Link.Dup, sc.Link.Corrupt = 0.05, 0.1, 0.02
			sc.Settle = 6
			sc.Faults = []scenario.Fault{
				{At: 2, Type: "states", Count: 3},
				{At: 3, Type: "caches", Count: 6},
				{At: 4, Type: "states", Count: 1},
			}
		} else {
			sc.Faults = []scenario.Fault{
				{At: 1, Type: "join", Node: i % 6},
				{At: 2, Type: "leave", Node: 1 + i%5},
				{At: 3, Type: "splice", Node: 0, Count: 1 + i%2},
			}
		}
		out[i] = sc
	}
	return out
}

// reportDigest runs the scenarios and hashes their JSON reports in order.
func reportDigest(t *testing.T, scs []Scenario) string {
	t.Helper()
	h := digest.New()
	for _, sc := range scs {
		rep, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return digest.Sum(h)
}

// TestReportDigestPinned recomputes the digest of the storm and churn
// reports and compares it with testdata/digests/crosscheck-reports.sha256
// (regenerate deliberately with go test -run TestReportDigestPinned
// -update). It pins every verdict, census extreme, separation figure and
// rule count of all three tiers, so a monitor rewrite that changes any
// observable number fails here.
func TestReportDigestPinned(t *testing.T) {
	digest.Check(t, "crosscheck-reports.sha256", reportDigest(t, digestScenarios()))
}
