package scenario

import (
	"bytes"
	"math"
	"testing"
)

// FuzzScenarioLoad feeds arbitrary bytes to Load and Validates every
// scenario it returns: both either fail with an error or succeed — they
// never panic — and a scenario that validates has its defaults filled,
// its ring size within [minimum, MaxN] below K, and finite link timings
// the simulators accept (delay > 0, jitter ≥ 0, refresh > 0). It never
// calls Run. The
// committed corpus holds the shipped scenarios/*.json files and
// documents whose n exceeds MaxN.
func FuzzScenarioLoad(f *testing.F) {
	f.Add([]byte(`{"name":"a","n":5,"horizon":3,"link":{"delay":0.01},"seed":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, s := range ss {
			if s.Validate() != nil {
				continue
			}
			if s.Algorithm == "" || s.Transform == "" || s.Link.Delay == 0 {
				t.Fatalf("validated scenario without defaults: %+v", s)
			}
			if s.N < 2 || s.N > MaxN || s.K <= s.N || s.Horizon <= 0 {
				t.Fatalf("validated scenario out of range: n=%d K=%d horizon=%v", s.N, s.K, s.Horizon)
			}
			finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
			if !(s.Link.Delay > 0) || !(s.Link.Jitter >= 0) || !(s.Refresh > 0) ||
				!finite(s.Link.Delay) || !finite(s.Link.Jitter) || !finite(s.Refresh) {
				t.Fatalf("validated scenario with bad timings: delay=%v jitter=%v refresh=%v",
					s.Link.Delay, s.Link.Jitter, s.Refresh)
			}
		}
	})
}
