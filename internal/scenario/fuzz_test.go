package scenario

import (
	"bytes"
	"testing"
)

// FuzzScenarioLoad feeds arbitrary bytes to Load and Validates every
// scenario it returns: both either fail with an error or succeed — they
// never panic — and a scenario that validates has its defaults filled and
// its ring size within [minimum, MaxN] below K. It never calls Run. The
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
		}
	})
}
