package crosscheck

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ssrmin/internal/scenario"
)

// FuzzLoadRepros feeds arbitrary bytes to LoadRepros as a fixture file
// and Validates the scenario it loads: both either fail with an error or
// succeed — they never panic — loading never accepts a scenario still
// carrying the retired live-backend keys liveLegacy and liveScale, and a
// scenario that validates has its ring size within [3, scenario.MaxN]
// below K and finite link timings the engines accept (delay > 0,
// jitter ≥ 0, refresh > 0). It never calls Run. The committed corpus
// holds a fixture with the retired keys and one whose n exceeds MaxN.
func FuzzLoadRepros(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("..", "..", "testdata", "repros", "dup-echo-seed1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		repros, err := LoadRepros(dir)
		if err != nil {
			return
		}
		if len(repros) != 1 {
			t.Fatalf("loaded %d repros from one file", len(repros))
		}
		var raw struct {
			Scenario map[string]json.RawMessage `json:"scenario"`
		}
		if json.Unmarshal(data, &raw) != nil {
			return
		}
		for _, key := range []string{"liveLegacy", "liveScale"} {
			if _, ok := raw.Scenario[key]; ok {
				t.Fatalf("fixture with retired key %q loaded", key)
			}
		}
		s := repros[0].Scenario
		if s.Validate() != nil {
			return
		}
		if s.N < 3 || s.N > scenario.MaxN || s.K <= s.N || s.Horizon <= 0 || s.Steps < 1 {
			t.Fatalf("validated scenario out of range: n=%d K=%d horizon=%v steps=%d", s.N, s.K, s.Horizon, s.Steps)
		}
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		if !(s.Link.Delay > 0) || !(s.Link.Jitter >= 0) || !(s.Refresh > 0) ||
			!finite(s.Link.Delay) || !finite(s.Link.Jitter) || !finite(s.Refresh) {
			t.Fatalf("validated scenario with bad timings: delay=%v jitter=%v refresh=%v",
				s.Link.Delay, s.Link.Jitter, s.Refresh)
		}
	})
}
