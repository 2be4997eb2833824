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

// FuzzValidateNumbers varies every float field of a scenario over
// arbitrary values, NaN, ±Inf and negatives among them: Validate either
// returns an error or leaves every float field finite and every
// probability in [0, 1].
func FuzzValidateNumbers(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(5.0, 0.01, 0.002, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(nan, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(inf, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(5.0, -inf, nan, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(5.0, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(5.0, 0.01, 0.0, 0.0, nan, -inf, 0.0, 0.0, 0.0)
	f.Add(5.0, 0.01, 0.0, 0.0, -1.0, -1.0, nan, -0.5, 2.0)
	f.Fuzz(func(t *testing.T, horizon, delay, jitter, refresh, hold, settle, loss, dup, corrupt float64) {
		s := Scenario{
			Name: "fuzz", N: 5, Horizon: horizon, Seed: 1,
			Link:    Link{Delay: delay, Jitter: jitter, Loss: loss, Dup: dup, Corrupt: corrupt},
			Refresh: refresh, Hold: hold, SettleBefore: settle,
		}
		if s.Validate() != nil {
			return
		}
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		for _, x := range []float64{s.Horizon, s.Link.Delay, s.Link.Jitter, s.Refresh, s.Hold, s.SettleBefore} {
			if !finite(x) {
				t.Fatalf("validated scenario with a non-finite number: %+v", s)
			}
		}
		for _, p := range []float64{s.Link.Loss, s.Link.Dup, s.Link.Corrupt} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("validated scenario with probability %v: %+v", p, s)
			}
		}
	})
}
