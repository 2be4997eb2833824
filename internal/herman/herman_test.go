package herman

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 4, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) accepted", n)
				}
			}()
			New(n, 1)
		}()
	}
	r := New(5, 1)
	if len(r.bits) != 5 {
		t.Fatalf("N = %d", len(r.bits))
	}
}

func TestTokenParityInvariant(t *testing.T) {
	// On an odd ring the token count is odd, ≥1, and never increases.
	r := New(9, 42)
	r.Randomize()
	prev := r.TokenCount()
	if prev%2 != 1 || prev < 1 {
		t.Fatalf("initial token count %d not odd/positive", prev)
	}
	for s := 0; s < 500; s++ {
		r.Step()
		c := r.TokenCount()
		if c%2 != 1 {
			t.Fatalf("step %d: even token count %d", s, c)
		}
		if c > prev {
			t.Fatalf("step %d: token count increased %d -> %d", s, prev, c)
		}
		prev = c
	}
}

func TestTokenParityQuick(t *testing.T) {
	f := func(raw []bool, seed int64) bool {
		r := New(7, seed)
		bits := make([]bool, 7)
		for i := range bits {
			if i < len(raw) {
				bits[i] = raw[i]
			}
		}
		copy(r.bits, bits)
		c := r.TokenCount()
		return c >= 1 && c%2 == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestConvergesWithHighProbability(t *testing.T) {
	// Expected worst case is 4n²/27; give each trial 50× that.
	for _, n := range []int{5, 9, 15} {
		budget := int(50 * WorstCaseExpected(n))
		fails := 0
		for trial := 0; trial < 100; trial++ {
			r := New(n, int64(trial+1))
			r.Randomize()
			if _, ok := r.RunUntilStable(budget); !ok {
				fails++
			}
		}
		if fails > 0 {
			t.Fatalf("n=%d: %d/100 trials missed a 50×E[T] budget — suspicious", n, fails)
		}
	}
}

func TestStabilizedStaysStable(t *testing.T) {
	r := New(7, 3)
	r.Randomize()
	if _, ok := r.RunUntilStable(10000); !ok {
		t.Fatal("did not stabilize")
	}
	for s := 0; s < 200; s++ {
		r.Step()
		if !r.Stabilized() {
			t.Fatalf("closure violated at step %d", s)
		}
	}
}

func TestExpectedConvergenceScalesQuadratically(t *testing.T) {
	// Crude shape check: mean convergence time grows superlinearly.
	mean := func(n int) float64 {
		total := 0
		const trials = 200
		for trial := 0; trial < trials; trial++ {
			r := New(n, int64(n*1000+trial))
			r.Randomize()
			steps, ok := r.RunUntilStable(int(200 * WorstCaseExpected(n)))
			if !ok {
				t.Fatalf("n=%d trial %d did not converge", n, trial)
			}
			total += steps
		}
		return float64(total) / trials
	}
	m5, m15 := mean(5), mean(15)
	if m15 < 3*m5 {
		t.Errorf("mean convergence grew too slowly: n=5 %.1f, n=15 %.1f", m5, m15)
	}
}
