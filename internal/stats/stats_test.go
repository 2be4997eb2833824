package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("Summary = %+v", s)
	}
	if !almost(s.Mean, 2.5) {
		t.Errorf("Mean = %v", s.Mean)
	}
	if !almost(s.Median, 2.5) {
		t.Errorf("Median = %v", s.Median)
	}
	// Sample stddev of 1..4 is sqrt(5/3).
	if !almost(s.Stddev, math.Sqrt(5.0/3.0)) {
		t.Errorf("Stddev = %v", s.Stddev)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 30 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Errorf("P25 = %v", got)
	}
	if got := Percentile(xs, 10); !almost(got, 14) {
		t.Errorf("P10 = %v, want 14", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("P50 of empty should be NaN")
	}
	// Input must not be reordered.
	if xs[0] != 10 {
		t.Error("Percentile mutated input")
	}
	unsorted := []float64{30, 10, 50, 20, 40}
	if got := Percentile(unsorted, 50); got != 30 {
		t.Errorf("P50 unsorted = %v", got)
	}
}

func TestPolyFitExact(t *testing.T) {
	// y = 2 + 3x + 0.5x².
	var xs, ys []float64
	for x := 0.0; x < 8; x++ {
		xs = append(xs, x)
		ys = append(ys, 2+3*x+0.5*x*x)
	}
	coef := PolyFit(xs, ys, 2)
	if !almost(coef[0], 2) || !almost(coef[1], 3) || !almost(coef[2], 0.5) {
		t.Errorf("coef = %v", coef)
	}
}

func TestPolyFitLeastSquares(t *testing.T) {
	// Noisy linear data: the fit should be close, not exact.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9}
	coef := PolyFit(xs, ys, 1)
	if math.Abs(coef[1]-2) > 0.1 {
		t.Errorf("slope = %v, want ≈2", coef[1])
	}
}

func TestGrowthExponent(t *testing.T) {
	// y = 4x² exactly.
	xs := []float64{3, 5, 8, 13, 20}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 4 * x * x
	}
	if b := GrowthExponent(xs, ys); !almost(b, 2) {
		t.Errorf("exponent = %v, want 2", b)
	}
	// y = 7x.
	for i, x := range xs {
		ys[i] = 7 * x
	}
	if b := GrowthExponent(xs, ys); !almost(b, 1) {
		t.Errorf("exponent = %v, want 1", b)
	}
}

func TestPolyFitQuickProperty(t *testing.T) {
	// For any quadratic with moderate coefficients, fitting recovers it.
	f := func(a, b, c int8) bool {
		ca, cb, cc := float64(a)/10, float64(b)/10, float64(c)/10
		var xs, ys []float64
		for x := -3.0; x <= 3; x += 0.5 {
			xs = append(xs, x)
			ys = append(ys, ca+cb*x+cc*x*x)
		}
		coef := PolyFit(xs, ys, 2)
		return math.Abs(coef[0]-ca) < 1e-6 && math.Abs(coef[1]-cb) < 1e-6 && math.Abs(coef[2]-cc) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
