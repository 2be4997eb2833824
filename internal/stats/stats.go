// Package stats provides the small statistics toolkit the experiment
// harness uses: summary statistics, percentiles, and
// least-squares polynomial fits used to check the O(n²) convergence shape
// of Theorem 2 against measured step counts.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual five-ish numbers of a sample.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	Stddev   float64
	Median   float64
	P90, P99 float64
}

// Summarize computes a Summary of xs. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Percentile(xs, 50)
	s.P90 = Percentile(xs, 90)
	s.P99 = Percentile(xs, 99)
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g mean=%.4g median=%.4g p90=%.4g p99=%.4g max=%.4g sd=%.4g",
		s.N, s.Min, s.Mean, s.Median, s.P90, s.P99, s.Max, s.Stddev)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PolyFit fits y ≈ Σ coef[j]·x^j of the given degree by least squares,
// solving the normal equations with Gaussian elimination. It returns the
// coefficients lowest-degree first. It panics if the system is singular
// (e.g. fewer distinct x values than degree+1).
func PolyFit(xs, ys []float64, degree int) []float64 {
	if len(xs) != len(ys) {
		panic("stats: PolyFit length mismatch")
	}
	m := degree + 1
	if len(xs) < m {
		panic("stats: PolyFit needs at least degree+1 points")
	}
	// Normal equations: A·coef = b with A[j][k] = Σ x^(j+k), b[j] = Σ y·x^j.
	pow := make([]float64, 2*m-1)
	for _, x := range xs {
		p := 1.0
		for j := range pow {
			pow[j] += p
			p *= x
		}
	}
	a := make([][]float64, m)
	b := make([]float64, m)
	for j := 0; j < m; j++ {
		a[j] = make([]float64, m)
		for k := 0; k < m; k++ {
			a[j][k] = pow[j+k]
		}
	}
	for i, x := range xs {
		p := 1.0
		for j := 0; j < m; j++ {
			b[j] += ys[i] * p
			p *= x
		}
	}
	return solve(a, b)
}

// GrowthExponent estimates the exponent b of y ≈ a·x^b by linear
// regression on log–log scale. All inputs must be positive. The
// convergence experiment uses it to confirm that worst-case step counts
// grow roughly quadratically in n.
func GrowthExponent(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: GrowthExponent needs ≥2 points")
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: GrowthExponent needs positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	coef := PolyFit(lx, ly, 1)
	return coef[1]
}

// solve performs Gaussian elimination with partial pivoting on a·x = b.
func solve(a [][]float64, b []float64) []float64 {
	m := len(a)
	for col := 0; col < m; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			panic("stats: singular system in PolyFit")
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		for r := col + 1; r < m; r++ {
			f := a[r][col] / a[col][col]
			for k := col; k < m; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, m)
	for r := m - 1; r >= 0; r-- {
		x[r] = b[r]
		for k := r + 1; k < m; k++ {
			x[r] -= a[r][k] * x[k]
		}
		x[r] /= a[r][r]
	}
	return x
}
