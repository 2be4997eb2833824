// Package verify provides the correctness measures of the paper as
// executable checkers: token counting over configurations, mutual
// inclusion / mutual exclusion / (ℓ,k)-critical-section predicates, and
// timelines that track how many processes are privileged over (simulated
// or wall-clock) time in the message-passing experiments of Section 5.
package verify

import (
	"fmt"
	"sort"

	"ssrmin/internal/core"
	"ssrmin/internal/statemodel"
)

// TokenCount summarizes the privileges present in one SSRmin configuration.
type TokenCount struct {
	// Primary is the number of primary-token holders (processes with G_i).
	Primary int
	// Secondary is the number of secondary-token holders.
	Secondary int
	// Privileged is the number of distinct processes holding at least one
	// token. Privileged ≤ Primary + Secondary because one process can hold
	// both.
	Privileged int
}

// Count computes the token census of configuration c.
func Count(c statemodel.Config[core.State]) TokenCount {
	var tc TokenCount
	for i := range c {
		v := c.View(i)
		p, s := core.HasPrimary(v), core.HasSecondary(v)
		if p {
			tc.Primary++
		}
		if s {
			tc.Secondary++
		}
		if p || s {
			tc.Privileged++
		}
	}
	return tc
}

// CSBounds is an (ℓ,k)-critical-section specification: at least L and at
// most K processes privileged. Mutual inclusion is {L: 1, K: n}; mutual
// exclusion is {L: 0, K: 1}; SSRmin guarantees {L: 1, K: 2}.
type CSBounds struct {
	// L is the minimum number of privileged processes.
	L int
	// K is the maximum number of privileged processes.
	K int
}

// Check reports whether a privileged-process count satisfies the bounds.
func (b CSBounds) Check(privileged int) bool { return privileged >= b.L && privileged <= b.K }

func (b CSBounds) String() string { return fmt.Sprintf("(%d,%d)-CS", b.L, b.K) }

// MutualInclusion is the (1, n)-relaxation the paper targets, stated as
// the per-instant requirement "at least one process is privileged".
var MutualInclusion = CSBounds{L: 1, K: 1 << 30}

// SSRminBounds is Theorem 1's guarantee: at least one and at most two
// privileged processes.
var SSRminBounds = CSBounds{L: 1, K: 2}

// Violation records an instant (a step index or a time) at which a bound
// was broken.
type Violation struct {
	// At is the step index (state-reading model) or timestamp
	// (message-passing model) of the violation.
	At float64
	// Privileged is the offending count.
	Privileged int
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%v: %d privileged", v.At, v.Privileged)
}

// Monitor checks a CSBounds invariant over an execution, collecting
// violations instead of failing fast so that experiments can report how
// often and how badly a baseline breaks.
type Monitor struct {
	// Bounds is the invariant under watch.
	Bounds CSBounds
	// Violations holds every observed violation, in observation order.
	Violations []Violation
	observed   int
}

// Observe feeds one instant into the monitor.
func (m *Monitor) Observe(at float64, privileged int) {
	m.observed++
	if !m.Bounds.Check(privileged) {
		m.Violations = append(m.Violations, Violation{At: at, Privileged: privileged})
	}
}

// Observed returns how many instants were fed in.
func (m *Monitor) Observed() int { return m.observed }

// Timeline accumulates a step function count(t): how many processes are
// privileged at simulated time t. The message-passing experiments
// (Figures 11–13) record a changepoint whenever a delivery or a rule
// execution alters the census, then ask for the total duration spent at
// each count.
type Timeline struct {
	times  []float64
	counts []int
	closed bool
	end    float64
}

// Record notes that the count changed to count at time t. Times must be
// non-decreasing. Recording the same count repeatedly is harmless.
func (tl *Timeline) Record(t float64, count int) {
	if tl.closed {
		panic("verify: Record after Close")
	}
	if n := len(tl.times); n > 0 && t < tl.times[n-1] {
		panic(fmt.Sprintf("verify: time went backwards: %v after %v", t, tl.times[n-1]))
	}
	if n := len(tl.counts); n > 0 && tl.counts[n-1] == count {
		return
	}
	tl.times = append(tl.times, t)
	tl.counts = append(tl.counts, count)
}

// Close fixes the end of the observation window.
func (tl *Timeline) Close(end float64) {
	if n := len(tl.times); n > 0 && end < tl.times[n-1] {
		panic("verify: Close before last record")
	}
	tl.end = end
	tl.closed = true
}

// Duration returns the total time spent at the given count. The timeline
// must be closed.
func (tl *Timeline) Duration(count int) float64 {
	tl.mustClosed()
	total := 0.0
	for i, c := range tl.counts {
		if c != count {
			continue
		}
		to := tl.end
		if i+1 < len(tl.times) {
			to = tl.times[i+1]
		}
		total += to - tl.times[i]
	}
	return total
}

// Span returns the length of the observation window, measured from the
// first record to the close time.
func (tl *Timeline) Span() float64 {
	tl.mustClosed()
	if len(tl.times) == 0 {
		return 0
	}
	return tl.end - tl.times[0]
}

// End returns the close time of the observation window.
func (tl *Timeline) End() float64 {
	tl.mustClosed()
	return tl.end
}

// Fraction returns Duration(count) / Span().
func (tl *Timeline) Fraction(count int) float64 {
	span := tl.Span()
	if span == 0 {
		return 0
	}
	return tl.Duration(count) / span
}

// MinCount returns the smallest count ever held for a positive duration,
// ignoring zero-length excursions. Returns -1 on an empty timeline.
func (tl *Timeline) MinCount() int {
	tl.mustClosed()
	min := -1
	for i, c := range tl.counts {
		to := tl.end
		if i+1 < len(tl.times) {
			to = tl.times[i+1]
		}
		if to-tl.times[i] <= 0 {
			continue
		}
		if min == -1 || c < min {
			min = c
		}
	}
	return min
}

// MaxCount returns the largest count ever held for a positive duration, or
// -1 on an empty timeline.
func (tl *Timeline) MaxCount() int {
	tl.mustClosed()
	max := -1
	for i, c := range tl.counts {
		to := tl.end
		if i+1 < len(tl.times) {
			to = tl.times[i+1]
		}
		if to-tl.times[i] <= 0 {
			continue
		}
		if c > max {
			max = c
		}
	}
	return max
}

// Counts returns the sorted distinct counts that occur for positive
// duration.
func (tl *Timeline) Counts() []int {
	tl.mustClosed()
	set := map[int]bool{}
	for i, c := range tl.counts {
		to := tl.end
		if i+1 < len(tl.times) {
			to = tl.times[i+1]
		}
		if to-tl.times[i] > 0 {
			set[c] = true
		}
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Intervals returns the maximal intervals during which the count equals
// count. Zero-length intervals are omitted.
func (tl *Timeline) Intervals(count int) []Interval {
	tl.mustClosed()
	var out []Interval
	for i, c := range tl.counts {
		if c != count {
			continue
		}
		to := tl.end
		if i+1 < len(tl.times) {
			to = tl.times[i+1]
		}
		if to > tl.times[i] {
			out = append(out, Interval{From: tl.times[i], To: to})
		}
	}
	return out
}

// At returns the count in effect at time t: the last record with time
// ≤ t, so an instant exactly on a record boundary reads the new count,
// and same-instant changepoints resolve to the final one. Before the
// first record it returns -1. The timeline must be closed.
func (tl *Timeline) At(t float64) int {
	tl.mustClosed()
	idx := sort.Search(len(tl.times), func(i int) bool { return tl.times[i] > t })
	if idx == 0 {
		return -1
	}
	return tl.counts[idx-1]
}

// Interval is a half-open time interval [From, To).
type Interval struct {
	From, To float64
}

// Len returns the interval length.
func (iv Interval) Len() float64 { return iv.To - iv.From }

func (tl *Timeline) mustClosed() {
	if !tl.closed {
		panic("verify: timeline not closed")
	}
}

// JainFairness computes Jain's fairness index of a nonnegative sample:
// (Σx)² / (n·Σx²), which is 1 for perfectly equal shares and 1/n when one
// member hogs everything. The camera experiments use it on per-station
// duty cycles: the circulating privilege should share the monitoring work
// almost perfectly evenly.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		if x < 0 {
			panic("verify: JainFairness needs nonnegative values")
		}
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1 // everyone equally idle
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Availability returns the fraction of the (closed) timeline's span during
// which at least one process was privileged — the coverage measure of the
// camera application. 1.0 means continuous observation.
func Availability(tl *Timeline) float64 {
	span := tl.Span()
	if span <= 0 {
		return 0
	}
	return 1 - tl.Duration(0)/span
}
