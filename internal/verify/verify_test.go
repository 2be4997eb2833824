package verify

import (
	"math"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/statemodel"
)

func TestCountOnLegitimateConfigs(t *testing.T) {
	a := core.New(5, 6)
	for _, c := range a.LegitimateConfigs() {
		tc := Count(c)
		if tc.Primary != 1 || tc.Secondary != 1 {
			t.Fatalf("Count(%v) = %+v, want exactly one of each token", c, tc)
		}
		if tc.Privileged < 1 || tc.Privileged > 2 {
			t.Fatalf("Count(%v).Privileged = %d", c, tc.Privileged)
		}
		if !SSRminBounds.Check(tc.Privileged) {
			t.Fatalf("SSRminBounds rejected %d", tc.Privileged)
		}
	}
}

func TestCountSeparatesHolders(t *testing.T) {
	a := core.New(3, 4)
	// γ2: P0 = x.1.0 (primary+announced secondary... the secondary moved),
	// P1 = x.0.1 (secondary holder).
	c := statemodel.Config[core.State]{
		{X: 0, RTS: true}, {X: 0, TRA: true}, {X: 0},
	}
	tc := Count(c)
	if tc.Primary != 1 || tc.Secondary != 1 || tc.Privileged != 2 {
		t.Fatalf("Count = %+v, want 1/1/2", tc)
	}
	if !a.Legitimate(c) {
		t.Fatal("γ2 form should be legitimate")
	}
}

func TestCSBounds(t *testing.T) {
	if MutualInclusion.Check(0) {
		t.Error("mutual inclusion must reject 0")
	}
	if !MutualInclusion.Check(5) {
		t.Error("mutual inclusion must accept 5")
	}
	me := CSBounds{L: 0, K: 1}
	if me.Check(2) || !me.Check(0) || !me.Check(1) {
		t.Error("mutual exclusion bounds wrong")
	}
	if SSRminBounds.String() != "(1,2)-CS" {
		t.Errorf("String = %q", SSRminBounds.String())
	}
}

func TestMonitor(t *testing.T) {
	m := Monitor{Bounds: SSRminBounds}
	m.Observe(0, 1)
	m.Observe(1, 2)
	m.Observe(2, 0)
	m.Observe(3, 3)
	if m.Observed() != 4 {
		t.Errorf("Observed = %d", m.Observed())
	}
	if len(m.Violations) != 2 {
		t.Fatalf("Violations = %v", m.Violations)
	}
	if m.Violations[0].Privileged != 0 || m.Violations[1].Privileged != 3 {
		t.Errorf("Violations = %v", m.Violations)
	}
	if m.Violations[0].String() == "" {
		t.Error("empty violation string")
	}
}

func TestTimelineDurations(t *testing.T) {
	var tl Timeline
	tl.Record(0, 1)
	tl.Record(2, 2)
	tl.Record(3, 2) // duplicate count collapses
	tl.Record(5, 0)
	tl.Record(6, 1)
	tl.Close(10)

	if got := tl.Span(); got != 10 {
		t.Errorf("Span = %v", got)
	}
	if got := tl.Duration(1); got != 2+4 {
		t.Errorf("Duration(1) = %v, want 6", got)
	}
	if got := tl.Duration(2); got != 3 {
		t.Errorf("Duration(2) = %v, want 3", got)
	}
	if got := tl.Duration(0); got != 1 {
		t.Errorf("Duration(0) = %v, want 1", got)
	}
	if got := tl.Fraction(2); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Fraction(2) = %v, want 0.3", got)
	}
	if got := tl.MinCount(); got != 0 {
		t.Errorf("MinCount = %d", got)
	}
	if got := tl.MaxCount(); got != 2 {
		t.Errorf("MaxCount = %d", got)
	}
	counts := tl.Counts()
	if len(counts) != 3 || counts[0] != 0 || counts[2] != 2 {
		t.Errorf("Counts = %v", counts)
	}
	ivs := tl.Intervals(1)
	if len(ivs) != 2 || ivs[0].Len() != 2 || ivs[1].Len() != 4 {
		t.Errorf("Intervals(1) = %v", ivs)
	}
}

func TestTimelineZeroLengthExcursion(t *testing.T) {
	// An instantaneous dip to zero (two records at the same time) must not
	// count as time at zero.
	var tl Timeline
	tl.Record(0, 1)
	tl.Record(5, 0)
	tl.Record(5, 1)
	tl.Close(10)
	if got := tl.Duration(0); got != 0 {
		t.Errorf("Duration(0) = %v, want 0", got)
	}
	if got := tl.MinCount(); got != 1 {
		t.Errorf("MinCount = %d, want 1 (zero-length dip ignored)", got)
	}
}

func TestTimelinePanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("backwards time", func() {
		var tl Timeline
		tl.Record(5, 1)
		tl.Record(4, 2)
	})
	assertPanics("duration before close", func() {
		var tl Timeline
		tl.Record(0, 1)
		tl.Duration(1)
	})
	assertPanics("record after close", func() {
		var tl Timeline
		tl.Close(1)
		tl.Record(2, 1)
	})
	assertPanics("close before last record", func() {
		var tl Timeline
		tl.Record(5, 1)
		tl.Close(4)
	})
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal shares = %v, want 1", got)
	}
	if got := JainFairness([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("monopoly = %v, want 0.25", got)
	}
	if got := JainFairness([]float64{0, 0}); got != 1 {
		t.Errorf("all idle = %v, want 1", got)
	}
	if got := JainFairness(nil); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative value accepted")
		}
	}()
	JainFairness([]float64{-1})
}

func TestAvailability(t *testing.T) {
	var tl Timeline
	tl.Record(0, 1)
	tl.Record(6, 0)
	tl.Record(8, 2)
	tl.Close(10)
	if got := Availability(&tl); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Availability = %v, want 0.8", got)
	}
	var empty Timeline
	empty.Close(0)
	if Availability(&empty) != 0 {
		t.Error("empty availability should be 0")
	}
}

// TestCountMinimumRing exercises the census on the smallest ring SSRmin
// admits (n = 3): the legitimate-configuration invariants must already
// hold at the boundary.
func TestCountMinimumRing(t *testing.T) {
	a := core.New(3, 4)
	for _, c := range a.LegitimateConfigs() {
		tc := Count(c)
		if tc.Primary != 1 || tc.Secondary != 1 {
			t.Fatalf("n=3 Count(%v) = %+v, want one of each token", c, tc)
		}
		if !SSRminBounds.Check(tc.Privileged) {
			t.Fatalf("n=3 census %d outside %v", tc.Privileged, SSRminBounds)
		}
	}
}

// TestCountBothTokensOneHolder pins the Privileged < Primary + Secondary
// case: on X = (0,0,0) only the bottom process holds the primary token,
// and setting its TRA flag gives it the secondary token too — one
// privileged process holding two tokens.
func TestCountBothTokensOneHolder(t *testing.T) {
	c := statemodel.Config[core.State]{
		{X: 0, TRA: true},
		{X: 0},
		{X: 0},
	}
	tc := Count(c)
	if tc.Primary != 1 || tc.Secondary != 1 || tc.Privileged != 1 {
		t.Fatalf("Count = %+v, want Primary=1 Secondary=1 Privileged=1", tc)
	}
	if tc.Privileged >= tc.Primary+tc.Secondary {
		t.Fatalf("Privileged %d not below Primary+Secondary %d for a double holder",
			tc.Privileged, tc.Primary+tc.Secondary)
	}
}

// TestTimelineEmpty pins the zero-observation edge case: a timeline closed
// without a single record must report an empty window, not panic or
// fabricate counts.
func TestTimelineEmpty(t *testing.T) {
	var tl Timeline
	tl.Close(0)
	if got := tl.Span(); got != 0 {
		t.Errorf("Span = %v, want 0", got)
	}
	if got := tl.MinCount(); got != -1 {
		t.Errorf("MinCount = %d, want -1", got)
	}
	if got := tl.MaxCount(); got != -1 {
		t.Errorf("MaxCount = %d, want -1", got)
	}
	if got := tl.Counts(); len(got) != 0 {
		t.Errorf("Counts = %v, want empty", got)
	}
	if got := tl.Duration(1); got != 0 {
		t.Errorf("Duration(1) = %v, want 0", got)
	}
	if got := tl.Fraction(1); got != 0 {
		t.Errorf("Fraction(1) = %v, want 0", got)
	}
}

// TestTimelineZeroLengthWindow: records exist but the window has zero
// extent (Close at the only record's instant) — every occupancy is a
// zero-length excursion.
func TestTimelineZeroLengthWindow(t *testing.T) {
	var tl Timeline
	tl.Record(3, 2)
	tl.Close(3)
	if got := tl.Span(); got != 0 {
		t.Errorf("Span = %v, want 0", got)
	}
	if got := tl.MinCount(); got != -1 {
		t.Errorf("MinCount = %d, want -1 (zero-length excursion)", got)
	}
	if got := tl.Counts(); len(got) != 0 {
		t.Errorf("Counts = %v, want empty", got)
	}
	if got := tl.Fraction(2); got != 0 {
		t.Errorf("Fraction(2) = %v, want 0", got)
	}
}

// TestTimelineAtRecordBoundary: At(t) with t exactly on a record's
// instant must return that record's count, not the previous one — the
// changepoint itself already carries the new census.
func TestTimelineAtRecordBoundary(t *testing.T) {
	var tl Timeline
	tl.Record(1, 1)
	tl.Record(3, 2)
	tl.Record(5, 0)
	tl.Close(7)
	cases := []struct {
		at   float64
		want int
	}{
		{0.5, -1}, // before the first record
		{1, 1},    // exactly on the first record
		{2, 1},
		{3, 2}, // exactly on an interior boundary
		{4.999, 2},
		{5, 0}, // exactly on the last record
		{6, 0},
		{7, 0}, // at the close instant
	}
	for _, tc := range cases {
		if got := tl.At(tc.at); got != tc.want {
			t.Errorf("At(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

// TestTimelineIntervalsClosedAtLastRecord: closing the window exactly at
// the last record's time makes that record a zero-length excursion, which
// Intervals must omit while keeping the earlier occupancies intact.
func TestTimelineIntervalsClosedAtLastRecord(t *testing.T) {
	var tl Timeline
	tl.Record(0, 1)
	tl.Record(2, 2)
	tl.Record(4, 1)
	tl.Close(4)
	if got := tl.Intervals(1); len(got) != 1 || got[0] != (Interval{From: 0, To: 2}) {
		t.Errorf("Intervals(1) = %v, want [{0 2}] only (final record is zero-length)", got)
	}
	if got := tl.Intervals(2); len(got) != 1 || got[0] != (Interval{From: 2, To: 4}) {
		t.Errorf("Intervals(2) = %v, want [{2 4}]", got)
	}
	if got := tl.MaxCount(); got != 2 {
		t.Errorf("MaxCount = %d, want 2", got)
	}
}

// TestTimelineFractionZeroSpan: a timeline whose whole span is a single
// instant must report Fraction 0 for every count rather than divide by
// zero, including counts that were recorded at that instant.
func TestTimelineFractionZeroSpan(t *testing.T) {
	var tl Timeline
	tl.Record(2, 1)
	tl.Record(2, 3) // same-instant changepoint
	tl.Close(2)
	for _, c := range []int{0, 1, 3} {
		if got := tl.Fraction(c); got != 0 {
			t.Errorf("Fraction(%d) = %v, want 0 on a zero-span timeline", c, got)
		}
	}
	if got := tl.Intervals(1); len(got) != 0 {
		t.Errorf("Intervals(1) = %v, want empty", got)
	}
	if got := tl.At(2); got != 3 {
		t.Errorf("At(2) = %d, want 3 (last same-instant record)", got)
	}
}
