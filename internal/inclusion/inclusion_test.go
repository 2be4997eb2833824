package inclusion

import (
	"math"
	"sync"
	"testing"
)

func TestTrackerBasics(t *testing.T) {
	tr := NewTracker(3)
	if len(tr.ActiveSet()) != 0 {
		t.Fatal("fresh tracker not idle")
	}
	tr.Set(0, true, 1)
	tr.Set(2, true, 2)
	set := tr.ActiveSet()
	if len(set) != 2 || set[0] != 0 || set[1] != 2 {
		t.Fatalf("ActiveSet = %v", set)
	}
	// Redundant transition ignored.
	tr.Set(0, true, 3)
	if got := len(tr.Events()); got != 2 {
		t.Fatalf("events = %d, want 2", got)
	}
	tr.Set(0, false, 4)
	if set := tr.ActiveSet(); len(set) != 1 || set[0] != 2 {
		t.Fatalf("ActiveSet = %v", set)
	}
}

func TestTrackerOutOfRangePanics(t *testing.T) {
	tr := NewTracker(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range station accepted")
		}
	}()
	tr.Set(5, true, 0)
}

func TestCoverageGaps(t *testing.T) {
	tr := NewTracker(2)
	// Idle until t=1, covered 1..3, gap 3..5, covered 5..9, gap 9..10.
	tr.Set(0, true, 1)
	tr.Set(0, false, 3)
	tr.Set(1, true, 5)
	tr.Set(1, false, 9)
	gaps := tr.CoverageGaps(0, 10)
	want := []Gap{{0, 1}, {3, 5}, {9, 10}}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", gaps, want)
		}
	}
	if gaps := tr.CoverageGaps(5, 9); len(gaps) != 0 {
		t.Errorf("gaps in [5, 9] = %v, want none", gaps)
	}
	if g := gaps[1]; g.Len() != 2 {
		t.Errorf("gap length = %v", g.Len())
	}
}

func TestCoverageWithOverlap(t *testing.T) {
	tr := NewTracker(2)
	// Overlapping activity: 0 active 0..6, 1 active 4..10: no gap in 0..10.
	tr.Set(0, true, 0)
	tr.Set(1, true, 4)
	tr.Set(0, false, 6)
	tr.Set(1, false, 10)
	if gaps := tr.CoverageGaps(0, 10); len(gaps) != 0 {
		t.Fatalf("gaps = %v, want none", gaps)
	}
	// Window entered mid-activity.
	if gaps := tr.CoverageGaps(2, 8); len(gaps) != 0 {
		t.Errorf("gaps in [2, 8] = %v, want none", gaps)
	}
}

func TestDutyCycles(t *testing.T) {
	tr := NewTracker(2)
	tr.Set(0, true, 0)
	tr.Set(0, false, 4)
	tr.Set(1, true, 4)
	tr.Set(1, false, 10)
	dc := tr.DutyCycles(0, 10)
	if math.Abs(dc[0]-0.4) > 1e-9 || math.Abs(dc[1]-0.6) > 1e-9 {
		t.Fatalf("duty cycles = %v", dc)
	}
	// Open interval at the end: station still active at window close.
	tr2 := NewTracker(1)
	tr2.Set(0, true, 2)
	dc2 := tr2.DutyCycles(0, 10)
	if math.Abs(dc2[0]-0.8) > 1e-9 {
		t.Fatalf("open-ended duty = %v", dc2)
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Set(id, i%2 == 0, float64(i))
			}
		}(g)
	}
	wg.Wait()
	if c := len(tr.ActiveSet()); c > 8 {
		t.Fatalf("count = %d", c)
	}
}

func TestEnergyModel(t *testing.T) {
	m := NewEnergyModel(3, 100, 10, 2)
	active := []bool{true, false, false}
	m.Elapse(5, active)
	l := m.Levels()
	if l[0] != 50 {
		t.Errorf("active battery = %v, want 50", l[0])
	}
	if l[1] != 100 || l[2] != 100 {
		t.Errorf("idle batteries = %v, capped at 100", l[1:])
	}
	if m.MinLevel() != 50 {
		t.Errorf("MinLevel = %v", m.MinLevel())
	}
	if m.Depleted() {
		t.Error("not depleted yet")
	}
	m.Elapse(10, active)
	if m.Levels()[0] != 0 {
		t.Errorf("battery should floor at 0, got %v", m.Levels()[0])
	}
	if !m.Depleted() {
		t.Error("should be depleted")
	}
}

func TestEnergyModelRotationSustains(t *testing.T) {
	// With rotation (duty cycle 1/4) and recharge ≥ drain/3, no battery
	// depletes: the arithmetic behind the paper's energy story.
	m := NewEnergyModel(4, 100, 9, 3.1)
	active := make([]bool, 4)
	turn := 0
	for step := 0; step < 10000; step++ {
		for i := range active {
			active[i] = i == turn
		}
		m.Elapse(0.1, active)
		if step%10 == 9 {
			turn = (turn + 1) % 4
		}
	}
	if m.Depleted() {
		t.Fatalf("rotation depleted a battery: %v", m.Levels())
	}
}

func TestEnergyModelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad parameters accepted")
		}
	}()
	NewEnergyModel(0, 1, 1, 1)
}

func TestEnergyModelMaskMismatch(t *testing.T) {
	m := NewEnergyModel(2, 10, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("mask mismatch accepted")
		}
	}()
	m.Elapse(1, []bool{true})
}

func TestRotationStats(t *testing.T) {
	tr := NewTracker(2)
	// Station 0 activates at 0, 10, 20; station 1 at 5.
	tr.Set(0, true, 0)
	tr.Set(0, false, 2)
	tr.Set(1, true, 5)
	tr.Set(1, false, 6)
	tr.Set(0, true, 10)
	tr.Set(0, false, 12)
	tr.Set(0, true, 20)
	rs := tr.Rotation(0, 25)
	if rs.Activations[0] != 3 || rs.Activations[1] != 1 {
		t.Fatalf("activations = %v", rs.Activations)
	}
	// Gaps for station 0: 10 and 10.
	if math.Abs(rs.MeanGap-10) > 1e-9 || rs.MaxGap != 10 {
		t.Fatalf("gaps mean=%v max=%v", rs.MeanGap, rs.MaxGap)
	}
	// Window excluding early events.
	rs = tr.Rotation(9, 25)
	if rs.Activations[0] != 2 || rs.Activations[1] != 0 {
		t.Fatalf("windowed activations = %v", rs.Activations)
	}
}
