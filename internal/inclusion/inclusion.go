// Package inclusion is the application layer of the mutual inclusion
// problem: it turns "who currently holds a token" into "which stations are
// actively monitoring", tracks continuity of coverage (the paper's
// requirement that there is no instant at which no node observes the
// environment), and models the energy budget of the motivating
// IoT/security-camera scenario — active stations drain their battery,
// inactive ones recharge.
package inclusion

import (
	"fmt"
	"sort"
	"sync"
)

// Tracker records per-node activity transitions and computes coverage. It
// is safe for concurrent use — live rings report transitions from node
// goroutines.
type Tracker struct {
	mu     sync.Mutex
	n      int
	active []bool
	count  int
	events []Event
}

// Event is one activity transition.
type Event struct {
	// At is the timestamp (caller-defined clock: simulated seconds or
	// wall-clock seconds).
	At float64
	// Node is the station index.
	Node int
	// Active is the new activity state.
	Active bool
	// TotalActive is the global number of active stations after the
	// transition.
	TotalActive int
}

// NewTracker creates a tracker for n stations, all initially inactive.
func NewTracker(n int) *Tracker {
	return &Tracker{n: n, active: make([]bool, n)}
}

// Set records station `node` switching to `active` at time `at`. Redundant
// transitions (same state) are ignored.
func (t *Tracker) Set(node int, active bool, at float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if node < 0 || node >= t.n {
		panic(fmt.Sprintf("inclusion: station %d out of range", node))
	}
	if t.active[node] == active {
		return
	}
	t.active[node] = active
	if active {
		t.count++
	} else {
		t.count--
	}
	t.events = append(t.events, Event{At: at, Node: node, Active: active, TotalActive: t.count})
}

// ActiveSet returns the indices of currently active stations.
func (t *Tracker) ActiveSet() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for i, a := range t.active {
		if a {
			out = append(out, i)
		}
	}
	return out
}

// Events returns a copy of the recorded transitions.
func (t *Tracker) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Gap is a period with zero active stations.
type Gap struct {
	From, To float64
}

// Len returns the gap duration.
func (g Gap) Len() float64 { return g.To - g.From }

// CoverageGaps scans the transition log between start and end and returns
// every period with zero active stations. If the log starts with zero
// stations active (no prior event), the leading period counts as a gap.
// The caller must ensure no transitions are being recorded concurrently.
func (t *Tracker) CoverageGaps(start, end float64) []Gap {
	events := t.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	var gaps []Gap
	cur := start
	// Replay to find the active count entering the window.
	countAt := 0
	for _, e := range events {
		if e.At >= start {
			break
		}
		countAt = e.TotalActive
	}
	zero := countAt == 0
	for _, e := range events {
		if e.At < start || e.At > end {
			continue
		}
		if zero && e.TotalActive > 0 {
			if e.At > cur {
				gaps = append(gaps, Gap{From: cur, To: e.At})
			}
			zero = false
		} else if !zero && e.TotalActive == 0 {
			cur = e.At
			zero = true
		}
	}
	if zero && end > cur {
		gaps = append(gaps, Gap{From: cur, To: end})
	}
	return gaps
}

// DutyCycles returns, per station, the fraction of [start, end] it was
// active, computed from the transition log.
func (t *Tracker) DutyCycles(start, end float64) []float64 {
	events := t.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	active := make([]bool, t.n)
	since := make([]float64, t.n)
	busy := make([]float64, t.n)
	for i := range since {
		since[i] = start
	}
	for _, e := range events {
		if e.At > end {
			break
		}
		at := e.At
		if at < start {
			active[e.Node] = e.Active
			continue
		}
		if active[e.Node] && !e.Active {
			busy[e.Node] += at - since[e.Node]
		}
		if !active[e.Node] && e.Active {
			since[e.Node] = at
		}
		active[e.Node] = e.Active
	}
	for i := range busy {
		if active[i] {
			busy[i] += end - since[i]
		}
	}
	span := end - start
	out := make([]float64, t.n)
	for i := range out {
		if span > 0 {
			out[i] = busy[i] / span
		}
	}
	return out
}

// EnergyModel advances station batteries: an active station drains
// DrainActive per time unit, an idle one recharges Recharge per time unit
// up to Capacity. It reproduces the paper's motivation: mutual inclusion
// keeps one station watching while the rest harvest energy.
type EnergyModel struct {
	// Capacity is the maximum battery level.
	Capacity float64
	// DrainActive is the drain rate while active.
	DrainActive float64
	// Recharge is the recharge rate while idle.
	Recharge float64

	levels []float64
}

// NewEnergyModel creates a model with every battery full.
func NewEnergyModel(n int, capacity, drainActive, recharge float64) *EnergyModel {
	if n <= 0 || capacity <= 0 {
		panic("inclusion: bad energy model parameters")
	}
	m := &EnergyModel{Capacity: capacity, DrainActive: drainActive, Recharge: recharge,
		levels: make([]float64, n)}
	for i := range m.levels {
		m.levels[i] = capacity
	}
	return m
}

// Elapse advances all batteries by dt given the set of active stations.
func (m *EnergyModel) Elapse(dt float64, active []bool) {
	if len(active) != len(m.levels) {
		panic("inclusion: active mask length mismatch")
	}
	for i := range m.levels {
		if active[i] {
			m.levels[i] -= m.DrainActive * dt
			if m.levels[i] < 0 {
				m.levels[i] = 0
			}
		} else {
			m.levels[i] += m.Recharge * dt
			if m.levels[i] > m.Capacity {
				m.levels[i] = m.Capacity
			}
		}
	}
}

// Levels returns a copy of the battery levels.
func (m *EnergyModel) Levels() []float64 {
	out := make([]float64, len(m.levels))
	copy(out, m.levels)
	return out
}

// MinLevel returns the lowest battery level.
func (m *EnergyModel) MinLevel() float64 {
	min := m.levels[0]
	for _, l := range m.levels[1:] {
		if l < min {
			min = l
		}
	}
	return min
}

// Depleted reports whether any battery is empty.
func (m *EnergyModel) Depleted() bool { return m.MinLevel() <= 0 }

// RotationStats summarizes how the privilege rotates among stations:
// per-station activation counts and the distribution of "uncovered-by-me"
// intervals (time between a station's consecutive activations).
type RotationStats struct {
	// Activations counts activation events per station.
	Activations []int
	// MeanGap and MaxGap summarize, across all stations, the time between
	// a station's consecutive activations.
	MeanGap, MaxGap float64
}

// Rotation computes rotation statistics from the transition log over
// [start, end].
func (t *Tracker) Rotation(start, end float64) RotationStats {
	events := t.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	stats := RotationStats{Activations: make([]int, t.n)}
	lastAct := make([]float64, t.n)
	for i := range lastAct {
		lastAct[i] = -1
	}
	var gaps []float64
	for _, e := range events {
		if e.At < start || e.At > end || !e.Active {
			continue
		}
		stats.Activations[e.Node]++
		if lastAct[e.Node] >= 0 {
			gaps = append(gaps, e.At-lastAct[e.Node])
		}
		lastAct[e.Node] = e.At
	}
	for _, g := range gaps {
		stats.MeanGap += g
		if g > stats.MaxGap {
			stats.MaxGap = g
		}
	}
	if len(gaps) > 0 {
		stats.MeanGap /= float64(len(gaps))
	}
	return stats
}
