package crosscheck

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ssrmin/internal/msgnet"
)

// mapLinkModel is the link monitor keyed by a map of (from, to) pairs:
// the same occupancy rules, with a different link store. The per-sender
// link lists of LinkMonitor must report exactly what it reports.
type mapLinkModel struct {
	links      map[[2]int]*mapLink
	violations []Violation
}

type mapLink struct {
	outstanding int
	pending     []pendingAdmission
}

func (m *mapLinkModel) tap(e msgnet.TapEvent) {
	switch e.Kind {
	case msgnet.TapSend, msgnet.TapDup, msgnet.TapDeliver:
	default:
		return
	}
	key := [2]int{e.From, e.Node}
	l := m.links[key]
	if l == nil {
		l = &mapLink{}
		m.links[key] = l
	}
	report := func(at msgnet.Time, detail string) {
		m.violations = append(m.violations, Violation{Engine: EngineMsgnet, Kind: "link", At: float64(at), Detail: detail})
	}
	switch e.Kind {
	case msgnet.TapSend:
		if l.outstanding > 0 {
			l.pending = append(l.pending, pendingAdmission{at: e.At, remaining: l.outstanding})
		}
		l.outstanding++
	case msgnet.TapDup:
		if l.outstanding == 0 {
			report(e.At, fmt.Sprintf("link %d->%d: duplicate scheduled with no frame in flight", e.From, e.Node))
			return
		}
		l.outstanding++
	case msgnet.TapDeliver:
		if l.outstanding == 0 {
			report(e.At, fmt.Sprintf("link %d->%d: delivery with no admitted frame", e.From, e.Node))
			return
		}
		if len(l.pending) > 0 {
			p := &l.pending[0]
			if e.At > p.at {
				report(p.at, fmt.Sprintf("link %d->%d: send admitted at t=%v while a frame still in transit arrived at t=%v (one-message-per-direction rule)",
					e.From, e.Node, p.at, e.At))
				l.pending = l.pending[1:]
			} else if p.remaining--; p.remaining == 0 {
				l.pending = l.pending[1:]
			}
		}
		l.outstanding--
	}
}

// doctoredTaps is a tap stream over an 8-node ring whose traffic also
// crosses a joiner's links (id 1000, between 3 and 4) and a splice edge
// (2 -> 6, 6 -> 2): random sends, duplicates and deliveries at coarse
// times, so exact ties, overlapping admissions, stray duplicates and
// stray deliveries all occur, among taps of kinds the monitor ignores.
func doctoredTaps(rng *rand.Rand, count int) []msgnet.TapEvent {
	var links [][2]int
	for i := 0; i < 8; i++ {
		links = append(links, [2]int{i, (i + 1) % 8}, [2]int{(i + 1) % 8, i})
	}
	links = append(links, [2]int{3, 1000}, [2]int{1000, 3}, [2]int{1000, 4}, [2]int{4, 1000},
		[2]int{2, 6}, [2]int{6, 2})
	kinds := []msgnet.TapKind{msgnet.TapSend, msgnet.TapSend, msgnet.TapDeliver, msgnet.TapDeliver,
		msgnet.TapDup, msgnet.TapTimer, msgnet.TapCorrupted}
	taps := make([]msgnet.TapEvent, count)
	at := msgnet.Time(0)
	for i := range taps {
		at += msgnet.Time(rng.Intn(3)) / 4 // coarse steps: many exact ties
		l := links[rng.Intn(len(links))]
		taps[i] = msgnet.TapEvent{At: at, Kind: kinds[rng.Intn(len(kinds))], From: l[0], Node: l[1]}
	}
	return taps
}

// TestLinkMonitorMatchesMapModel: on doctored streams over joiner and
// splice links with ids far beyond the ring, the monitor reports exactly
// the violations the map-keyed model reports, truncation included.
func TestLinkMonitorMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	total := 0
	for trial := 0; trial < 50; trial++ {
		taps := doctoredTaps(rng, 20+rng.Intn(400))
		m, model := NewLinkMonitor(), &mapLinkModel{links: map[[2]int]*mapLink{}}
		for _, e := range taps {
			m.Tap(e)
			model.tap(e)
		}
		want := model.violations
		if len(want) > maxViolations {
			want = append(want[:maxViolations:maxViolations], Violation{
				Engine: EngineMsgnet, Kind: "link", At: -1,
				Detail: fmt.Sprintf("%d further link violations truncated", len(model.violations)-maxViolations),
			})
		}
		if got := m.Finish(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: monitor reported\n%v\nmap model reported\n%v", trial, got, want)
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("the doctored streams raised no violation")
	}
}

// TestLinkMonitorTapAllocs: once a link has been seen, a tap on it
// allocates nothing, through sends, duplicates, deliveries and the
// admission queue of an exact-tie send.
func TestLinkMonitorTapAllocs(t *testing.T) {
	m := NewLinkMonitor()
	at := msgnet.Time(0)
	cycle := func() {
		for _, l := range [][2]int{{0, 1}, {1, 0}, {3, 1000}, {1000, 3}} {
			ev := func(k msgnet.TapKind, at msgnet.Time) {
				m.Tap(msgnet.TapEvent{At: at, Kind: k, From: l[0], Node: l[1]})
			}
			ev(msgnet.TapSend, at)
			ev(msgnet.TapDup, at)
			ev(msgnet.TapDeliver, at+1)
			ev(msgnet.TapSend, at+2) // a tie with the duplicate's arrival
			ev(msgnet.TapDeliver, at+2)
			ev(msgnet.TapDeliver, at+3)
		}
		at += 4
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocs per cycle of 24 taps on seen links, want 0", allocs)
	}
	if vs := m.Finish(); len(vs) != 0 {
		t.Fatalf("legal stream flagged: %v", vs)
	}
}
