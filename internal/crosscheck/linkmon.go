// Link-model conformance monitoring: Section 5's rule that "each
// communication link can transmit only one message in each direction at a
// time", checked from outside the network implementation via the tap.
package crosscheck

import (
	"fmt"

	"ssrmin/internal/msgnet"
)

// maxViolations bounds the violations any single monitor or checker
// records; a broken run produces one violation per event, and the first
// few dozen carry all the signal.
const maxViolations = 64

// LinkMonitor watches a Network's tap stream and confirms that every
// directed link carries at most one frame at a time: a send may be
// admitted only when every previously admitted frame — duplicates
// included — has already arrived. Admissions that tie exactly with the
// last arrival's instant are legal (the medium frees at the arrival
// instant), which matters because the tap reports a delivery only when
// its event is processed, possibly after a same-instant send.
//
// The monitor deliberately recomputes link occupancy from first
// principles (send/dup/deliver events) instead of trusting the network's
// busyUntil bookkeeping — it exists to catch exactly the class of bug
// where that bookkeeping and the paper's model disagree, as the
// duplicated-delivery bug did.
type LinkMonitor struct {
	// out[from] holds the occupancy of every link out of sender from the
	// tap stream has shown, found by a scan of the sender's few links as
	// msgnet finds its own: two on a ring, one more for a splice edge or
	// a joiner. Both grow on first sight of a link, so the monitor needs
	// no node count and takes joiner ids beyond the founding ring.
	out        [][]linkOccupancy
	violations []Violation
	truncated  int
}

type linkOccupancy struct {
	to int // the link's receiver
	// outstanding counts admitted frames (sends + scheduled duplicates)
	// not yet delivered.
	outstanding int
	// pending[head:] records admissions that happened while frames were
	// still outstanding, oldest first; each is confirmed as a violation by
	// the first outstanding delivery strictly after its instant, or
	// cleared by deliveries at exactly its instant. The queue rewinds to
	// its start whenever it empties, so it stops growing.
	pending []pendingAdmission
	head    int
}

type pendingAdmission struct {
	at        msgnet.Time
	remaining int // outstanding frames that must land at exactly `at`
}

// NewLinkMonitor returns an empty monitor; install its Tap on a Network.
func NewLinkMonitor() *LinkMonitor { return &LinkMonitor{} }

// link returns the occupancy of the directed link from->to, adding an
// idle one on first sight. The pointer is valid until the next call.
func (m *LinkMonitor) link(from, to int) *linkOccupancy {
	if from >= len(m.out) {
		m.out = append(m.out, make([][]linkOccupancy, from+1-len(m.out))...)
	}
	out := m.out[from]
	for i := range out {
		if out[i].to == to {
			return &out[i]
		}
	}
	m.out[from] = append(out, linkOccupancy{to: to})
	return &m.out[from][len(out)]
}

// Tap consumes one network tap event. Install as (or call from) the
// Network's Tap hook. Node ids are msgnet's, non-negative.
func (m *LinkMonitor) Tap(e msgnet.TapEvent) {
	switch e.Kind {
	case msgnet.TapSend, msgnet.TapDup, msgnet.TapDeliver:
	default:
		return
	}
	l := m.link(e.From, e.Node)
	switch e.Kind {
	case msgnet.TapSend:
		if l.outstanding > 0 {
			l.pending = append(l.pending, pendingAdmission{at: e.At, remaining: l.outstanding})
		}
		l.outstanding++
	case msgnet.TapDup:
		if l.outstanding == 0 {
			m.report(Violation{
				Engine: EngineMsgnet, Kind: "link", At: float64(e.At),
				Detail: fmt.Sprintf("link %d->%d: duplicate scheduled with no frame in flight", e.From, e.Node),
			})
			return
		}
		l.outstanding++
	case msgnet.TapDeliver:
		if l.outstanding == 0 {
			m.report(Violation{
				Engine: EngineMsgnet, Kind: "link", At: float64(e.At),
				Detail: fmt.Sprintf("link %d->%d: delivery with no admitted frame", e.From, e.Node),
			})
			return
		}
		if l.head < len(l.pending) {
			p := &l.pending[l.head]
			if e.At > p.at {
				m.report(Violation{
					Engine: EngineMsgnet, Kind: "link", At: float64(p.at),
					Detail: fmt.Sprintf("link %d->%d: send admitted at t=%v while a frame still in transit arrived at t=%v (one-message-per-direction rule)",
						e.From, e.Node, p.at, e.At),
				})
				l.head++
			} else {
				p.remaining--
				if p.remaining == 0 {
					l.head++
				}
			}
			if l.head == len(l.pending) {
				l.pending, l.head = l.pending[:0], 0
			}
		}
		l.outstanding--
	}
}

func (m *LinkMonitor) report(v Violation) {
	if len(m.violations) >= maxViolations {
		m.truncated++
		return
	}
	m.violations = append(m.violations, v)
}

// Finish returns the confirmed violations. Admissions still awaiting a
// confirming delivery when the run ends are dropped: the horizon cut the
// evidence short, so they are not reported.
func (m *LinkMonitor) Finish() []Violation {
	out := append([]Violation(nil), m.violations...)
	if m.truncated > 0 {
		out = append(out, Violation{
			Engine: EngineMsgnet, Kind: "link", At: -1,
			Detail: fmt.Sprintf("%d further link violations truncated", m.truncated),
		})
	}
	return out
}
