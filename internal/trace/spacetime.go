package trace

import (
	"fmt"
	"io"
	"strings"

	"ssrmin/internal/msgnet"
)

// SpaceTime collects msgnet tap events and renders a lane diagram: one
// column per node, one row per instant at which anything happened, with
// message sends/deliveries, losses, timers — the debugging view of the
// message-passing experiments. Install Attach on a network before running
// it.
type SpaceTime struct {
	n      int
	events []msgnet.TapEvent
	// Annotations lets higher layers (e.g. a CST node's OnExecute hook)
	// add labels such as rule executions to a node's lane.
	annotations []annotation
	// Keep bounds memory use for long runs; 0 means unlimited.
	Limit int
}

type annotation struct {
	at   msgnet.Time
	node int
	text string
}

// NewSpaceTime creates a collector for n nodes.
func NewSpaceTime(n int) *SpaceTime { return &SpaceTime{n: n} }

// Attach registers the collector as net's tap. It overwrites any
// existing tap. It is a free function rather than a SpaceTime method
// because Go methods cannot introduce the network's frame type parameter;
// the collector itself never looks at payloads.
func Attach[P any](st *SpaceTime, net *msgnet.Network[P]) {
	net.Tap = st.Tap
}

// Tap consumes one network tap event; Attach installs it.
func (st *SpaceTime) Tap(e msgnet.TapEvent) {
	if st.Limit > 0 && len(st.events) >= st.Limit {
		return
	}
	st.events = append(st.events, e)
}

// Annotate adds a custom label (e.g. "R2") to a node's lane at time t.
func (st *SpaceTime) Annotate(t msgnet.Time, node int, text string) {
	if st.Limit > 0 && len(st.annotations) >= st.Limit {
		return
	}
	st.annotations = append(st.annotations, annotation{at: t, node: node, text: text})
}

// Render writes the lane diagram. Suppressed sends are omitted (they are
// pure back-pressure noise); everything else appears. Rows are merged per
// (time, node) so one instant prints once per lane.
func (st *SpaceTime) Render(w io.Writer) error {
	type key struct {
		at   msgnet.Time
		node int
	}
	cells := map[key][]string{}
	var times []msgnet.Time
	seen := map[msgnet.Time]bool{}
	note := func(at msgnet.Time, node int, s string) {
		k := key{at, node}
		cells[k] = append(cells[k], s)
		if !seen[at] {
			seen[at] = true
			times = append(times, at)
		}
	}
	for _, e := range st.events {
		switch e.Kind {
		case msgnet.TapSend:
			note(e.At, e.From, fmt.Sprintf("s→%d", e.Node))
		case msgnet.TapDeliver:
			note(e.At, e.Node, fmt.Sprintf("r←%d", e.From))
		case msgnet.TapLost:
			note(e.At, e.From, fmt.Sprintf("x→%d", e.Node))
		case msgnet.TapCorrupted:
			note(e.At, e.From, fmt.Sprintf("!→%d", e.Node))
		case msgnet.TapDup:
			note(e.At, e.From, fmt.Sprintf("d→%d", e.Node))
		case msgnet.TapTimer:
			note(e.At, e.Node, "T")
		case msgnet.TapSuppressed:
			// omitted
		}
	}
	for _, a := range st.annotations {
		note(a.at, a.node, a.text)
	}
	// times were appended in stream order, which is nondecreasing for
	// processed events; annotations may interleave, so sort defensively.
	sortTimes(times)

	width := make([]int, st.n)
	for k, ss := range cells {
		if l := len(strings.Join(ss, ",")); l > width[k.node] {
			width[k.node] = l
		}
	}
	for i := range width {
		if width[i] < 4 {
			width[i] = 4
		}
	}

	var b strings.Builder
	writeLine := func(head string, cell func(i int) string) {
		var line strings.Builder
		fmt.Fprintf(&line, "%-10s", head)
		for i := 0; i < st.n; i++ {
			fmt.Fprintf(&line, " %-*s", width[i], cell(i))
		}
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteByte('\n')
	}
	writeLine("t(s)", func(i int) string { return fmt.Sprintf("P%d", i) })
	for _, t := range times {
		writeLine(fmt.Sprintf("%.4f", float64(t)), func(i int) string {
			return strings.Join(cells[key{t, i}], ",")
		})
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortTimes(ts []msgnet.Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}
