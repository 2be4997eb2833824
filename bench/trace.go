package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a library layer, recorded by the benchmark
// around the call (spans inside library packages are not recorded).
// Times are nanoseconds since the tracer's origin.
type span struct {
	id     int32
	parent int32 // -1 for a root span
	track  int32 // Chrome trace "tid": the lane the span ran on
	name   string
	start  int64
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span of a traced run in memory. A nil *tracer is the
// untraced mode: begin returns -1 and end ignores it, so workloads run the
// same code with tracing on or off.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	busy  []bool // busy[track]: an item span is open on that track
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under parent on parent's track.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	track := int32(0)
	if parent >= 0 {
		track = t.spans[parent].track
	}
	return t.open(name, parent, track, at)
}

// beginItem opens a span for one item of a parallel sweep. Items of one
// sweep overlap, so each takes the lowest free track; at most `workers`
// items run at once, which bounds the tracks by the worker count.
func (t *tracer) beginItem(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	track := 1
	for track < len(t.busy) && t.busy[track] {
		track++
	}
	if track >= len(t.busy) {
		t.busy = append(t.busy, make([]bool, track+1-len(t.busy))...)
	}
	t.busy[track] = true
	return t.open(name, parent, int32(track), at)
}

func (t *tracer) open(name string, parent, track int32, at int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, track: track, name: name, start: at, end: at})
	return id
}

// end closes span id (a no-op for -1).
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = at
	if s.track > 0 && (s.parent < 0 || t.spans[s.parent].track != s.track) {
		t.busy[s.track] = false
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children that overlap one another (parallel sweep items) are merged
// first, so self time is never negative.
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.start, s.end, kids[i])
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// [lo, hi].
func covered(lo, hi int64, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, lo), min(c.end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTotal sums the spans of one name: call count, total duration,
// self time, and every duration.
type layerTotal struct {
	calls     int
	totalNS   int64
	selfNS    int64
	durations []int64
}

// durationsMS returns every span's duration in milliseconds.
func (lt *layerTotal) durationsMS() []float64 {
	ms := make([]float64, len(lt.durations))
	for i, d := range lt.durations {
		ms[i] = float64(d) / 1e6
	}
	return ms
}

// layerTotals groups spans by name.
func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := map[string]*layerTotal{}
	for i, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.name] = lt
		}
		lt.calls++
		lt.totalNS += s.dur()
		lt.selfNS += self[i]
		lt.durations = append(lt.durations, s.dur())
	}
	return out
}

// chromeEvent is one event of the Chrome trace-event format, which
// Perfetto and chrome://tracing open directly: a complete span ("X") or
// a process/thread name ("M").
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeChrome writes spans as Chrome trace-event JSON; times are in
// microseconds, as the format requires.
func writeChrome(w io.Writer, workload string, spans []span) error {
	self := selfTimes(spans)
	tr := chromeTrace{DisplayTimeUnit: "ms"}
	tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench " + workload},
	})
	tracks := map[int32]bool{}
	for _, s := range spans {
		tracks[s.track] = true
	}
	ids := make([]int32, 0, len(tracks))
	for id := range tracks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		name := "main"
		if id > 0 {
			name = fmt.Sprintf("sweep lane %d", id)
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: id, Args: map[string]any{"name": name},
		})
	}
	for i, s := range spans {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.track,
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{
				"id": s.id, "parent": s.parent, "self_us": float64(self[i]) / 1e3,
			},
		})
	}
	return json.NewEncoder(w).Encode(tr)
}

// writeChromeFile writes the trace to path, creating its directory.
func writeChromeFile(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := writeChrome(f, workload, spans); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
