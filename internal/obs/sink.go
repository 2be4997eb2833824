package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
)

// Sink consumes structured events. Implementations must be safe for
// concurrent Emit calls when attached to a concurrent vehicle
// (internal/runtime); the single-threaded simulators never emit
// concurrently.
type Sink interface {
	Emit(Event)
}

// Nop is the sink that discards everything. An Observer with a Nop sink
// still maintains its counters and histograms but skips building Event
// values entirely.
type Nop struct{}

// Emit implements Sink.
func (Nop) Emit(Event) {}

// Func adapts a function to the Sink interface.
type Func func(Event)

// Emit implements Sink.
func (f Func) Emit(e Event) { f(e) }

// JSONL writes one JSON object per event, newline-delimited, in a fixed
// field order. It serializes concurrent emitters with a mutex and
// hand-rolls the encoding (no reflection) so that enabling an event log
// does not distort what it measures.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	n   int64
	err error
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Events returns the number of events written so far.
func (s *JSONL) Events() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write error, if any; later events after an error
// are discarded.
func (s *JSONL) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Emit implements Sink.
func (s *JSONL) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	b = append(b, `{"t":`...)
	if math.IsNaN(e.T) || math.IsInf(e.T, 0) {
		// JSON has no non-finite numbers; a corrupt clock must not
		// produce an unparseable log line.
		b = append(b, "null"...)
	} else {
		b = strconv.AppendFloat(b, e.T, 'f', -1, 64)
	}
	b = append(b, `,"ev":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	if e.Node >= 0 {
		b = append(b, `,"node":`...)
		b = strconv.AppendInt(b, int64(e.Node), 10)
	}
	if e.Peer >= 0 {
		b = append(b, `,"peer":`...)
		b = strconv.AppendInt(b, int64(e.Peer), 10)
	}
	if e.Rule > 0 {
		b = append(b, `,"rule":`...)
		b = strconv.AppendInt(b, int64(e.Rule), 10)
	}
	if e.Kind == KindHandover {
		b = append(b, `,"gained":`...)
		b = strconv.AppendBool(b, e.Gained)
	}
	if e.Kind == KindConverged {
		b = append(b, `,"steps":`...)
		b = strconv.AppendInt(b, int64(e.Steps), 10)
	}
	b = append(b, '}', '\n')
	s.buf = b
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
	s.n++
}
