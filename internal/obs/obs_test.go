package obs

import (
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	o.Step(1, 2)
	o.RuleFired(1, 0, 1)
	o.TokenMoved(1, 0, 1)
	o.Handover(1, 0, true)
	o.ConvergedAt(1, 5)
	if o.LiveSink() != nil {
		t.Error("nil observer has a live sink")
	}
	var b strings.Builder
	o.WriteText(&b)
	if !strings.Contains(b.String(), "no observer") {
		t.Fatalf("unexpected nil exposition: %q", b.String())
	}
}

func TestCounters(t *testing.T) {
	o := New(nil)
	for i := 0; i < 3; i++ {
		o.Step(float64(i), 2)
		o.RuleFired(float64(i), i, 1)
		o.RuleFired(float64(i), i, 4)
	}
	o.TokenMoved(3, 0, 1)
	o.Handover(3, 1, true)
	o.Handover(4, 0, false)
	o.ConvergedAt(6, 43)

	if got := o.C.Steps.Load(); got != 3 {
		t.Errorf("steps = %d, want 3", got)
	}
	if got := o.C.RuleFired.Load(); got != 6 {
		t.Errorf("rule fired = %d, want 6", got)
	}
	if got := o.C.Rules[1].Load(); got != 3 {
		t.Errorf("rule 1 = %d, want 3", got)
	}
	if got := o.C.Rules[4].Load(); got != 3 {
		t.Errorf("rule 4 = %d, want 3", got)
	}
	if got := o.C.Handovers.Load(); got != 1 {
		t.Errorf("handovers = %d, want 1 (only gains count)", got)
	}
	if got := o.ConvergeSteps.Sum(); got != 43 || o.ConvergeSteps.Count() != 1 {
		t.Errorf("converge steps = %d over %d samples, want 43 over 1", got, o.ConvergeSteps.Count())
	}
	if got := o.StepMoves.Count(); got != 3 {
		t.Errorf("step moves count = %d, want 3", got)
	}
}

// TestLiveSink: only a sink that builds events is live.
func TestLiveSink(t *testing.T) {
	if New(nil).LiveSink() != nil || New(Nop{}).LiveSink() != nil {
		t.Error("a Nop sink is live")
	}
	sink := NewJSONL(io.Discard)
	if got := New(sink).LiveSink(); got != sink {
		t.Errorf("LiveSink = %v, want the installed JSONL sink", got)
	}
}

func TestHandoverGap(t *testing.T) {
	o := New(nil)
	o.Handover(1.0, 0, true) // first gain: no gap yet
	if got := o.HandoverGap.Count(); got != 0 {
		t.Fatalf("gap count after first gain = %d, want 0", got)
	}
	o.Handover(1.5, 1, true) // 0.5s gap = 500000µs
	if got := o.HandoverGap.Count(); got != 1 {
		t.Fatalf("gap count = %d, want 1", got)
	}
	if got := o.HandoverGap.Sum(); got != 500000 {
		t.Fatalf("gap sum = %dµs, want 500000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 8, 1 << 50} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	snap := h.Snapshot()
	if snap[0] != 1 { // v ≤ 0
		t.Errorf("bucket 0 = %d, want 1", snap[0])
	}
	if snap[1] != 1 { // v = 1
		t.Errorf("bucket 1 = %d, want 1", snap[1])
	}
	if snap[2] != 2 { // v ∈ {2, 3}
		t.Errorf("bucket 2 = %d, want 2", snap[2])
	}
	if snap[4] != 1 { // v = 8
		t.Errorf("bucket 4 = %d, want 1", snap[4])
	}
	if snap[Buckets-1] != 1 { // catch-all
		t.Errorf("last bucket = %d, want 1", snap[Buckets-1])
	}
}

func TestJSONLSink(t *testing.T) {
	var b strings.Builder
	sink := NewJSONL(&b)
	o := New(sink)
	o.RuleFired(0.25, 3, 2)
	o.TokenMoved(0.5, 3, 4)
	o.Handover(0.5, 4, true)
	o.LiveSink().Emit(Event{T: 0.75, Kind: KindMsgDropped, Node: 1, Peer: 0})
	o.ConvergedAt(1, 16)
	want := `{"t":0.25,"ev":"rule","node":3,"rule":2}
{"t":0.5,"ev":"token","node":4,"peer":3}
{"t":0.5,"ev":"handover","node":4,"gained":true}
{"t":0.75,"ev":"drop","node":1,"peer":0}
{"t":1,"ev":"converged","steps":16}
`
	if b.String() != want {
		t.Errorf("JSONL mismatch.\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
	if sink.Events() != 5 {
		t.Errorf("events = %d, want 5", sink.Events())
	}
	if sink.Err() != nil {
		t.Errorf("err = %v", sink.Err())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONLSinkError(t *testing.T) {
	sink := NewJSONL(failWriter{})
	sink.Emit(Event{Kind: KindRuleFired, Node: 0, Peer: -1, Rule: 1})
	sink.Emit(Event{Kind: KindRuleFired, Node: 0, Peer: -1, Rule: 1})
	if sink.Err() == nil {
		t.Fatal("expected write error")
	}
}

func TestNopSinkSkipsEventConstruction(t *testing.T) {
	o := New(Nop{})
	if o.emit {
		t.Fatal("Nop sink must disable event emission")
	}
	o = New(NewJSONL(io.Discard))
	if !o.emit {
		t.Fatal("real sink must enable event emission")
	}
}

func TestWriteText(t *testing.T) {
	o := New(nil)
	o.Step(0, 1)
	o.RuleFired(0, 0, 2)
	o.Handover(0, 0, true)
	o.Handover(1, 1, true)
	var b strings.Builder
	o.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"ssrmin_steps 1\n",
		"ssrmin_rule_fired 1\n",
		"ssrmin_rule_fired{rule=2} 1\n",
		"ssrmin_handovers 2\n",
		"ssrmin_handover_gap_us_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestServeMetrics(t *testing.T) {
	o := New(nil)
	o.Step(0, 1)
	addr, shutdown, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "ssrmin_steps 1") {
		t.Errorf("metrics body:\n%s", body)
	}
}

func TestFirstGainSentinel(t *testing.T) {
	o := New(nil)
	if !math.IsNaN(math.Float64frombits(o.lastGain.Load())) {
		t.Fatal("lastGain sentinel must start as NaN")
	}
}

// TestMerge: merging adds every counter and histogram bucket, and the
// handover gaps of the merged observers stay separate — no gap spans the
// last gain of one and the first gain of the other.
func TestMerge(t *testing.T) {
	a, b := New(nil), New(nil)
	for i, o := range []*Observer{a, b} {
		o.Step(0, 2+i)
		o.RuleFired(0, 0, 1+i)
		o.C.MsgSent.Add(1)
		o.C.MsgRecv.Add(1)
		o.C.MsgDropped.Add(1)
		o.TokenMoved(0, 0, 1)
		o.ConvergedAt(0, 7)
		o.Handover(float64(10*i), 0, true)
		o.Handover(float64(10*i)+1, 1, true)
	}
	m := New(nil)
	m.Merge(a)
	m.Merge(b)
	m.Merge(nil)
	var nilObs *Observer
	nilObs.Merge(a)

	for name, got := range map[string]int64{
		"Steps": m.C.Steps.Load(), "RuleFired": m.C.RuleFired.Load(), "MsgSent": m.C.MsgSent.Load(),
		"MsgRecv": m.C.MsgRecv.Load(), "MsgDropped": m.C.MsgDropped.Load(), "TokenMoves": m.C.TokenMoves.Load(),
		"Converged": m.C.Converged.Load(), "ConvergeSteps": m.ConvergeSteps.Count(),
	} {
		if got != 2 {
			t.Errorf("%s = %d, want 2", name, got)
		}
	}
	if m.C.Rules[1].Load() != 1 || m.C.Rules[2].Load() != 1 || m.C.Handovers.Load() != 4 {
		t.Errorf("rules %d/%d handovers %d", m.C.Rules[1].Load(), m.C.Rules[2].Load(), m.C.Handovers.Load())
	}
	if m.StepMoves.Sum() != 5 || m.StepMoves.Snapshot() != addSnapshots(a.StepMoves.Snapshot(), b.StepMoves.Snapshot()) {
		t.Errorf("StepMoves sum %d snapshot %v", m.StepMoves.Sum(), m.StepMoves.Snapshot())
	}
	// One 1 s gap per observer: 1e6 µs each, nothing for the 9 s between them.
	if m.HandoverGap.Count() != 2 || m.HandoverGap.Sum() != 2e6 {
		t.Errorf("HandoverGap count %d sum %d, want 2 gaps of 1e6", m.HandoverGap.Count(), m.HandoverGap.Sum())
	}
}

func addSnapshots(x, y [Buckets]int64) [Buckets]int64 {
	for i := range x {
		x[i] += y[i]
	}
	return x
}

// TestMergeCoversEveryCounter walks every atomic.Int64 in an Observer —
// counters, per-rule counters and histogram buckets, count and sum — so a
// field added later without a line in Merge fails here.
func TestMergeCoversEveryCounter(t *testing.T) {
	src, dst := New(nil), New(nil)
	srcs := int64Fields(reflect.ValueOf(src).Elem())
	if len(srcs) < 8+MaxRules+3*(Buckets+2) {
		t.Fatalf("walk found only %d counters", len(srcs))
	}
	for i, p := range srcs {
		p.Store(int64(i + 1))
	}
	dst.Merge(src)
	dst.Merge(src)
	for i, p := range int64Fields(reflect.ValueOf(dst).Elem()) {
		if got, want := p.Load(), 2*int64(i+1); got != want {
			t.Errorf("counter %d: merged %d, want %d", i, got, want)
		}
	}
}

// int64Fields returns every atomic.Int64 reachable through v's struct
// fields and arrays, unexported ones included, in declaration order.
func int64Fields(v reflect.Value) []*atomic.Int64 {
	switch {
	case v.Type() == reflect.TypeOf(atomic.Int64{}):
		return []*atomic.Int64{(*atomic.Int64)(unsafe.Pointer(v.UnsafeAddr()))}
	case v.Kind() == reflect.Array:
		var out []*atomic.Int64
		for i := 0; i < v.Len(); i++ {
			out = append(out, int64Fields(v.Index(i))...)
		}
		return out
	case v.Kind() == reflect.Struct:
		var out []*atomic.Int64
		for i := 0; i < v.NumField(); i++ {
			out = append(out, int64Fields(v.Field(i))...)
		}
		return out
	}
	return nil
}
