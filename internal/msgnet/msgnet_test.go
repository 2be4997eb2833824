package msgnet

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"ssrmin/internal/core"
	"ssrmin/internal/evq"
)

// echoNode records deliveries and timers; on Start it optionally sends a
// payload and arms a timer.
type echoNode struct {
	sendTo    int
	payload   any
	timerIn   Time
	received  []any
	from      []int
	timerHits int
	times     []Time
}

func (e *echoNode) Start(ctx *Context[any]) {
	if e.payload != nil {
		ctx.Send(e.sendTo, e.payload)
	}
	if e.timerIn > 0 {
		ctx.After(e.timerIn, 7)
	}
}

func (e *echoNode) Receive(ctx *Context[any], from int, payload any) {
	e.received = append(e.received, payload)
	e.from = append(e.from, from)
	e.times = append(e.times, ctx.Now())
}

func (e *echoNode) Timer(ctx *Context[any], kind int) {
	if kind == 7 {
		e.timerHits++
	}
}

func TestDeliveryWithDelay(t *testing.T) {
	a := &echoNode{sendTo: 1, payload: "hi"}
	b := &echoNode{}
	net := New([]Handler[any]{a, b}, 1)
	net.AddLink(0, 1, LinkParams{Delay: 0.5})
	net.Run(10)
	if len(b.received) != 1 || b.received[0] != "hi" {
		t.Fatalf("received %v", b.received)
	}
	if b.from[0] != 0 {
		t.Errorf("from = %d", b.from[0])
	}
	if b.times[0] != 0.5 {
		t.Errorf("delivered at %v, want 0.5", b.times[0])
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNoLinkNoDelivery(t *testing.T) {
	a := &echoNode{sendTo: 1, payload: "x"}
	b := &echoNode{}
	net := New([]Handler[any]{a, b}, 1)
	net.Run(10)
	if len(b.received) != 0 {
		t.Fatalf("received %v without a link", b.received)
	}
}

func TestTimerFires(t *testing.T) {
	a := &echoNode{timerIn: 2}
	net := New([]Handler[any]{a}, 1)
	net.Run(10)
	if a.timerHits != 1 {
		t.Errorf("timer hits = %d", a.timerHits)
	}
	if net.Stats().Timers != 1 {
		t.Errorf("stats.Timers = %d", net.Stats().Timers)
	}
}

// chattyNode sends k messages back-to-back at start.
type chattyNode struct {
	to, k int
	got   int
}

func (c *chattyNode) Start(ctx *Context[any]) {
	for i := 0; i < c.k; i++ {
		ctx.Send(c.to, i)
	}
}
func (c *chattyNode) Receive(ctx *Context[any], from int, payload any) { c.got++ }
func (c *chattyNode) Timer(ctx *Context[any], kind int)                {}

func TestBusyLinkSuppressesSends(t *testing.T) {
	// Five instantaneous sends at t=0 on a link with delay: only the first
	// may enter; the rest are suppressed (one message per direction).
	a := &chattyNode{to: 1, k: 5}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 1)
	net.AddLink(0, 1, LinkParams{Delay: 1})
	net.Run(10)
	st := net.Stats()
	if st.Sent != 1 || st.Suppressed != 4 {
		t.Fatalf("stats = %+v, want 1 sent / 4 suppressed", st)
	}
	if b.got != 1 {
		t.Errorf("b received %d", b.got)
	}
}

func TestZeroDelayLinkIsNotBusy(t *testing.T) {
	// With zero delay the link frees instantly, so all sends pass.
	a := &chattyNode{to: 1, k: 3}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 1)
	net.AddLink(0, 1, LinkParams{})
	net.Run(10)
	if b.got != 3 {
		t.Errorf("b received %d, want 3", b.got)
	}
}

func TestLossAndGate(t *testing.T) {
	a := &chattyNode{to: 1, k: 1}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 3)
	net.AddLink(0, 1, LinkParams{LossProb: 1})
	net.Run(10)
	if b.got != 0 || net.Stats().Lost != 1 {
		t.Fatalf("loss failed: got=%d stats=%+v", b.got, net.Stats())
	}

	// Gate off: same topology, loss disabled.
	a2 := &chattyNode{to: 1, k: 1}
	b2 := &chattyNode{}
	net2 := New([]Handler[any]{a2, b2}, 3)
	net2.AddLink(0, 1, LinkParams{LossProb: 1})
	net2.LossEnabled = false
	net2.Run(10)
	if b2.got != 1 {
		t.Fatalf("LossEnabled=false still lost the message")
	}
}

func TestDuplication(t *testing.T) {
	a := &chattyNode{to: 1, k: 1}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 5)
	net.AddLink(0, 1, LinkParams{Delay: 1, DupProb: 1})
	net.Run(10)
	if b.got != 2 || net.Stats().Duplicated != 1 {
		t.Fatalf("dup failed: got=%d stats=%+v", b.got, net.Stats())
	}
}

// TestDuplicateOccupiesLink is the regression test for the model-gap bug
// where a duplicated delivery bypassed the one-message-per-link rule: the
// duplicate must hold the link, so no new frame can be in flight
// concurrently with it.
func TestDuplicateOccupiesLink(t *testing.T) {
	a := &chattyNode{}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 11)
	net.AddLink(0, 1, LinkParams{Delay: 1, Jitter: 0.5, DupProb: 1})
	var dups []Time
	net.Tap = func(e TapEvent) {
		if e.Kind == TapDup {
			dups = append(dups, e.At)
		}
	}
	net.Run(0) // run Start callbacks only; no traffic yet
	ctx := &Context[any]{net: net, node: 0}
	if !ctx.Send(1, "x") {
		t.Fatal("first send refused on an idle link")
	}
	if len(dups) != 1 || dups[0] != 0 {
		t.Fatalf("TapDup events = %v, want one at t=0", dups)
	}
	// The duplicate holds the link until it lands; the original lands
	// strictly earlier. Run up to the instant before the duplicate.
	dupAt := net.linkFromTo(0, 1).busyUntil
	net.Run(Time(math.Nextafter(float64(dupAt), 0)))
	if b.got != 1 {
		t.Fatalf("got %d deliveries just before the duplicate lands, want the original only", b.got)
	}
	// The original arrived, but the duplicate is still in transit: the
	// link must refuse the next frame (one message per direction at a
	// time). This is exactly the send the pre-fix code admitted.
	if ctx.Send(1, "y") {
		t.Fatal("send admitted while the duplicate was still in flight")
	}
	if net.Stats().Suppressed != 1 {
		t.Fatalf("stats = %+v, want the busy-link refusal counted as Suppressed", net.Stats())
	}
	net.Run(dupAt)
	if b.got != 2 {
		t.Fatalf("got %d deliveries once the duplicate landed, want 2", b.got)
	}
	// The duplicate has landed; the medium is free again.
	if !ctx.Send(1, "z") {
		t.Fatal("link still busy after the duplicate arrived")
	}
}

// TestLostFrameHoldsMedium pins the loss coin's link-model semantics: a
// lost frame occupied the medium for its flight time, so a send attempted
// right behind it is suppressed, not lost.
func TestLostFrameHoldsMedium(t *testing.T) {
	a := &chattyNode{}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 3)
	net.AddLink(0, 1, LinkParams{Delay: 1, LossProb: 1})
	net.Run(0)
	ctx := &Context[any]{net: net, node: 0}
	if ctx.Send(1, "x") {
		t.Fatal("lossy send reported success")
	}
	if st := net.Stats(); st.Lost != 1 {
		t.Fatalf("stats = %+v, want 1 lost", st)
	}
	if ctx.Send(1, "y") {
		t.Fatal("send admitted while garbage was in flight")
	}
	if st := net.Stats(); st.Lost != 1 || st.Suppressed != 1 {
		t.Fatalf("stats = %+v, want the second send suppressed, not lost", st)
	}
	net.Run(2) // past the lost frame's flight window
	if ctx.Send(1, "z") {
		t.Fatal("lossy send reported success")
	}
	if st := net.Stats(); st.Lost != 2 || st.Suppressed != 1 {
		t.Fatalf("stats = %+v, want the late send to reach the loss coin", st)
	}
}

// TestCorruptedFrameHoldsMedium is the same audit for the corruption coin
// in checksum-discard mode.
func TestCorruptedFrameHoldsMedium(t *testing.T) {
	a := &chattyNode{}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 3)
	net.AddLink(0, 1, LinkParams{Delay: 1, CorruptProb: 1})
	net.Run(0)
	ctx := &Context[any]{net: net, node: 0}
	if ctx.Send(1, "x") {
		t.Fatal("corrupted send reported success without a hook")
	}
	if ctx.Send(1, "y") {
		t.Fatal("send admitted while the damaged frame was in flight")
	}
	if st := net.Stats(); st.Corrupted != 1 || st.Suppressed != 1 {
		t.Fatalf("stats = %+v, want 1 corrupted + 1 suppressed", st)
	}
	net.Run(2)
	ctx.Send(1, "z")
	if st := net.Stats(); st.Corrupted != 2 || st.Suppressed != 1 {
		t.Fatalf("stats = %+v, want the late send to reach the corruption coin", st)
	}
}

// TestSeededCoinDrawOrderPinned locks the RNG draw order of send(): loss
// coin, corruption coin, arrival jitter, duplication coin, duplicate
// jitter. A mirror RNG replays the documented order and predicts the exact
// outcome and timing of every attempt; reordering the draws in send()
// diverges from the prediction and fails this test for any seed.
func TestSeededCoinDrawOrderPinned(t *testing.T) {
	const seed = 99
	p := LinkParams{Delay: 1, Jitter: 0.25, LossProb: 0.3, CorruptProb: 0.2, DupProb: 0.4}
	const period = 2.0 // > Delay + 2*Jitter, so the link is free every time
	const attempts = 50

	// Driver: one send per timer tick. Timers draw nothing from the
	// network RNG, so every draw belongs to a send attempt.
	sent := 0
	a := &funcNode{
		start: func(ctx *Context[any]) { ctx.After(period, 0) },
		timer: func(ctx *Context[any], _ int) {
			ctx.Send(1, sent)
			sent++
			if sent < attempts {
				ctx.After(period, 0)
			}
		},
	}
	b := &funcNode{}
	var got []TapEvent
	net := New([]Handler[any]{a, b}, seed)
	net.AddLink(0, 1, p)
	net.Tap = func(e TapEvent) {
		if e.Kind != TapTimer {
			got = append(got, e)
		}
	}
	net.Run(attempts*period + 10)

	// Mirror prediction from an identical RNG, following the documented
	// draw order.
	mirror := rand.New(rand.NewSource(seed))
	type pred struct {
		kind TapKind
		at   Time
	}
	var want []pred
	var deliveries []Time
	for i := 0; i < attempts; i++ {
		now := Time((i + 1)) * period
		if mirror.Float64() < p.LossProb {
			mirror.Float64() // arrival jitter of the garbage frame
			want = append(want, pred{TapLost, now})
			continue
		}
		if mirror.Float64() < p.CorruptProb {
			mirror.Float64() // arrival jitter of the discarded frame
			want = append(want, pred{TapCorrupted, now})
			continue
		}
		at := now + p.Delay + Time(mirror.Float64())*p.Jitter
		want = append(want, pred{TapSend, now})
		deliveries = append(deliveries, at)
		if mirror.Float64() < p.DupProb {
			want = append(want, pred{TapDup, now})
			deliveries = append(deliveries, at+Time(mirror.Float64())*p.Jitter)
		}
	}
	for _, at := range deliveries {
		want = append(want, pred{TapDeliver, at})
	}

	// Compare per kind: send-side events in attempt order, deliveries as a
	// time-sorted multiset (events interleave in global time order).
	byKind := func(es []TapEvent, k TapKind) []Time {
		var out []Time
		for _, e := range es {
			if e.Kind == k {
				out = append(out, e.At)
			}
		}
		return out
	}
	wantByKind := func(k TapKind) []Time {
		var out []Time
		for _, w := range want {
			if w.kind == k {
				out = append(out, w.at)
			}
		}
		return out
	}
	for _, k := range []TapKind{TapLost, TapCorrupted, TapSend, TapDup, TapDeliver} {
		g, w := byKind(got, k), wantByKind(k)
		if k == TapDeliver {
			sortTimes(g)
			sortTimes(w)
		}
		if len(g) != len(w) {
			t.Fatalf("%v: %d events, mirror predicts %d — RNG draw order changed", k, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%v[%d] at %v, mirror predicts %v — RNG draw order changed", k, i, g[i], w[i])
			}
		}
	}
	if len(wantByKind(TapLost)) == 0 || len(wantByKind(TapCorrupted)) == 0 || len(wantByKind(TapDup)) == 0 {
		t.Fatal("seed exercised too few coin outcomes; pick another seed")
	}
}

func sortTimes(ts []Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func TestRingLinks(t *testing.T) {
	nodes := []Handler[any]{&echoNode{}, &echoNode{}, &echoNode{}}
	net := New(nodes, 1)
	net.RingLinks(LinkParams{Delay: 0.1})
	links := 0
	for _, out := range net.out {
		links += len(out)
	}
	if links != 6 {
		t.Errorf("ring of 3 has %d directed links, want 6", links)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) (Stats, Time) {
		a := &echoNode{sendTo: 1, payload: 1, timerIn: 0.3}
		b := &echoNode{sendTo: 0, payload: 2, timerIn: 0.7}
		net := New([]Handler[any]{a, b}, seed)
		net.AddLink(0, 1, LinkParams{Delay: 0.2, Jitter: 0.3, LossProb: 0.2})
		net.AddLink(1, 0, LinkParams{Delay: 0.2, Jitter: 0.3, LossProb: 0.2})
		net.Run(5)
		return net.Stats(), net.Now()
	}
	s1, t1 := run(42)
	s2, t2 := run(42)
	if s1 != s2 || t1 != t2 {
		t.Errorf("same seed diverged: %+v@%v vs %+v@%v", s1, t1, s2, t2)
	}
}

func TestObserverRunsPerEvent(t *testing.T) {
	a := &echoNode{sendTo: 1, payload: "m", timerIn: 1}
	b := &echoNode{}
	net := New([]Handler[any]{a, b}, 1)
	net.AddLink(0, 1, LinkParams{Delay: 0.5})
	obs := 0
	net.Observer = func(now Time) { obs++ }
	net.Run(10)
	// One observation after Start + one per event (delivery + timer).
	if obs != 3 {
		t.Errorf("observer ran %d times, want 3", obs)
	}
}

func TestRunAdvancesClockToHorizon(t *testing.T) {
	net := New([]Handler[any]{&echoNode{}}, 1)
	net.Run(42)
	if net.Now() != 42 {
		t.Errorf("Now = %v, want 42", net.Now())
	}
}

func TestEventOrderDeterministicTies(t *testing.T) {
	// Two timers at the same instant fire in scheduling order.
	var order []int
	a := &funcNode{start: func(ctx *Context[any]) { ctx.After(1, 0) }, timer: func(ctx *Context[any], _ int) { order = append(order, ctx.node) }}
	b := &funcNode{start: func(ctx *Context[any]) { ctx.After(1, 0) }, timer: func(ctx *Context[any], _ int) { order = append(order, ctx.node) }}
	net := New([]Handler[any]{a, b}, 1)
	net.Run(2)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Errorf("tie order = %v", order)
	}
}

func TestBadLinkParamsPanic(t *testing.T) {
	net := New([]Handler[any]{&echoNode{}, &echoNode{}}, 1)
	defer func() {
		if recover() == nil {
			t.Error("AddLink accepted LossProb=2")
		}
	}()
	net.AddLink(0, 1, LinkParams{LossProb: 2})
}

func TestNegativeTimerPanics(t *testing.T) {
	a := &funcNode{start: func(ctx *Context[any]) { ctx.After(-1, 0) }}
	net := New([]Handler[any]{a}, 1)
	defer func() {
		if recover() == nil {
			t.Error("negative timer accepted")
		}
	}()
	net.Run(1)
}

// TestNonFiniteInputsPanic: a NaN or infinite delay, jitter or timer
// and a NaN probability are rejected where they are made, with the same
// panics as a negative one, since an event at a NaN or infinite time is
// never due.
func TestNonFiniteInputsPanic(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		do   func(net *Network[any])
		want string
	}{
		{"delay NaN", func(net *Network[any]) { net.AddLink(0, 1, LinkParams{Delay: Time(nan)}) }, "msgnet: bad link params"},
		{"delay +Inf", func(net *Network[any]) { net.AddLink(0, 1, LinkParams{Delay: Time(inf)}) }, "msgnet: bad link params"},
		{"jitter NaN", func(net *Network[any]) { net.AddLink(0, 1, LinkParams{Delay: 1, Jitter: Time(nan)}) }, "msgnet: bad link params"},
		{"jitter +Inf", func(net *Network[any]) { net.AddLink(0, 1, LinkParams{Delay: 1, Jitter: Time(inf)}) }, "msgnet: bad link params"},
		{"loss NaN", func(net *Network[any]) { net.AddLink(0, 1, LinkParams{Delay: 1, LossProb: nan}) }, "msgnet: bad link params"},
		{"dup NaN", func(net *Network[any]) { net.AddLink(0, 1, LinkParams{Delay: 1, DupProb: nan}) }, "msgnet: bad link params"},
		{"corrupt NaN", func(net *Network[any]) { net.AddLink(0, 1, LinkParams{Delay: 1, CorruptProb: nan}) }, "msgnet: bad link params"},
		{"StartTimer NaN", func(net *Network[any]) { net.StartTimer(0, Time(nan), 0) }, "msgnet: negative timer delay"},
		{"StartTimer +Inf", func(net *Network[any]) { net.StartTimer(0, Time(inf), 0) }, "msgnet: negative timer delay"},
		{"After NaN", func(net *Network[any]) { net.callbackCtx(0).After(Time(nan), 0) }, "msgnet: negative timer delay"},
		{"After +Inf", func(net *Network[any]) { net.callbackCtx(0).After(Time(inf), 0) }, "msgnet: negative timer delay"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := New([]Handler[any]{&echoNode{}, &echoNode{}}, 1)
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, c.want) {
					t.Errorf("panic %q, want %q", msg, c.want)
				}
				if net.arena.Len() != 0 {
					t.Errorf("%d events scheduled by a rejected call", net.arena.Len())
				}
			}()
			c.do(net)
		})
	}
}

// TestRecordSize pins msgnet's event record, with the core.State payload
// the CST tier sends, at 48 bytes: the kind rides in the record's Kind
// byte, in the padding after Lane.
func TestRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(evq.Rec[event[core.State]]{}); size != 48 {
		t.Errorf("msgnet event record is %d bytes, want 48", size)
	}
}

type funcNode struct {
	start func(*Context[any])
	recv  func(*Context[any], int, any)
	timer func(*Context[any], int)
}

func (f *funcNode) Start(ctx *Context[any]) {
	if f.start != nil {
		f.start(ctx)
	}
}
func (f *funcNode) Receive(ctx *Context[any], from int, payload any) {
	if f.recv != nil {
		f.recv(ctx, from, payload)
	}
}
func (f *funcNode) Timer(ctx *Context[any], kind int) {
	if f.timer != nil {
		f.timer(ctx, kind)
	}
}

func TestCorruptionDropMode(t *testing.T) {
	// Without a Corrupt hook, corrupted frames are discarded (checksum
	// model) and still occupy the medium.
	a := &chattyNode{to: 1, k: 1}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 7)
	net.AddLink(0, 1, LinkParams{Delay: 1, CorruptProb: 1})
	net.Run(10)
	if b.got != 0 {
		t.Fatalf("corrupted frame delivered without a hook: got=%d", b.got)
	}
	if net.Stats().Corrupted != 1 {
		t.Fatalf("stats = %+v", net.Stats())
	}
}

func TestCorruptionHookRewritesPayload(t *testing.T) {
	a := &echoNode{sendTo: 1, payload: 100}
	b := &echoNode{}
	net := New([]Handler[any]{a, b}, 7)
	net.AddLink(0, 1, LinkParams{Delay: 0.1, CorruptProb: 1})
	net.Corrupt = func(rng *rand.Rand, payload any) any { return payload.(int) + 1 }
	net.Run(10)
	if len(b.received) != 1 || b.received[0] != 101 {
		t.Fatalf("received %v, want corrupted 101", b.received)
	}
	if net.Stats().Corrupted != 1 || net.Stats().Sent != 1 {
		t.Fatalf("stats = %+v", net.Stats())
	}
}

func TestCorruptProbValidation(t *testing.T) {
	net := New([]Handler[any]{&echoNode{}, &echoNode{}}, 1)
	defer func() {
		if recover() == nil {
			t.Error("AddLink accepted CorruptProb=-1")
		}
	}()
	net.AddLink(0, 1, LinkParams{CorruptProb: -1})
}

func TestLinkOutage(t *testing.T) {
	a := &chattyNode{to: 1, k: 1}
	b := &chattyNode{}
	net := New([]Handler[any]{a, b}, 1)
	net.AddLink(0, 1, LinkParams{Delay: 0.1})
	net.SetLinkUp(0, 1, false)
	net.Run(5)
	if b.got != 0 || net.Stats().Lost != 1 {
		t.Fatalf("outage failed: got=%d stats=%+v", b.got, net.Stats())
	}
	// Raise the link again; a fresh sender gets through.
	net.SetLinkUp(0, 1, true)
	c2 := &Context[any]{net: net, node: 0}
	if !c2.Send(1, "late") {
		t.Fatal("send after outage failed")
	}
	net.Run(10)
	if b.got != 1 {
		t.Fatalf("post-outage delivery failed: got=%d", b.got)
	}
}

func TestSetLinkUpUnknownPanics(t *testing.T) {
	net := New([]Handler[any]{&echoNode{}}, 1)
	defer func() {
		if recover() == nil {
			t.Error("SetLinkUp on missing link accepted")
		}
	}()
	net.SetLinkUp(0, 1, false)
}
