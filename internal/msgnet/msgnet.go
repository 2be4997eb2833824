// Package msgnet is a deterministic discrete-event simulator for
// asynchronous message-passing networks, the substrate of Section 5 of the
// paper. Nodes exchange messages over directed links with configurable
// propagation delay, jitter, loss and duplication; nodes also set local
// timers. Every source of nondeterminism draws from one seeded RNG, so a
// simulation is a pure function of (topology, handlers, seed).
//
// The paper's link model is honored: "each communication link can transmit
// only one message in each direction at a time — a node v_i can send a
// message to v_j only if there is no message transiting on the link." A
// Send while the link is busy is therefore silently dropped (the result is
// reported so callers can count suppressions). This back-pressure is what
// keeps the cached sensornet transform's echo storm finite.
//
// Events run on internal/evq, the epoch run queue the live engine's
// shards use too. An epoch opens at the earliest pending event and is as
// wide as the smallest link delay, so deliveries always land in a later
// epoch and only short timers take the queue's in-epoch heap. Events
// are value records with the payload held as the concrete type parameter
// P instead of boxed in `any`, so a simulated message costs no heap
// allocation. Events fire in (at, seq) order, so equal-time events fire
// in scheduling order and every seeded trace is reproducible;
// testdata/digests/msgnet-taps.sha256 pins 40 of them (digest_test.go).
package msgnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ssrmin/internal/evq"
	"ssrmin/internal/obs"
)

// Time is simulated time in seconds.
type Time float64

// LinkParams configures one directed link.
type LinkParams struct {
	// Delay is the base propagation delay of a message.
	Delay Time
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter Time
	// LossProb is the probability that a message is lost in transit.
	LossProb float64
	// DupProb is the probability that a message is delivered twice (the
	// duplicate arrives after an extra jitter draw). A duplicate is the
	// same frame echoing on the medium, so it keeps the link busy until
	// its own arrival: the one-message-per-direction rule applies to the
	// duplicate too.
	DupProb float64
	// CorruptProb is the probability that a message is delivered with a
	// corrupted payload, produced by the network's Corrupt hook. Without a
	// hook, corruption degenerates to loss.
	CorruptProb float64
}

// Handler is the behaviour of one node. P is the network's frame type:
// handlers receive payloads as concrete values, never boxed.
type Handler[P any] interface {
	// Start runs once at time zero, before any delivery.
	Start(ctx *Context[P])
	// Receive runs on each message delivery.
	Receive(ctx *Context[P], from int, payload P)
	// Timer runs when a timer set via Context.After fires.
	Timer(ctx *Context[P], kind int)
}

// Context is the interface a handler uses to interact with the network. A
// Context is only valid for the duration of the callback it is passed to.
type Context[P any] struct {
	net  *Network[P]
	node int
}

// Now returns the current simulated time.
func (c *Context[P]) Now() Time { return c.net.now }

// Rand returns the simulation RNG (shared, deterministic).
func (c *Context[P]) Rand() *rand.Rand { return c.net.rng }

// Send transmits payload to node `to` over the configured link. It
// reports whether the message entered the link: false when no link exists,
// when the link is still busy with an earlier message (the paper's
// one-message-per-direction rule), or when the loss coin eats it.
//
//allocgate:hot
func (c *Context[P]) Send(to int, payload P) bool {
	return c.net.send(c.node, to, payload)
}

// After schedules a timer callback for the node after d time units. Kind
// is handed back to the Timer callback. d must be finite and not
// negative.
//
//allocgate:hot
func (c *Context[P]) After(d Time, kind int) {
	if !validDelay(d) {
		panic("msgnet: negative timer delay")
	}
	c.net.pushTimer(c.net.now+d, int32(c.node), int32(kind))
}

// Event kinds, held in the record's Kind byte.
const (
	evTimer uint8 = iota
	evDeliver
)

// event is the body of one scheduled occurrence; its evq.Rec carries the
// time, the sequence number that breaks ties and the kind. Lane stays 0,
// so the queue dispatches in exactly (at, seq) order, which the
// Observer hook, reading global state after every event, relies on.
type event[P any] struct {
	load P     // payload (evDeliver)
	node int32 // destination node
	arg  int32 // sender (evDeliver) or timer kind (evTimer)
}

// Arena is the reusable storage of a network's event queue. Arenas are
// reusable across simulations via Network.UseArena (reset, not
// reallocated), which is how parsweep worker pools keep an N-seed sweep
// at near-zero steady-state allocation. An Arena must never be shared by
// two live networks at once.
type Arena[P any] struct {
	q evq.Queue[event[P]]
}

// NewArena returns an empty arena.
func NewArena[P any]() *Arena[P] { return &Arena[P]{} }

// Len returns the number of scheduled events.
func (a *Arena[P]) Len() int { return a.q.Len() }

// Cap returns the number of events the arena's storage has grown to;
// Reset keeps it.
func (a *Arena[P]) Cap() int { return a.q.Cap() }

// Reset empties the arena for reuse, keeping its storage. Stored events
// are zeroed so payloads from the previous simulation are not retained.
func (a *Arena[P]) Reset() { a.q.Reset() }

// link is one directed link, held in its sender's outgoing list.
type link struct {
	to     int
	params LinkParams
	// busyUntil is the delivery time of the message currently in transit;
	// the link accepts a new message only when now >= busyUntil.
	busyUntil Time
	// down marks an outage: every send is dropped while true.
	down bool
}

// TapKind classifies a TapEvent.
type TapKind uint8

// Tap event kinds.
const (
	// TapSend: a message entered a link (From -> Node).
	TapSend TapKind = iota
	// TapSuppressed: a send was refused because the link was busy.
	TapSuppressed
	// TapLost: the loss coin (or a cut link) ate a message.
	TapLost
	// TapCorrupted: the corruption coin hit a message.
	TapCorrupted
	// TapDeliver: a message was delivered (From -> Node).
	TapDeliver
	// TapTimer: a timer fired at Node.
	TapTimer
	// TapDup: the duplication coin scheduled a second delivery of the
	// frame just sent (From -> Node). Emitted at send time; the duplicate's
	// arrival is a plain TapDeliver.
	TapDup
	// tapDiscarded tallies a corrupted frame discarded for want of a
	// Corrupt hook; it taps as TapCorrupted.
	tapDiscarded
)

// String returns a short mnemonic.
func (k TapKind) String() string {
	switch k {
	case TapSend:
		return "send"
	case TapSuppressed:
		return "suppressed"
	case TapLost:
		return "lost"
	case TapCorrupted:
		return "corrupted"
	case TapDeliver:
		return "deliver"
	case TapTimer:
		return "timer"
	case TapDup:
		return "dup"
	}
	return "unknown"
}

// TapEvent is one network-level action. It is deliberately not generic:
// tap consumers (space-time diagrams, the crosscheck link monitor) watch
// the network layer and never need the payload type.
type TapEvent struct {
	// At is the simulated time of the action.
	At Time
	// Kind classifies it.
	Kind TapKind
	// Node is the acting/receiving node; From the sender where relevant.
	Node, From int
}

// Stats counts network-level events. The observer's MsgSent is Sent,
// MsgRecv is Delivered, and MsgDropped is Suppressed + Lost + the
// Corrupted frames discarded for want of a Corrupt hook. A frame from
// an ex-neighbour is delivered (cst discards it into Node.StaleFrames).
type Stats struct {
	// Sent counts messages accepted onto a link.
	Sent int
	// Suppressed counts sends refused because the link was busy.
	Suppressed int
	// Lost counts messages eaten by the loss coin.
	Lost int
	// Duplicated counts extra deliveries scheduled by the duplication
	// coin. A duplicate occupies its link until it arrives, so sends
	// attempted in that window count under Suppressed, exactly as for an
	// ordinary in-flight message.
	Duplicated int
	// Corrupted counts messages hit by the corruption coin.
	Corrupted int
	// Delivered counts Receive callbacks.
	Delivered int
	// Timers counts Timer callbacks.
	Timers int
}

// Network is a discrete-event simulation instance over frame type P.
type Network[P any] struct {
	handlers []Handler[P]
	// out[a] is node a's outgoing links, at most one per destination: a
	// send scans its sender's few links, and the store grows with the
	// number of links, not with the square of the node count.
	out   [][]link
	arena *Arena[P]
	// lookahead is the smallest Delay of any link added: the width of an
	// event-queue epoch (+Inf while there are no links).
	lookahead Time
	now       Time
	seq       uint64
	rng       *rand.Rand
	started   bool
	// ctx is the reusable callback context handed to every handler
	// callback.
	ctx Context[P]

	// Observer, when non-nil, runs after every processed event (and once
	// after all Start callbacks). Observers read global state through the
	// handlers, e.g. to record token-count timelines.
	Observer func(now Time)

	// LossEnabled gates the LossProb coins; fault schedules flip it.
	LossEnabled bool

	// Tap, when non-nil, receives a TapEvent for every network-level
	// action (send, suppression, loss, corruption, delivery, timer) — the
	// feed for space-time diagrams and debugging. Run and SendFrom read
	// it (and Obs) on entry.
	Tap func(TapEvent)

	// Corrupt, when non-nil, rewrites a payload hit by a CorruptProb coin
	// (e.g. into a random state). When nil, corrupted messages are
	// dropped instead — a checksum would have rejected them anyway.
	Corrupt func(rng *rand.Rand, payload P) P

	// Obs, when non-nil, receives message send/recv/drop counters and
	// events; times are simulated seconds. Suppressed, lost and
	// checksum-discarded messages all count as drops. The counters are
	// published from the network's tally when Run or SendFrom returns.
	Obs *obs.Observer

	tally, pub [tapDiscarded + 1]int // actions by tap kind; pub at the last publish
	sink       obs.Sink              // Obs's live sink, or nil
	traced     bool                  // a Tap or a live sink: record calls trace
}

// New creates a network of the given handlers with no links. Seed fixes
// all randomness.
func New[P any](handlers []Handler[P], seed int64) *Network[P] {
	n := &Network[P]{
		handlers:    handlers,
		arena:       NewArena[P](),
		lookahead:   Time(math.Inf(1)),
		rng:         rand.New(rand.NewSource(seed)),
		LossEnabled: true,
	}
	n.ctx.net = n
	return n
}

// UseArena installs a caller-owned event arena (e.g. one drawn from a
// parsweep.Pool) so consecutive simulations reuse the same queue storage
// instead of growing a fresh one. The arena is Reset. It must be called
// before any event is scheduled.
func (n *Network[P]) UseArena(a *Arena[P]) {
	if n.started {
		panic("msgnet: UseArena after start")
	}
	if n.arena.Len() > 0 {
		panic("msgnet: UseArena after events were scheduled")
	}
	a.Reset()
	n.arena = a
}

// AddLink installs a directed link from a to b, replacing an existing
// one with a fresh (idle, up) link. Delay and Jitter must be finite and
// not negative, and each probability must lie in [0, 1]; NaN is neither.
func (n *Network[P]) AddLink(a, b int, p LinkParams) {
	if !validDelay(p.Delay) || !validDelay(p.Jitter) ||
		!prob(p.LossProb) || !prob(p.DupProb) || !prob(p.CorruptProb) {
		panic(fmt.Sprintf("msgnet: bad link params %+v", p))
	}
	n.lookahead = min(n.lookahead, p.Delay)
	if l := n.linkFromTo(a, b); l != nil {
		*l = link{to: b, params: p}
		return
	}
	if a >= len(n.out) {
		n.out = append(n.out, make([][]link, a+1-len(n.out))...)
	}
	n.out[a] = append(n.out[a], link{to: b, params: p})
}

// validDelay reports whether d is a usable delay: not negative, not NaN
// and not infinite. A NaN or infinite event time is never due, so it
// would stall its node silently instead of failing where it was made.
func validDelay(d Time) bool { return d >= 0 && d <= math.MaxFloat64 }

// prob reports whether p is a probability in [0, 1] (NaN is not).
func prob(p float64) bool { return p >= 0 && p <= 1 }

// RingLinks installs bidirectional ring links between consecutive nodes
// with identical parameters.
func (n *Network[P]) RingLinks(p LinkParams) {
	size := len(n.handlers)
	for i := 0; i < size; i++ {
		j := (i + 1) % size
		n.AddLink(i, j, p)
		n.AddLink(j, i, p)
	}
}

// Stats returns the network counters.
func (n *Network[P]) Stats() Stats {
	t := &n.tally
	return Stats{
		Sent: t[TapSend], Suppressed: t[TapSuppressed], Lost: t[TapLost],
		Duplicated: t[TapDup], Corrupted: t[TapCorrupted] + t[tapDiscarded],
		Delivered: t[TapDeliver], Timers: t[TapTimer],
	}
}

// record counts one action in the network's tally and, with a Tap or a
// live sink, traces it: the one path every action takes.
//
//allocgate:hot
func (n *Network[P]) record(k TapKind, node, from int) {
	n.tally[k]++
	if n.traced {
		n.trace(k, node, from)
	}
}

// trace taps the action and hands a live sink the event of a send,
// delivery or drop.
//
//allocgate:hot
func (n *Network[P]) trace(k TapKind, node, from int) {
	if n.Tap != nil {
		tk := k
		if k == tapDiscarded {
			tk = TapCorrupted
		}
		n.Tap(TapEvent{At: n.now, Kind: tk, Node: node, From: from})
	}
	s := n.sink
	if s == nil {
		return
	}
	kind := obs.KindMsgDropped
	switch k {
	case TapSend:
		kind, node, from = obs.KindMsgSent, from, node
	case TapDeliver:
		kind = obs.KindMsgRecv
	case TapCorrupted, TapDup, TapTimer:
		return
	}
	s.Emit(obs.Event{T: float64(n.now), Kind: kind, Node: node, Peer: from})
}

// attach reads Tap and Obs; Run and SendFrom call it on entry.
func (n *Network[P]) attach() {
	n.sink = nil
	if o := n.Obs; o != nil {
		n.sink = o.LiveSink()
	}
	n.traced = n.Tap != nil || n.sink != nil
}

// publish adds what the network tallied since the last publish to Obs's
// counters.
//
//allocgate:hot
func (n *Network[P]) publish() {
	t, p := &n.tally, &n.pub
	if o := n.Obs; o != nil {
		obs.Add(&o.C.MsgSent, int64(t[TapSend]-p[TapSend]))
		obs.Add(&o.C.MsgRecv, int64(t[TapDeliver]-p[TapDeliver]))
		obs.Add(&o.C.MsgDropped, int64(t[TapSuppressed]-p[TapSuppressed]+t[TapLost]-p[TapLost]+
			t[tapDiscarded]-p[tapDiscarded]))
	}
	n.pub = n.tally
}

// Now returns current simulated time.
func (n *Network[P]) Now() Time { return n.now }

// pushDeliver schedules a delivery of *payload from `from` to `to`.
//
//allocgate:hot
func (n *Network[P]) pushDeliver(at Time, to, from int32, payload *P) {
	n.push(evq.Rec[event[P]]{At: float64(at), Kind: evDeliver, Body: event[P]{load: *payload, node: to, arg: from}})
}

// pushTimer schedules a timer of kind tkind for node.
//
//allocgate:hot
func (n *Network[P]) pushTimer(at Time, node, tkind int32) {
	n.push(evq.Rec[event[P]]{At: float64(at), Kind: evTimer, Body: event[P]{node: node, arg: tkind}})
}

// push files one event under the next sequence number.
//
//allocgate:hot
func (n *Network[P]) push(rec evq.Rec[event[P]]) {
	rec.Key = n.seq
	n.seq++
	n.arena.q.Push(rec)
}

// callbackCtx returns the network's one reusable Context, pointed at node.
//
//allocgate:hot
func (n *Network[P]) callbackCtx(node int) *Context[P] {
	n.ctx.node = node
	return &n.ctx
}

// SetLinkUp raises or cuts the directed link from a to b. Messages sent
// into a cut link are dropped (and counted as lost). Cutting both
// directions of one ring edge simulates a cable cut / radio outage.
func (n *Network[P]) SetLinkUp(a, b int, up bool) {
	l := n.linkFromTo(a, b)
	if l == nil {
		panic(fmt.Sprintf("msgnet: no link %d->%d", a, b))
	}
	l.down = !up
}

// HasLink reports whether the directed link a->b currently exists (cut
// links exist; removed links do not).
func (n *Network[P]) HasLink(a, b int) bool {
	return n.linkFromTo(a, b) != nil
}

// RemoveLink tears down the directed link from a to b (ring churn: the
// edge no longer exists, unlike a SetLinkUp outage which keeps it cut but
// present). Frames already in transit on the link are NOT cancelled —
// they were on the medium when the topology changed and still arrive;
// receivers are expected to discard frames from ex-neighbors. Removing a
// link that does not exist is a no-op, so churn orchestration need not
// track which edges survived earlier splices.
func (n *Network[P]) RemoveLink(a, b int) {
	if n.HasLink(a, b) {
		n.out[a] = slices.DeleteFunc(n.out[a], func(l link) bool { return l.to == b })
	}
}

// Rand returns the simulation RNG. External drivers (fault injectors,
// churn orchestration) draw from it so their randomness shares the one
// seeded stream that makes a run a pure function of (topology, seed).
func (n *Network[P]) Rand() *rand.Rand { return n.rng }

// SendFrom injects a send from node `from` outside a handler callback —
// the hook churn orchestration uses to make a freshly joined node
// announce its state at the splice instant. It is the same path as
// Context.Send: the link-busy rule, loss/corruption/duplication coins and
// tap stream all apply identically.
func (n *Network[P]) SendFrom(from, to int, payload P) bool {
	n.attach()
	defer n.publish()
	return n.send(from, to, payload)
}

// StartTimer arms a timer for node after d time units, outside a handler
// callback (churn orchestration arming a joiner's refresh timer). Kind is
// handed back to the node's Timer callback, exactly as Context.After.
func (n *Network[P]) StartTimer(node int, d Time, kind int) {
	if !validDelay(d) {
		panic("msgnet: negative timer delay")
	}
	if node < 0 || node >= len(n.handlers) {
		panic(fmt.Sprintf("msgnet: StartTimer for unknown node %d", node))
	}
	n.pushTimer(n.now+d, int32(node), int32(kind))
}

// linkFromTo resolves the directed link from->to, or nil: a scan of the
// sender's outgoing links (two on a ring), with no map and no allocation
// on the send path. The pointer is valid until the next AddLink or
// RemoveLink.
//
//allocgate:hot
func (n *Network[P]) linkFromTo(from, to int) *link {
	if from < 0 || from >= len(n.out) {
		return nil
	}
	out := n.out[from]
	for i := range out {
		if out[i].to == to {
			return &out[i]
		}
	}
	return nil
}

//allocgate:hot
func (n *Network[P]) send(from, to int, payload P) bool {
	l := n.linkFromTo(from, to)
	if l == nil {
		return false
	}
	if l.down {
		n.record(TapLost, to, from)
		return false
	}
	if n.now < l.busyUntil {
		n.record(TapSuppressed, to, from)
		return false
	}
	// RNG draw order per admitted send attempt is part of the seeded-trace
	// contract (TestSeededCoinDrawOrderPinned): loss coin, corruption coin,
	// arrival jitter, duplication coin, duplicate-arrival jitter. Coins
	// whose probability is zero draw nothing. Reordering these draws
	// silently shifts every seeded trace downstream.
	if n.LossEnabled && l.params.LossProb > 0 && n.rng.Float64() < l.params.LossProb {
		// The message occupies the link for its nominal flight time even
		// though it will never arrive (the medium was busy transmitting
		// garbage).
		n.record(TapLost, to, from)
		l.busyUntil = n.now + l.params.Delay + n.jitter(l)
		return false
	}
	if l.params.CorruptProb > 0 && n.rng.Float64() < l.params.CorruptProb {
		if n.Corrupt == nil {
			// No corruption hook: model a checksum that discards the
			// damaged frame (it still occupied the medium).
			n.record(tapDiscarded, to, from)
			l.busyUntil = n.now + l.params.Delay + n.jitter(l)
			return false
		}
		n.record(TapCorrupted, to, from)
		payload = n.Corrupt(n.rng, payload)
	}
	at := n.now + l.params.Delay + n.jitter(l)
	l.busyUntil = at
	n.pushDeliver(at, int32(to), int32(from), &payload)
	n.record(TapSend, to, from)
	if l.params.DupProb > 0 && n.rng.Float64() < l.params.DupProb {
		// The duplicate is the same frame echoing on the medium, so it
		// occupies the link until its own (later) arrival — Section 5's
		// one-message-per-direction rule, which the graceful-handover
		// argument's back-pressure depends on.
		dupAt := at + n.jitter(l)
		l.busyUntil = dupAt
		n.pushDeliver(dupAt, int32(to), int32(from), &payload)
		n.record(TapDup, to, from)
	}
	return true
}

//allocgate:hot
func (n *Network[P]) jitter(l *link) Time {
	if l.params.Jitter <= 0 {
		return 0
	}
	return Time(n.rng.Float64()) * l.params.Jitter
}

// start invokes Start on every handler (once).
func (n *Network[P]) start() {
	if n.started {
		return
	}
	n.started = true
	for i := range n.handlers {
		n.handlers[i].Start(n.callbackCtx(i))
	}
	if n.Observer != nil {
		n.Observer(n.now)
	}
}

// dispatch advances the clock to rec's time and runs its callback.
//
//allocgate:hot
func (n *Network[P]) dispatch(rec *evq.Rec[event[P]]) {
	at := Time(rec.At)
	if at < n.now {
		panic("msgnet: event in the past")
	}
	n.now = at
	e := &rec.Body
	node := int(e.node)
	ctx := n.callbackCtx(node)
	switch rec.Kind {
	case evDeliver:
		n.record(TapDeliver, node, int(e.arg))
		n.handlers[node].Receive(ctx, int(e.arg), e.load)
	case evTimer:
		n.record(TapTimer, node, 0)
		n.handlers[node].Timer(ctx, int(e.arg))
	}
	if n.Observer != nil {
		n.Observer(n.now)
	}
}

// Run processes events until simulated time exceeds until or the event
// queue drains. It returns the number of events processed. The first
// event after until stays queued, its epoch open for the next call.
//
//allocgate:hot
func (n *Network[P]) Run(until Time) int {
	n.attach()
	n.start()
	count := 0
	q := &n.arena.q
	var rec evq.Rec[event[P]]
	for {
		if h := q.Head(float64(n.lookahead)); h == nil || Time(h.At) > until {
			break
		}
		q.Next(&rec)
		n.dispatch(&rec)
		count++
	}
	if n.now < until {
		n.now = until
	}
	n.publish()
	return count
}
