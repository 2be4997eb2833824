// Package runtime executes CST-transformed ring algorithms as a live
// system: the sharded event-loop Engine simulates Algorithm 4 — neighbor
// caches, state announcements on change and on a refresh timer, token
// conditions evaluated on the node's own state and caches — over links
// that carry one message per direction at a time, with delay, jitter and
// probabilistic loss. It is the deployment the discrete-event simulation
// (internal/cst over internal/msgnet) models, and what the paper's
// motivating application — a self-organizing camera network with
// continuous coverage — runs on.
//
// The engine simulates the nodes in virtual time: nodes partitioned into
// contiguous ring arcs, one worker loop per shard, an epoch run queue per
// shard (one record vector, sorted once per epoch), and lock-free SPSC
// rings for the sends that cross a shard boundary. No allocation happens
// on the hot path, which is what lets one process sustain rings of 100k+
// nodes (see BENCH_runtime.json).
//
// # Determinism
//
// The engine is deterministic for a fixed seed, independent of the worker
// count. Every event carries the key (at, origin, seq) — virtual time,
// originating node, and that node's monotonic counter. Conservative
// synchronization does the rest: virtual time advances in epochs of
// length Delay (the lookahead), and because a frame admitted at time t
// arrives at t + Delay + jitter, every arrival lands in a strictly later
// epoch than its send. Within one epoch, then, nodes only consume events
// that were already queued at the epoch's start, or their own timers, so
// nodes never race: any interleaving of the per-node event sequences
// yields the same states, the same taps and the same stats.
//
// Each shard uses that freedom to walk memory in order: it dispatches
// its epoch node by node along its arc, each node's events in key order
// (the run queue's (Lane, At, Key) order, with the destination node as
// the lane). Epochs still run in time order. What an observer or a
// privilege callback sees of one node is its events in order; across
// nodes within an epoch it sees arc order. Handovers are the exception:
// the observer's HandoverGap histogram needs them in time order, so they
// are collected during the epoch and reported after its barrier, sorted
// by (time, node), which also makes the histogram the same at any worker
// count. The digest tests pin this: every worker count from 1 to 4 must
// hash a 16-seed sweep to the value in
// testdata/digests/runtime-engine.sha256, what each node sees of a
// single-worker run must hash to runtime-pernode.sha256, and the full
// single-worker order to runtime-dispatch.sha256.
//
// # Churn
//
// With spares, ScheduleJoin, ScheduleLeave and ScheduleSplice rewire the
// ring at the epoch boundary containing each op's time, on one worker
// (the shard arcs assume a static ring). The topology is an embedded
// topo.Ring, the membership model the msgnet tier and the scenario plan
// share, so the three agree on the members at every instant; the engine
// adds only its own side effects: idle links on the rewired edges,
// census accounting and the joiner's opening announce and refresh timer.
// An op that breaks the ring rules panics when applied, since a validated
// script cannot produce one.
//
// # Two modes
//
// RunUntil advances virtual time as fast as the CPU allows — the mode
// benches, crosscheck and large-n experiments use. It takes no lock and
// must not be mixed with Start. Start/Stop pace virtual time 1:1 against
// the wall clock and accept live Inject and census queries, which is how
// NewLiveRing deploys the engine. The pacer holds the engine's one mutex
// for each epoch; every read and Inject holds it for its whole call, so
// it sees the state between two epochs. The privilege predicate and
// callback run inside the epoch: under Start they must not call the
// engine's reads or Inject, which would wait on the lock the pacer
// holds; under RunUntil no lock is held.
package runtime

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"ssrmin/internal/evq"
	"ssrmin/internal/obs"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/topo"
)

// Options configures an engine.
type Options[S comparable] struct {
	// Delay is the base link propagation delay. It must be positive: it
	// is the epoch lookahead.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// LossProb is the per-message loss probability.
	LossProb float64
	// Refresh is the periodic state-announcement interval.
	Refresh time.Duration
	// Seed drives all randomness (per-node and per-link PRNG streams are
	// derived from it).
	Seed int64
	// CoherentCaches seeds caches with true neighbor states; otherwise
	// RandomState (or the node's own state) seeds them.
	CoherentCaches bool
	// RandomState draws arbitrary states for incoherent cache seeding.
	RandomState func(*rand.Rand) S
	// Workers sets the worker loop count (0 means GOMAXPROCS, clamped to
	// [1, n]).
	Workers int
	// Spare preallocates dormant extra nodes (ids n..n+Spare-1) for
	// mid-run ScheduleJoin churn; an engine with spares or scheduled churn
	// runs on one worker (the shard arcs assume a static ring).
	Spare int
}

// Snapshot is one node's view: its own state and its neighbor caches.
type Snapshot[S comparable] struct {
	// State is the node's local state q_i.
	State S
	// CachePred is Z_i[v_{i-1}], CacheSucc is Z_i[v_{i+1}].
	CachePred, CacheSucc S
}

// CensusStats summarizes a sampling run of WatchCensus.
type CensusStats struct {
	// Samples is the number of observations taken.
	Samples int
	// Min and Max are the extreme censuses observed.
	Min, Max int
	// At counts observations per census value.
	At map[int]int
	// DistinctHolders counts how many distinct nodes were ever privileged.
	DistinctHolders int
}

// engNode is one simulated node: its state, neighbor caches, and the
// word-sized PRNG and counters the determinism scheme needs. All fields
// are owned by the node's shard; nothing here is shared.
type engNode[S comparable] struct {
	state     S
	cachePred S
	cacheSucc S
	rng       prng
	seq       uint32 // monotonic action counter: event keys and tap ords
	wasPriv   bool
	// censusPriv mirrors the installed privilege predicate for the
	// shard-local census accumulators. It is deliberately separate from
	// wasPriv: wasPriv starts false so the first observer Handover edge
	// fires correctly, while censusPriv is initialized from the real
	// initial views at freeze time.
	censusPriv bool
}

// engLink is one directed link. busyUntil implements the
// one-message-per-direction rule; the PRNG draws jitter and loss. Both
// are owned by the sending node's shard.
type engLink struct {
	busyUntil float64
	rng       prng
}

// engShard is one worker's territory: the contiguous node arc [lo, hi),
// its epoch run queue, the SPSC rings toward the neighbor shards, and
// the shard's tally (summed at barriers by Stats and publish).
type engShard[S comparable] struct {
	id     int32
	lo, hi int32

	q evq.Queue[S] // the epoch run queue

	outLeft, outRight *spsc[S] // produced here, consumed by neighbor shards
	inLeft, inRight   *spsc[S] // aliases of the neighbors' out rings

	tapBuf []TapEvent
	edges  []handover // the epoch's privilege edges, kept with an observer

	events int64
	tally  tally

	// priv is the shard-local census accumulator: how many of this
	// shard's nodes currently satisfy the installed privilege predicate.
	// Maintained incrementally by notifyPriv and the churn hooks, summed
	// at barriers by TrackedCensus — replacing the O(n) snapshot scan.
	priv int64

	_ [64]byte // counters above are hot; keep shards off each other's lines
}

// handover is one privilege edge: node gained (or lost) the privilege at
// virtual time at.
type handover struct {
	at     float64
	node   int32
	gained bool
}

// cmpHandover orders handovers by (at, node).
func cmpHandover(a, b handover) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}

// A shard's tally has one slot per tap kind, one for stale frames (no
// tap) and, from ruleSlots on, one per rule number.
const (
	tapStale  = TapInject + 1
	ruleSlots = int(tapStale) + 1
)

type tally [ruleSlots + obs.MaxRules]int64

// EngineStats sums the shards' tallies.
type EngineStats struct {
	// Events is the number of events dispatched.
	Events int64
	// Sent, Carried and Dropped count frames admitted into links,
	// delivered, and suppressed, lost or stale. A stale frame reaches a
	// departed node or comes from an ex-neighbour: it is not in the
	// observer's MsgDropped (msgnet delivers it to cst's StaleFrames).
	Sent, Carried, Dropped int64
	// Rules is the number of rule executions.
	Rules int64
}

// Engine is a sharded virtual-time execution of a CST-transformed ring
// algorithm. Build with NewEngine, then either RunUntil (fast virtual
// time) or Start/Stop (wall-clock paced).
type Engine[S comparable] struct {
	alg statemodel.Algorithm[S]
	n   int // founding ring size (= alg.N()); views carry this N
	// total = n + spares: the full node/link capacity, the size every
	// structural array is carved over.
	total int

	delay, jitter, refresh, loss float64

	nodes   []engNode[S]
	links   []engLink // 2i = i→succ, 2i+1 = i→pred
	shards  []engShard[S]
	shardOf []int32
	w       int

	// ring is the live topology: neighbors replace the founding-ring
	// modulo so churn can rewire mid-run, and spares and leavers are
	// non-members.
	ring     topo.Ring
	churn    []churnOp[S]
	churnIdx int

	pending []evq.Rec[S] // initial announces, timers and scheduled injects

	holder func(statemodel.View[S]) bool
	onPriv func(id int, holds bool)
	obsv   *obs.Observer
	sink   obs.Sink   // obsv's live sink, or nil
	traced bool       // taps on or sink live: record calls trace
	pub    tally      // the tallies' sum at the last publish
	edges  []handover // replayHandovers' merge buffer, reused every epoch
	taps   bool

	now    float64
	frozen bool

	workCh    []chan float64
	barrier   sync.WaitGroup
	workerWG  sync.WaitGroup
	workersUp bool // touched only by the epoch owner

	// mu is held by the pacer for each epoch and by every read, Inject,
	// Start and Stop for the whole call; RunUntil takes no lock.
	mu       sync.Mutex
	cancel   context.CancelFunc // the pacer's; non-nil once started
	driverWG sync.WaitGroup
}

// NewEngine builds an engine over init. Workers (Options.Workers)
// defaults to GOMAXPROCS and is clamped to [1, n]; Delay and Refresh
// must be positive (Delay is the conservative lookahead). Cache seeding
// follows Options: CoherentCaches, RandomState, or self-copies.
func NewEngine[S comparable](alg statemodel.Algorithm[S], init statemodel.Config[S], opts Options[S]) *Engine[S] {
	n := alg.N()
	if len(init) != n {
		panic(fmt.Sprintf("runtime: init length %d != n %d", len(init), n))
	}
	if opts.Refresh <= 0 {
		panic("runtime: Refresh must be positive")
	}
	if opts.Delay <= 0 {
		panic("runtime: Engine requires a positive Delay (it is the epoch lookahead)")
	}
	if opts.Spare < 0 {
		panic("runtime: negative Spare")
	}
	total := n + opts.Spare
	e := &Engine[S]{
		alg:     alg,
		n:       n,
		total:   total,
		delay:   opts.Delay.Seconds(),
		jitter:  opts.Jitter.Seconds(),
		refresh: opts.Refresh.Seconds(),
		loss:    opts.LossProb,
		w:       resolveWorkers(opts.Workers, total),
		ring:    topo.New(n, opts.Spare),
	}
	e.nodes = make([]engNode[S], total)
	e.links = make([]engLink, 2*total)
	e.shardOf = make([]int32, total)

	seedRNG := rand.New(rand.NewSource(opts.Seed))
	var mix prng = prng(uint64(opts.Seed)*0x9E3779B97F4A7C15 + 0x6A09E667F3BCC909)
	for i := 0; i < total; i++ {
		nd := &e.nodes[i]
		nd.rng = prng(mix.next())
		if i >= n {
			// Dormant spare: detached, silent until a ScheduleJoin wakes it.
			continue
		}
		pred, succ := e.ring.Pred[i], e.ring.Succ[i]
		nd.state = init[i]
		if opts.CoherentCaches {
			nd.cachePred, nd.cacheSucc = init[pred], init[succ]
		} else if opts.RandomState != nil {
			nd.cachePred, nd.cacheSucc = opts.RandomState(seedRNG), opts.RandomState(seedRNG)
		} else {
			nd.cachePred, nd.cacheSucc = init[i], init[i]
		}
	}
	for i := range e.links {
		e.links[i].rng = prng(mix.next())
	}

	// Every node's opening moves: announce at t=0, then refresh on a
	// randomly phased timer (so timers do not beat in lockstep).
	e.pending = make([]evq.Rec[S], 0, 2*n)
	for i := 0; i < n; i++ {
		nd := &e.nodes[i]
		e.pending = append(e.pending, evq.Rec[S]{
			At: 0, Key: key2(int32(i), nd.seq), Lane: int32(i), Kind: evInit,
		})
		nd.seq++
		phase := e.refresh * nd.rng.float64()
		e.pending = append(e.pending, evq.Rec[S]{
			At: phase, Key: key2(int32(i), nd.seq), Lane: int32(i), Kind: evTimer,
		})
		nd.seq++
	}
	return e
}

func resolveWorkers(w, n int) int {
	if w <= 0 {
		w = goruntime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func key2(node int32, seq uint32) uint64 {
	return uint64(uint32(node))<<32 | uint64(seq)
}

// ---------------------------------------------------------------------------
// Configuration (before the first run)
// ---------------------------------------------------------------------------

// SetPrivilegeCallback installs holder as the node-local privilege
// predicate and cb as the notification hook. Must be called before the
// first run. cb runs inline, after every event that can change a node's
// view. Each node's calls keep their order; within an epoch a shard
// calls for its nodes one after another along its arc. With more than
// one worker, cb is invoked concurrently from worker loops and must be
// safe for that. holder and cb run inside the epoch: after Start they
// must not call the engine's reads or Inject (the pacer holds the lock
// those take); under RunUntil they may.
func (e *Engine[S]) SetPrivilegeCallback(holder func(statemodel.View[S]) bool, cb func(id int, holds bool)) {
	if e.frozen {
		panic("runtime: SetPrivilegeCallback after the engine started")
	}
	e.holder = holder
	e.onPriv = cb
}

// SetObserver installs o: rule firings, sends, deliveries, drops and
// handovers are emitted with virtual-time timestamps. When holder is
// non-nil it becomes the privilege predicate if none is installed.
// Rule firings and message events are emitted inline, each node's in
// its own order, and their counters published after every epoch
// barrier. Handovers are emitted at the end of their epoch, after
// the barrier, sorted by (time, node), so the HandoverGap histogram (the
// gaps between successive gains) is exact at any worker count. Counters
// are exact under any worker count; with more than one worker the sink's
// order across shards is not deterministic. The sink and holder run
// inside the epoch and, after Start, must not call the engine's reads
// or Inject.
func (e *Engine[S]) SetObserver(o *obs.Observer, holder func(statemodel.View[S]) bool) {
	if e.frozen {
		panic("runtime: SetObserver after the engine started")
	}
	e.obsv = o
	if e.holder == nil {
		e.holder = holder
	}
}

// EnableTaps turns on the deterministic execution trace (Taps). Must be
// called before the first run.
func (e *Engine[S]) EnableTaps() {
	if e.frozen {
		panic("runtime: EnableTaps after the engine started")
	}
	e.taps = true
}

// churnOp is one scheduled ring-topology change, applied at the epoch
// boundary containing its time.
type churnOp[S comparable] struct {
	at    float64
	kind  uint8 // opJoin, opLeave, opSplice
	node  int32 // join/splice anchor, or the leaver
	count int32 // splice arc length
	state S     // joiner's initial state
}

const (
	opJoin uint8 = iota
	opLeave
	opSplice
)

// ScheduleJoin schedules the next dormant spare to splice into the ring
// between node `after` and its successor at virtual time at, starting
// from state s. Must be called before the first run; joiner ids are
// assigned n, n+1, ... in join order. Churn collapses the engine to one
// worker: the shard arcs and their SPSC adjacency assume a static ring.
func (e *Engine[S]) ScheduleJoin(at float64, after int, s S) {
	e.scheduleChurn(at, churnOp[S]{at: at, kind: opJoin, node: int32(after), state: s})
}

// ScheduleLeave schedules node v to leave the ring at virtual time at.
// Node 0 (the Dijkstra bottom) can never leave: the run panics when it
// reaches such an op.
func (e *Engine[S]) ScheduleLeave(at float64, v int) {
	e.scheduleChurn(at, churnOp[S]{at: at, kind: opLeave, node: int32(v)})
}

// ScheduleSplice schedules the removal of the count consecutive members
// following `after` at virtual time at, reconnecting the ring with one
// fresh edge.
func (e *Engine[S]) ScheduleSplice(at float64, after, count int) {
	e.scheduleChurn(at, churnOp[S]{at: at, kind: opSplice, node: int32(after), count: int32(count)})
}

func (e *Engine[S]) scheduleChurn(at float64, op churnOp[S]) {
	if e.frozen {
		panic("runtime: churn scheduled after the engine started")
	}
	if at < 0 {
		panic("runtime: churn scheduled in the past")
	}
	e.churn = append(e.churn, op)
}

// ScheduleInject schedules a transient fault: at virtual time at, node's
// state is overwritten with s (and announced, exactly like a live
// Inject). Must be called before the first run; this is how crosscheck
// and the tests pre-plan deterministic fault storms. node may be a spare
// that a scheduled join wakes before at; an inject into a node that is
// not a ring member at that instant is dropped.
func (e *Engine[S]) ScheduleInject(at float64, node int, s S) {
	if e.frozen {
		panic("runtime: ScheduleInject after the engine started")
	}
	if node < 0 || node >= e.total {
		panic(fmt.Sprintf("runtime: node %d out of range", node))
	}
	if at < 0 {
		panic("runtime: ScheduleInject in the past")
	}
	nd := &e.nodes[node]
	e.pending = append(e.pending, evq.Rec[S]{
		At: at, Key: key2(int32(node), nd.seq), Lane: int32(node), Kind: evInject, Body: s,
	})
	nd.seq++
}

// freeze finalizes the topology on the first run: resolves the worker
// count, carves the shard arcs, wires the SPSC rings and distributes the
// pending events.
func (e *Engine[S]) freeze() {
	if e.frozen {
		return
	}
	e.frozen = true
	if o := e.obsv; o != nil {
		e.sink = o.LiveSink()
	}
	e.traced = e.taps || e.sink != nil
	if len(e.churn) > 0 || e.total > e.n {
		// Churn rewires neighbor relations mid-run; the SPSC rings only
		// connect adjacent shard arcs, so a rewired ring must run on one
		// worker.
		e.w = 1
		// Equal times apply in schedule order; ops land at the epoch
		// boundary containing their timestamp.
		sortChurn(e.churn)
	}
	w := e.w
	e.shards = make([]engShard[S], w)
	base, rem := e.total/w, e.total%w
	lo := 0
	for i := 0; i < w; i++ {
		size := base
		if i < rem {
			size++
		}
		sh := &e.shards[i]
		sh.id, sh.lo, sh.hi = int32(i), int32(lo), int32(lo+size)
		for j := lo; j < lo+size; j++ {
			e.shardOf[j] = int32(i)
		}
		lo += size
	}
	if w > 1 {
		left := make([]spsc[S], w)
		right := make([]spsc[S], w)
		for i := 0; i < w; i++ {
			sh := &e.shards[i]
			sh.outLeft, sh.outRight = &left[i], &right[i]
			sh.inLeft = &right[(i-1+w)%w] // left neighbor's out-to-successor ring
			sh.inRight = &left[(i+1)%w]   // right neighbor's out-to-predecessor ring
		}
		e.workCh = make([]chan float64, w)
		for i := range e.workCh {
			e.workCh[i] = make(chan float64)
		}
	}
	if e.holder != nil {
		// Seed the shard-local census accumulators from the initial
		// views; notifyPriv keeps them current from here on.
		for i := range e.nodes {
			if e.ring.Pred[i] < 0 {
				continue
			}
			nd := &e.nodes[i]
			v := statemodel.View[S]{I: i, N: e.n, Self: nd.state, Pred: nd.cachePred, Succ: nd.cacheSucc}
			if e.holder(v) {
				nd.censusPriv = true
				e.shards[e.shardOf[i]].priv++
			}
		}
	}
	// Size each shard's queue for the most records it can hold: a node
	// holds at most one frame per incoming link direction and its timer,
	// and scheduled injects wait on top. Growing the queue by append
	// instead discards copies totalling several times its final size,
	// and with them peak memory follows the collector's timing.
	room := make([]int, w)
	for i := range e.shards {
		room[i] = 3 * int(e.shards[i].hi-e.shards[i].lo)
	}
	for _, rec := range e.pending {
		if rec.Kind == evInject {
			room[e.shardOf[rec.Lane]]++
		}
	}
	for i := range e.shards {
		e.shards[i].q.Grow(room[i])
	}
	for _, rec := range e.pending {
		e.shards[e.shardOf[rec.Lane]].q.Push(rec)
	}
	e.pending = nil
}

// ---------------------------------------------------------------------------
// Epoch machinery
// ---------------------------------------------------------------------------

// RunUntil advances virtual time in whole epochs until Now() >= t, as
// fast as possible. It must not be mixed with Start; use one mode per
// engine.
//
//allocgate:hot
func (e *Engine[S]) RunUntil(t float64) {
	e.freeze()
	for e.now < t {
		e.stepEpoch()
	}
}

// Now returns the current virtual time in seconds.
//
//allocgate:hot
func (e *Engine[S]) Now() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Workers returns the resolved worker count.
func (e *Engine[S]) Workers() int { return e.w }

// stepEpoch runs one epoch (T, T+Delay]: every shard drains its inbound
// rings, then processes its events with at < T+Delay node by node, each
// node's in key order; the epoch's handovers are reported after.
// Scheduled churn ops whose time falls inside the epoch are applied at
// its start — between epochs no event is in flight within a shard, so
// rewiring here cannot race a dispatch.
//
//allocgate:hot
func (e *Engine[S]) stepEpoch() {
	horizon := e.now + e.delay
	for e.churnIdx < len(e.churn) && e.churn[e.churnIdx].at < horizon {
		e.applyChurn(&e.churn[e.churnIdx])
		e.churnIdx++
	}
	if e.w == 1 {
		e.shardEpoch(&e.shards[0], horizon)
	} else {
		e.parallelEpoch(horizon)
	}
	e.replayHandovers()
	e.publish()
	e.now = horizon
}

// publish adds what the shards tallied since the last epoch to the
// observer's counters, if any (stale frames are not drops there).
//
//allocgate:hot
func (e *Engine[S]) publish() {
	o := e.obsv
	if o == nil {
		return
	}
	t, p := e.tallied(), &e.pub
	obs.Add(&o.C.MsgSent, t[TapSend]-p[TapSend])
	obs.Add(&o.C.MsgRecv, t[TapDeliver]-p[TapDeliver])
	obs.Add(&o.C.MsgDropped, t[TapSuppressed]-p[TapSuppressed]+t[TapLost]-p[TapLost])
	obs.Add(&o.C.RuleFired, t[TapRule]-p[TapRule])
	for r := range o.C.Rules {
		obs.Add(&o.C.Rules[r], t[ruleSlots+r]-p[ruleSlots+r])
	}
	e.pub = t
}

// tallied sums the shards' tallies.
func (e *Engine[S]) tallied() (t tally) {
	for i := range e.shards {
		for j, v := range &e.shards[i].tally {
			t[j] += v
		}
	}
	return t
}

// replayHandovers reports the epoch's privilege edges to the observer,
// if any, after every shard has finished the epoch. Observer.Handover
// measures the gap between successive gains in the order of its calls,
// so the edges go in (at, node) order: model-time order, the same at any
// worker count. The sort is stable, so two edges of one node at one
// instant keep their order.
//
//allocgate:hot
func (e *Engine[S]) replayHandovers() {
	o := e.obsv
	if o == nil {
		return
	}
	edges := e.edges[:0]
	for i := range e.shards {
		sh := &e.shards[i]
		edges = append(edges, sh.edges...)
		sh.edges = sh.edges[:0]
	}
	e.edges = edges
	if len(edges) == 0 {
		return
	}
	slices.SortStableFunc(edges, cmpHandover)
	for _, h := range edges {
		o.Handover(h.at, int(h.node), h.gained)
	}
}

// shardEpoch drains the shard's inbound rings, then processes every
// event below the horizon node by node: in (destination, At, Key) order.
//
//allocgate:hot
func (e *Engine[S]) shardEpoch(sh *engShard[S], horizon float64) {
	if sh.inLeft != nil {
		sh.inLeft.drainInto(sh)
		sh.inRight.drainInto(sh)
	}
	sh.q.Open(horizon)
	var rec evq.Rec[S]
	for sh.q.Next(&rec) {
		e.dispatch(sh, &rec)
	}
}

//allocgate:hot
func (e *Engine[S]) parallelEpoch(horizon float64) {
	e.ensureWorkers()
	e.barrier.Add(e.w)
	for i := range e.workCh {
		e.workCh[i] <- horizon
	}
	e.barrier.Wait()
}

func (e *Engine[S]) ensureWorkers() {
	if e.workersUp {
		return
	}
	e.workersUp = true
	for i := 0; i < e.w; i++ {
		e.workerWG.Add(1)
		go e.worker(i)
	}
}

//allocgate:hot
func (e *Engine[S]) worker(i int) {
	defer e.workerWG.Done()
	sh := &e.shards[i]
	for horizon := range e.workCh[i] {
		e.shardEpoch(sh, horizon)
		e.barrier.Done()
	}
}

// stopWorkers shuts the worker loops down (idempotent). Callers must
// guarantee no epoch is in flight.
func (e *Engine[S]) stopWorkers() {
	if !e.workersUp {
		return
	}
	e.workersUp = false
	for _, ch := range e.workCh {
		close(ch)
	}
	e.workerWG.Wait()
}

// ---------------------------------------------------------------------------
// Event dispatch — Algorithm 4, one event at a time
// ---------------------------------------------------------------------------

// dispatch routes one owned event to its handler.
//
//allocgate:hot
func (e *Engine[S]) dispatch(sh *engShard[S], rec *evq.Rec[S]) {
	sh.events++
	at, node := rec.At, rec.Lane
	nd := &e.nodes[node]
	if e.ring.Pred[node] < 0 {
		// The destination left the ring (or never joined): in-flight
		// frames die on arrival and lapsed nodes let their timer chains
		// end. Mirrors the msgnet tier's detached-node discard.
		if rec.Kind == evFromPred || rec.Kind == evFromSucc {
			sh.tally[tapStale]++
		}
		return
	}
	switch rec.Kind {
	case evFromPred:
		// The key's high word is the sender. A frame from an ex-neighbor
		// was already on the medium when churn rewired the ring: discard
		// it rather than poison a cache slot describing a different node.
		if from := int32(rec.Key >> 32); from != e.pred(node) {
			sh.tally[tapStale]++
			return
		}
		nd.cachePred = rec.Body
		e.record(sh, nd, at, node, TapDeliver, e.pred(node), 0)
		e.step(sh, at, node)
	case evFromSucc:
		if from := int32(rec.Key >> 32); from != e.succ(node) {
			sh.tally[tapStale]++
			return
		}
		nd.cacheSucc = rec.Body
		e.record(sh, nd, at, node, TapDeliver, e.succ(node), 0)
		e.step(sh, at, node)
	case evInit:
		e.announce(sh, at, node)
	case evTimer:
		e.record(sh, nd, at, node, TapTimer, -1, 0)
		e.announce(sh, at, node)
		next := evq.Rec[S]{At: at + e.refresh, Key: key2(node, nd.seq), Lane: node, Kind: evTimer}
		nd.seq++
		sh.q.Push(next)
	case evInject:
		nd.state = rec.Body
		e.record(sh, nd, at, node, TapInject, -1, 0)
		e.notifyPriv(sh, at, node)
		e.announce(sh, at, node)
	}
}

// step executes at most one rule and announces.
//
//rulecheck:step
//allocgate:hot
func (e *Engine[S]) step(sh *engShard[S], at float64, node int32) {
	nd := &e.nodes[node]
	v := statemodel.View[S]{I: int(node), N: e.n, Self: nd.state, Pred: nd.cachePred, Succ: nd.cacheSucc}
	if rule := e.alg.EnabledRule(v); rule != 0 {
		nd.state = e.alg.Apply(v, rule)
		if uint(rule) < obs.MaxRules {
			sh.tally[ruleSlots+rule]++
		}
		e.record(sh, nd, at, node, TapRule, -1, int32(rule))
	}
	e.notifyPriv(sh, at, node)
	e.announce(sh, at, node)
}

// announce offers the state to both outgoing links, predecessor first.
//
//allocgate:hot
func (e *Engine[S]) announce(sh *engShard[S], at float64, node int32) {
	e.send(sh, at, node, false)
	e.send(sh, at, node, true)
}

// send admits the node's state into one directed link, or drops it when
// the link is busy (one message per direction) or the loss draw hits.
// Jitter, then loss, drawn from the link's own PRNG.
//
//allocgate:hot
func (e *Engine[S]) send(sh *engShard[S], at float64, node int32, toSucc bool) {
	nd := &e.nodes[node]
	var lidx, peer int32
	var kind uint8
	if toSucc {
		lidx, peer, kind = 2*node, e.succ(node), evFromPred
	} else {
		lidx, peer, kind = 2*node+1, e.pred(node), evFromSucc
	}
	lk := &e.links[lidx]
	if at < lk.busyUntil {
		e.record(sh, nd, at, node, TapSuppressed, peer, 0)
		return
	}
	d := e.delay
	if e.jitter > 0 {
		d += e.jitter * lk.rng.float64()
	}
	lk.busyUntil = at + d
	if e.loss > 0 && lk.rng.float64() < e.loss {
		e.record(sh, nd, at, node, TapLost, peer, 0)
		return
	}
	e.record(sh, nd, at, node, TapSend, peer, 0)
	rec := evq.Rec[S]{At: at + d, Key: key2(node, nd.seq), Lane: peer, Kind: kind, Body: nd.state}
	nd.seq++
	e.emit(sh, rec, toSucc)
}

// emit routes a message arrival to its destination shard: same shard
// goes straight into the shard queue; a boundary crossing rides the SPSC
// ring of the send's direction (exact even at W=2, where both neighbor
// shards are the same shard).
//
//allocgate:hot
func (e *Engine[S]) emit(sh *engShard[S], rec evq.Rec[S], toSucc bool) {
	if e.shardOf[rec.Lane] == sh.id {
		sh.q.Push(rec)
		return
	}
	if toSucc {
		sh.outRight.pushRing(rec)
	} else {
		sh.outLeft.pushRing(rec)
	}
}

// record counts one action of node src in its shard's tally and, with
// taps on or a live sink, traces it: the one path every action takes.
//
//allocgate:hot
func (e *Engine[S]) record(sh *engShard[S], nd *engNode[S], at float64, src int32, kind TapKind, peer, rule int32) {
	sh.tally[kind]++
	if e.traced {
		e.trace(sh, nd, at, src, kind, peer, rule)
	}
}

// trace appends the action's tap when taps are on and hands a live sink
// the event of a send, delivery, drop or rule execution.
//
//allocgate:hot
func (e *Engine[S]) trace(sh *engShard[S], nd *engNode[S], at float64, src int32, kind TapKind, peer, rule int32) {
	if e.taps {
		sh.tapBuf = append(sh.tapBuf, TapEvent{At: at, Src: src, Ord: nd.seq, Kind: kind, Peer: peer, Rule: rule})
		nd.seq++
	}
	s := e.sink
	if s == nil {
		return
	}
	ev, node, other := obs.KindMsgSent, src, peer
	switch kind {
	case TapSuppressed, TapLost:
		ev, node, other = obs.KindMsgDropped, peer, src
	case TapDeliver:
		ev = obs.KindMsgRecv
	case TapRule:
		ev, other = obs.KindRuleFired, -1
	case TapTimer, TapInject:
		return
	}
	s.Emit(obs.Event{T: at, Kind: ev, Node: int(node), Peer: int(other), Rule: int(rule)})
}

// notifyPriv re-evaluates the privilege predicate after a node's view
// changed, calls the privilege callback and, with an observer attached,
// records an edge for replayHandovers.
//
//allocgate:hot
func (e *Engine[S]) notifyPriv(sh *engShard[S], at float64, node int32) {
	if e.holder == nil {
		return
	}
	nd := &e.nodes[node]
	v := statemodel.View[S]{I: int(node), N: e.n, Self: nd.state, Pred: nd.cachePred, Succ: nd.cacheSucc}
	holds := e.holder(v)
	if e.onPriv != nil {
		e.onPriv(int(node), holds)
	}
	if e.obsv != nil && holds != nd.wasPriv {
		sh.edges = append(sh.edges, handover{at: at, node: node, gained: holds})
	}
	nd.wasPriv = holds
	if holds != nd.censusPriv {
		if holds {
			sh.priv++
		} else {
			sh.priv--
		}
		nd.censusPriv = holds
	}
}

// pred and succ map a node to its ring neighbors — foreign indices from
// a worker's point of view, usable only as message destinations. The
// ring's tables replace the founding-ring modulo so churn can rewire
// them; on a static ring they hold exactly the modulo values.
func (e *Engine[S]) pred(node int32) int32 { return e.ring.Pred[node] }

func (e *Engine[S]) succ(node int32) int32 { return e.ring.Succ[node] }

// ---------------------------------------------------------------------------
// Churn application (epoch boundaries, single worker)
// ---------------------------------------------------------------------------

// sortChurn orders ops by time, schedule order breaking ties.
func sortChurn[S comparable](ops []churnOp[S]) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
}

// applyChurn rewires the ring for one op. It runs between epochs on the
// driving goroutine, so every node and link is safe to touch. Frames in
// flight toward a rewired node survive in the event queue; dispatch drops
// the ones whose sender is no longer the receiver's neighbor, mirroring
// the msgnet tier's stale-frame discard.
func (e *Engine[S]) applyChurn(op *churnOp[S]) {
	var a, b, j int
	var gone []int
	var err error
	switch op.kind {
	case opJoin:
		a = int(op.node)
		j, b, err = e.ring.Join(a)
	case opLeave:
		a, b, gone, err = e.ring.Remove(int(op.node), 1)
	case opSplice:
		a, b, gone, err = e.ring.Splice(int(op.node), int(op.count))
	}
	if err != nil {
		panic(fmt.Sprintf("runtime: churn at t=%v on node %d: %v", op.at, op.node, err))
	}
	if op.kind == opJoin {
		e.wake(op.at, int32(j), op.state)
	}
	for _, v := range gone {
		if nd := &e.nodes[v]; nd.censusPriv {
			e.shards[e.shardOf[v]].priv--
			nd.censusPriv = false
		}
	}
	// The rewired edges are fresh physical links: idle, like the msgnet
	// tier's AddLink.
	e.links[2*a].busyUntil = 0
	e.links[2*b+1].busyUntil = 0
}

// wake starts joiner j from state at virtual time at on idle links:
// counted in the census if its first view holds the privilege,
// announcing at once and refreshing on a random phase.
func (e *Engine[S]) wake(at float64, j int32, state S) {
	nd := &e.nodes[j]
	nd.state = state
	// The joiner has not heard from either neighbor yet: self-seeded
	// caches, healed by the announcement exchange the evInit triggers.
	nd.cachePred, nd.cacheSucc = state, state
	nd.censusPriv = false
	if e.holder != nil {
		v := statemodel.View[S]{I: int(j), N: e.n, Self: nd.state, Pred: nd.cachePred, Succ: nd.cacheSucc}
		if e.holder(v) {
			nd.censusPriv = true
			e.shards[e.shardOf[j]].priv++
		}
	}
	e.links[2*j].busyUntil = 0
	e.links[2*j+1].busyUntil = 0
	sh := &e.shards[e.shardOf[j]]
	sh.q.Push(evq.Rec[S]{At: at, Key: key2(j, nd.seq), Lane: j, Kind: evInit})
	nd.seq++
	phase := e.refresh * nd.rng.float64()
	sh.q.Push(evq.Rec[S]{At: at + phase, Key: key2(j, nd.seq), Lane: j, Kind: evTimer})
	nd.seq++
}

// ---------------------------------------------------------------------------
// Reads (each holds e.mu, so under Start it sees the state between epochs)
// ---------------------------------------------------------------------------

// Snapshots returns every node's (state, caches) at the current virtual
// time — a true instantaneous cut of the virtual execution.
func (e *Engine[S]) Snapshots() []Snapshot[S] {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Snapshot[S], e.n)
	for i := range e.nodes {
		nd := &e.nodes[i]
		out[i] = Snapshot[S]{State: nd.state, CachePred: nd.cachePred, CacheSucc: nd.cacheSucc}
	}
	return out
}

// Census counts the nodes whose view satisfies holder.
func (e *Engine[S]) Census(holder func(statemodel.View[S]) bool) int {
	return len(e.Holders(holder))
}

// TrackedCensus returns the census of the installed privilege predicate
// (SetPrivilegeCallback / SetObserver) from the shard-local accumulators
// — an O(workers) merge instead of Census's O(n) node scan, the
// difference between sampling and stalling at million-node rings. The
// second result is false when no predicate is installed, in which case
// callers fall back to Census.
//
//allocgate:hot
func (e *Engine[S]) TrackedCensus() (int, bool) {
	if e.holder == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.freeze()
	count := 0
	for i := range e.shards {
		count += int(e.shards[i].priv)
	}
	return count, true
}

// Holders returns the ids of nodes whose view satisfies holder, which
// runs under the engine's lock and must not call the engine.
func (e *Engine[S]) Holders(holder func(statemodel.View[S]) bool) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []int
	for i := range e.nodes {
		if e.ring.Pred[i] < 0 {
			continue
		}
		nd := &e.nodes[i]
		v := statemodel.View[S]{I: i, N: e.n, Self: nd.state, Pred: nd.cachePred, Succ: nd.cacheSucc}
		if holder(v) {
			out = append(out, i)
		}
	}
	return out
}

// Members returns the active node ids in ring order, starting at node 0
// (the bottom, which can never leave) and following successor pointers.
func (e *Engine[S]) Members() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ring.Members()
}

// RuleExecutions sums rule executions across shards.
func (e *Engine[S]) RuleExecutions() int64 { return e.Stats().Rules }

// Stats sums the shard counters.
func (e *Engine[S]) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.tallied()
	s := EngineStats{Sent: t[TapSend], Carried: t[TapDeliver], Rules: t[TapRule],
		Dropped: t[TapSuppressed] + t[TapLost] + t[tapStale]}
	for i := range e.shards {
		s.Events += e.shards[i].events
	}
	return s
}

// Taps returns the execution trace so far (EnableTaps must have been
// called), canonically ordered by (At, Src, Ord). The stream is
// bit-identical across worker counts.
func (e *Engine[S]) Taps() []TapEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for i := range e.shards {
		total += len(e.shards[i].tapBuf)
	}
	out := make([]TapEvent, 0, total)
	for i := range e.shards {
		out = append(out, e.shards[i].tapBuf...)
	}
	sortTaps(out)
	return out
}

// WatchCensus samples the holder census every interval for the given
// wall-clock duration — meaningful in paced mode, where virtual time
// tracks the wall clock. It runs in the caller's goroutine.
func (e *Engine[S]) WatchCensus(holder func(statemodel.View[S]) bool, d, interval time.Duration) CensusStats {
	stats := CensusStats{Min: 1 << 30, Max: -1, At: map[int]int{}}
	seen := map[int]bool{}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		hs := e.Holders(holder)
		c := len(hs)
		stats.Samples++
		stats.At[c]++
		if c < stats.Min {
			stats.Min = c
		}
		if c > stats.Max {
			stats.Max = c
		}
		for _, h := range hs {
			seen[h] = true
		}
		time.Sleep(interval)
	}
	stats.DistinctHolders = len(seen)
	return stats
}

// ---------------------------------------------------------------------------
// Paced mode: Start / Stop / Inject
// ---------------------------------------------------------------------------

// Start launches the pacer with a background context.
func (e *Engine[S]) Start() { e.StartContext(context.Background()) }

// StartContext launches a driver goroutine that paces virtual time 1:1
// against the wall clock (one virtual second per wall second), holding
// e.mu for each epoch; reads and injects run between epochs.
func (e *Engine[S]) StartContext(ctx context.Context) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cancel != nil {
		panic("runtime: double Start")
	}
	e.freeze()
	ctx, e.cancel = context.WithCancel(ctx)
	e.driverWG.Add(1)
	go e.drive(ctx)
}

// Stop halts the pacer and the worker loops and waits for them. It is
// idempotent and safe to call from multiple goroutines. An engine used
// only through RunUntil should also call Stop when done if it ran with
// more than one worker.
func (e *Engine[S]) Stop() {
	e.mu.Lock()
	cancel := e.cancel
	e.mu.Unlock()
	if cancel != nil {
		cancel()
		e.driverWG.Wait()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopWorkers()
}

// Inject overwrites a node's state at the next epoch boundary — a live
// transient fault. It always reports true: the engine has no fault queue
// that could overflow.
func (e *Engine[S]) Inject(node int, s S) bool {
	if node < 0 || node >= e.n {
		panic(fmt.Sprintf("runtime: node %d out of range", node))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.freeze()
	nd := &e.nodes[node]
	rec := evq.Rec[S]{At: e.now, Key: key2(int32(node), nd.seq), Lane: int32(node), Kind: evInject, Body: s}
	nd.seq++
	e.shards[e.shardOf[node]].q.Push(rec)
	return true
}

// drive is the pacer loop: run epochs, each under e.mu, while virtual
// time lags the wall clock, otherwise sleep on a timer until it is due
// or the context ends (Stop cancels it). Whichever ends it, the worker
// loops exit with it, so cancelling the start context alone drains every
// engine goroutine. Only drive writes e.now while it runs, so it reads
// e.now without the lock.
func (e *Engine[S]) drive(ctx context.Context) {
	defer e.driverWG.Done()
	start := time.Now()
	base := e.now
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for ctx.Err() == nil {
		ahead := e.now - base - time.Since(start).Seconds()
		if ahead <= 0 {
			e.mu.Lock()
			e.stepEpoch()
			e.mu.Unlock()
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Duration(ahead * float64(time.Second)))
		select {
		case <-ctx.Done():
		case <-timer.C:
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopWorkers()
}
