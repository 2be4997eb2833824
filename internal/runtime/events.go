package runtime

// Event plumbing for the sharded virtual-time engine: the per-shard epoch
// run queue (one record vector, sorted once per epoch), the lock-free
// SPSC rings that carry cross-shard sends, the 8-byte splitmix64 PRNG
// that replaces *rand.Rand on the hot path, and the tap stream the digest
// tests pin bit-identical across worker counts.

import (
	"slices"
	"sort"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// splitmix64
// ---------------------------------------------------------------------------

// prng is an 8-byte splitmix64 generator. A *rand.Rand costs ~5KB of
// state; at 100k nodes with one generator per node and per directed link
// that is half a gigabyte, so the engine carries one word instead.
type prng uint64

func (p *prng) next() uint64 {
	*p += 0x9E3779B97F4A7C15
	z := uint64(*p)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// float64 returns a uniform draw in [0, 1).
func (p *prng) float64() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// ---------------------------------------------------------------------------
// Event records and the epoch run queue
// ---------------------------------------------------------------------------

// Event kinds. Deliveries carry the direction so the receiver knows which
// neighbor cache to overwrite without looking the sender up.
const (
	evInit     uint8 = iota // the t=0 announcement every node starts with
	evTimer                 // periodic refresh announcement (Algorithm 4)
	evFromPred              // state announcement arriving from the predecessor
	evFromSucc              // state announcement arriving from the successor
	evInject                // scheduled transient fault: overwrite the state
)

// eventRec is one pending event in value form — what crosses shard
// boundaries through the SPSC rings, what the shard queue stores and
// what the dispatcher consumes. key2 packs (origin node << 32 | origin
// sequence number): together with at it is the globally unique,
// deterministic event ordering key.
type eventRec[S comparable] struct {
	at      float64
	key2    uint64
	node    int32 // destination node
	kind    uint8
	payload S
}

func recLess[S comparable](a, b *eventRec[S]) bool {
	return a.at < b.at || (a.at == b.at && a.key2 < b.key2)
}

// cmpRec is recLess as a three-way comparison. Keys are unique, so no two
// records compare equal.
func cmpRec[S comparable](a, b eventRec[S]) int {
	if recLess(&a, &b) {
		return -1
	}
	return 1
}

// The shard's event queue is an epoch run queue: one vector q of every
// pending record, in no particular order between epochs. open moves the
// records due in the epoch to the front of q and sorts that run once;
// next dispatches it in order; push files records for later epochs into
// the run's already dispatched slots, appending only when none is free;
// and close refills the slots left over from the tail of q. A push due
// inside the running epoch (a refresh timer shorter than the epoch) goes
// to the small soon heap, which next merges at the head of the run.
// Dispatch order is therefore exactly (at, key2), the order a global
// priority queue would give.

// open starts the epoch that ends at horizon. Records with at < horizon —
// the test that bounds the epoch — are partitioned in place to the front
// of q and sorted into the run.
//
//allocgate:hot
func (sh *engShard[S]) open(horizon float64) {
	q := sh.q
	due := 0
	lo := horizon
	for i := range q {
		if at := q[i].at; at < horizon {
			lo = min(lo, at)
			q[i], q[due] = q[due], q[i]
			due++
		}
	}
	sh.sortRun(q[:due], lo, horizon)
	sh.horizon, sh.due, sh.cur, sh.fill = horizon, due, 0, 0
}

// sortRun sorts run, whose times lie in [lo, hi), by (at, key2). A
// counting pass and an in-place permutation (American flag sort) file
// the records into equal-width time buckets, and a comparison sort
// finishes each bucket. Event times spread evenly over an epoch, so the
// buckets hold a few records each and the sort is close to linear; a
// skewed run (every node's t=0 announcement) only makes some buckets
// larger, never the result different.
//
//allocgate:hot
func (sh *engShard[S]) sortRun(run []eventRec[S], lo, hi float64) {
	nb := len(run)/4 + 1
	for len(sh.bkt) < 2*(nb+1) {
		sh.bkt = append(sh.bkt, 0) // grows to the largest run, then stays
	}
	start, next := sh.bkt[:nb+1], sh.bkt[nb+1:2*(nb+1)]
	clear(start)
	scale := float64(nb) / (hi - lo)
	bucket := func(at float64) int {
		return min(int((at-lo)*scale), nb-1)
	}
	for i := range run {
		start[bucket(run[i].at)+1]++
	}
	for b := 1; b <= nb; b++ {
		start[b] += start[b-1]
	}
	copy(next, start)
	for b := 0; b < nb; b++ {
		for i := next[b]; i < start[b+1]; i = next[b] {
			c := bucket(run[i].at)
			if c != b {
				run[i], run[next[c]] = run[next[c]], run[i]
			}
			next[c]++
		}
	}
	for b := 0; b < nb; b++ {
		slices.SortFunc(run[start[b]:start[b+1]], cmpRec[S])
	}
}

// next takes the epoch's next record in (at, key2) order into rec — the
// head of the run or of the soon heap, whichever is earlier — and returns
// false, closing the epoch, once both are empty. Only records destined
// for the shard's own arc are ever pushed, so the record is owned.
//
//allocgate:hot
func (sh *engShard[S]) next(rec *eventRec[S]) bool {
	if len(sh.soon) > 0 && (sh.cur == sh.due || recLess(&sh.soon[0], &sh.q[sh.cur])) {
		sh.popSoon(rec)
		return true
	}
	if sh.cur < sh.due {
		*rec = sh.q[sh.cur]
		sh.cur++
		return true
	}
	sh.close()
	return false
}

// close ends the epoch: the dispatched slots q[fill:due] that no push
// reused are filled from the tail of q, so q again holds exactly the
// pending records.
//
//allocgate:hot
func (sh *engShard[S]) close() {
	hole := sh.due - sh.fill
	k := min(hole, len(sh.q)-sh.due)
	copy(sh.q[sh.fill:sh.fill+k], sh.q[len(sh.q)-k:])
	sh.q = sh.q[:len(sh.q)-hole]
	sh.due, sh.cur, sh.fill = 0, 0, 0
}

// push enqueues rec. A record due inside the running epoch joins the
// soon heap; any other takes the first dispatched slot of the run no push
// has reused yet, or is appended. Between epochs fill == cur == 0 and
// every record lies at or beyond the last horizon, so pushes append.
//
//allocgate:hot
func (sh *engShard[S]) push(rec eventRec[S]) {
	switch {
	case rec.at < sh.horizon:
		sh.pushSoon(rec)
	case sh.fill < sh.cur:
		sh.q[sh.fill] = rec
		sh.fill++
	default:
		sh.q = append(sh.q, rec)
	}
}

// pushSoon inserts rec into the soon heap, a binary min-heap by (at,
// key2), sifting a hole up so rec is written once.
//
//allocgate:hot
func (sh *engShard[S]) pushSoon(rec eventRec[S]) {
	h := append(sh.soon, rec)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !recLess(&rec, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = rec
	sh.soon = h
}

// popSoon removes the soon heap's minimum into rec. The heap must be
// non-empty.
//
//allocgate:hot
func (sh *engShard[S]) popSoon(rec *eventRec[S]) {
	h := sh.soon
	*rec = h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && recLess(&h[c+1], &h[c]) {
			c++
		}
		if !recLess(&h[c], &last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if len(h) > 0 {
		h[i] = last
	}
	sh.soon = h
}

// ---------------------------------------------------------------------------
// SPSC rings
// ---------------------------------------------------------------------------

// spscCap bounds one ring's fixed buffer. Each ring serves exactly one
// directed boundary link, and the one-message-per-direction rule spaces
// admitted sends at least Delay (= one epoch) apart, so at most two
// entries are pushed per epoch and each is consumed one epoch later:
// steady-state occupancy never exceeds four. A backlog beyond the fixed
// buffer (a delay ≫ epoch workload, or a future scheduler relaxing the
// two-per-epoch cadence) spills into an unbounded overflow stack instead
// of panicking — correctness never depends on the ring size, only the
// fast path does.
const spscCap = 16

// spscNode boxes one overflowed record on the spill stack.
type spscNode[S comparable] struct {
	rec  eventRec[S]
	next *spscNode[S]
}

// spsc is a single-producer single-consumer ring buffer carrying
// cross-shard event records. The producer shard pushes during its epoch;
// the consumer drains at the start of its own epochs. Entries pushed
// concurrently with a drain are simply picked up one epoch later — their
// arrival times are beyond the next horizon anyway.
type spsc[S comparable] struct {
	buf  [spscCap]eventRec[S]
	_    [64]byte      // keep head and tail on separate cache lines
	head atomic.Uint32 // consumer cursor
	_    [64]byte
	tail atomic.Uint32 // producer cursor

	// ovf is the overflow stack, used only when the fixed buffer is
	// full. The producer CAS-pushes (a plain store would race the
	// consumer's Swap below), the consumer swaps the whole stack out.
	// Stack order is irrelevant: every drained record goes through the
	// shard queue, which orders by the unique (at, key2).
	ovf atomic.Pointer[spscNode[S]]
}

//allocgate:hot
func (q *spsc[S]) pushRing(rec eventRec[S]) {
	t := q.tail.Load()
	if t-q.head.Load() < spscCap {
		q.buf[t%spscCap] = rec
		q.tail.Store(t + 1)
		return
	}
	//lint:ignore allocgate the overflow spill boxes the record by design; the fixed ring serves the steady state alloc-free
	n := &spscNode[S]{rec: rec}
	for {
		n.next = q.ovf.Load()
		if q.ovf.CompareAndSwap(n.next, n) {
			return
		}
	}
}

// drainInto moves every visible entry — ring first, then the overflow
// stack — into the shard's queue. It is the receiving side of the SPSC
// crossing: everything it drains was addressed to sh by the sender's
// emit, so every pushed record is owned.
//
//allocgate:hot
func (q *spsc[S]) drainInto(sh *engShard[S]) {
	h := q.head.Load()
	for t := q.tail.Load(); h != t; h++ {
		sh.push(q.buf[h%spscCap])
	}
	q.head.Store(h)
	for n := q.ovf.Swap(nil); n != nil; n = n.next {
		sh.push(n.rec)
	}
}

// ---------------------------------------------------------------------------
// Taps
// ---------------------------------------------------------------------------

// TapKind discriminates TapEvent records.
type TapKind uint8

// Tap kinds: every observable action of a node's event processing.
const (
	// TapSend: Src admitted an announcement into the link toward Peer.
	TapSend TapKind = iota
	// TapSuppressed: Src tried to send toward Peer while the link was
	// busy — the one-message-per-direction drop.
	TapSuppressed
	// TapLost: the frame Src sent toward Peer was lost in transit.
	TapLost
	// TapDeliver: Src received (and processed) an announcement from Peer.
	TapDeliver
	// TapRule: Src executed rule Rule.
	TapRule
	// TapTimer: Src's refresh timer fired.
	TapTimer
	// TapInject: a transient fault overwrote Src's state.
	TapInject
)

// TapEvent is one entry of the engine's deterministic execution trace.
// The digest tests pin the full tap stream: every worker count must hash
// it to the value committed in testdata/digests/runtime-engine.sha256.
type TapEvent struct {
	// At is the virtual time of the action.
	At float64
	// Src is the node whose event processing emitted the tap.
	Src int32
	// Ord is Src's monotonic action counter — (At, Src, Ord) totally
	// orders the stream independently of shard interleaving.
	Ord uint32
	// Kind discriminates the record.
	Kind TapKind
	// Peer is the other endpoint for message taps, -1 otherwise.
	Peer int32
	// Rule is the executed rule for TapRule, 0 otherwise.
	Rule int32
}

// sortTaps orders a tap stream by (At, Src, Ord) — each node's taps stay
// in emission order (At is non-decreasing and Ord strictly increasing per
// node), and the interleaving across nodes is canonical.
func sortTaps(taps []TapEvent) {
	sort.Slice(taps, func(i, j int) bool {
		a, b := taps[i], taps[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Ord < b.Ord
	})
}
