package runtime

// Event plumbing for the sharded virtual-time engine: the event records
// its shards' epoch run queues (internal/evq) hold, the lock-free SPSC
// rings that carry cross-shard sends, the 8-byte splitmix64 PRNG that
// replaces *rand.Rand on the hot path, and the tap stream the digest
// tests pin bit-identical across worker counts.

import (
	"sort"
	"sync/atomic"

	"ssrmin/internal/evq"
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
// Event records
// ---------------------------------------------------------------------------

// Event kinds, held in the record's Kind byte. Deliveries carry the
// direction so the receiver knows which neighbor cache to overwrite
// without looking the sender up.
const (
	evInit     uint8 = iota // the t=0 announcement every node starts with
	evTimer                 // periodic refresh announcement (Algorithm 4)
	evFromPred              // state announcement arriving from the predecessor
	evFromSucc              // state announcement arriving from the successor
	evInject                // scheduled transient fault: overwrite the state
)

// The engine's event record is an evq.Rec[S]: it is what crosses shard
// boundaries through the SPSC rings, what the shard queue stores and
// what the dispatcher consumes. Lane is the destination node, so each
// shard runs its epoch node by node along its arc; Kind is the event
// kind; Body is the announced or injected state (unused by timers). Key
// packs (origin node << 32 | origin sequence number), which with At is
// the globally unique, deterministic event ordering key. With a
// core.State body the record is 40 bytes.

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
	rec  evq.Rec[S]
	next *spscNode[S]
}

// spsc is a single-producer single-consumer ring buffer carrying
// cross-shard event records. The producer shard pushes during its epoch;
// the consumer drains at the start of its own epochs. Entries pushed
// concurrently with a drain are simply picked up one epoch later — their
// arrival times are beyond the next horizon anyway.
type spsc[S comparable] struct {
	buf  [spscCap]evq.Rec[S]
	_    [64]byte      // keep head and tail on separate cache lines
	head atomic.Uint32 // consumer cursor
	_    [64]byte
	tail atomic.Uint32 // producer cursor

	// ovf is the overflow stack, used only when the fixed buffer is
	// full. The producer CAS-pushes (a plain store would race the
	// consumer's Swap below), the consumer swaps the whole stack out.
	// Stack order is irrelevant: every drained record goes through the
	// shard queue, which orders by the unique (At, Key).
	ovf atomic.Pointer[spscNode[S]]
}

//allocgate:hot
func (q *spsc[S]) pushRing(rec evq.Rec[S]) {
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
		sh.q.Push(q.buf[h%spscCap])
	}
	q.head.Store(h)
	for n := q.ovf.Swap(nil); n != nil; n = n.next {
		sh.q.Push(n.rec)
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
