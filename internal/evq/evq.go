// Package evq is the event queue of both discrete-event tiers: the live
// engine's shards (internal/runtime) and the message-passing simulator
// (internal/msgnet). It is an epoch run queue: one vector of every
// pending record, in no particular order between epochs. Open moves the
// records due in the epoch to the front of the vector and sorts that run
// once; Next dispatches it in order; Push files records for later epochs
// into the run's already dispatched slots, appending only when none is
// free; and the epoch's close refills the slots left over from the tail
// of the vector.
//
// Epochs run in time order, and each epoch runs in (Lane, At, Key)
// order: lane by lane, each lane's records in time order. A tier whose
// records all share one lane — msgnet leaves Lane at 0 — gets exactly
// (At, Key) order, the order a global priority queue would give,
// whatever the epoch width. The live engine sets Lane to the destination
// node, so a shard walks its epoch node by node along its arc; that is
// exact for it because no event of an epoch can affect another node in
// the same epoch (see internal/runtime).
//
// A push due inside the running epoch goes to the small soon heap,
// which Next merges at the head of the run. Such a push must sort at or
// after the record last taken: in a single-lane queue, any time not
// before it; in the engine, only a node's own timer shorter than the
// epoch, which stays in the node's lane at a later time. The epoch width
// decides how much work the sort does at once and how much the soon heap
// does, never the order within a lane.
package evq

import (
	"math"
	"slices"
)

// Rec is one pending event in value form. At decides its epoch and
// (Lane, At, Key) its place in the epoch; keys are unique, so the order
// is total and every seeded trace is reproducible. Kind is the tier's
// event kind, which the queue never reads: it sits in the padding after
// Lane, so a tier's record costs no more than its body needs.
type Rec[B any] struct {
	At   float64
	Key  uint64
	Lane int32
	Kind uint8
	Body B
}

func recLess[B any](a, b *Rec[B]) bool {
	return a.Lane < b.Lane || a.Lane == b.Lane && (a.At < b.At || a.At == b.At && a.Key < b.Key)
}

// cmpRec is recLess as a three-way comparison. Keys are unique, so no two
// records compare equal.
func cmpRec[B any](a, b Rec[B]) int {
	if recLess(&a, &b) {
		return -1
	}
	return 1
}

// Queue is an epoch run queue of records with body B. The zero Queue is
// empty and ready to use. A Queue has one owner at a time.
type Queue[B any] struct {
	// q holds every pending record. During an epoch q[:due] is the sorted
	// run of records due before horizon, q[:cur] of it is dispatched, and
	// q[:fill] of that holds pushes for later epochs. soon is a min-heap
	// of the pushes due inside the running epoch.
	q              []Rec[B]
	due, cur, fill int
	horizon        float64
	soon           []Rec[B]
	bkt            []int32 // sortRun's bucket offsets, reused every epoch
}

// Len returns the number of pending records.
func (q *Queue[B]) Len() int { return len(q.q) - (q.cur - q.fill) + len(q.soon) }

// Cap returns the number of records the queue's storage has grown to;
// Reset keeps it.
func (q *Queue[B]) Cap() int { return cap(q.q) + cap(q.soon) }

// Grow makes room for n more pending records, so pushing them
// reallocates nothing. A tier that knows its opening records sizes the
// queue once instead of leaving a trail of outgrown copies.
func (q *Queue[B]) Grow(n int) { q.q = slices.Grow(q.q, n) }

// Reset empties the queue for reuse, keeping its storage. The stored
// records are zeroed, so a pooled queue keeps no payload alive.
func (q *Queue[B]) Reset() {
	clear(q.q[:cap(q.q)])
	clear(q.soon[:cap(q.soon)])
	q.q, q.soon = q.q[:0], q.soon[:0]
	q.due, q.cur, q.fill, q.horizon = 0, 0, 0, 0
}

// Open starts the epoch that ends at horizon. Records with At < horizon —
// the test that bounds the epoch — are partitioned in place to the front
// of q and sorted into the run.
//
//allocgate:hot
func (q *Queue[B]) Open(horizon float64) {
	recs := q.q
	due := 0
	lo := horizon
	lmin, lmax := int32(math.MaxInt32), int32(math.MinInt32)
	for i := range recs {
		if at := recs[i].At; at < horizon {
			lane := recs[i].Lane
			lo, lmin, lmax = min(lo, at), min(lmin, lane), max(lmax, lane)
			recs[i], recs[due] = recs[due], recs[i]
			due++
		}
	}
	q.sortRun(recs[:due], span{lo: lo, hi: horizon, lmin: lmin, lmax: lmax})
	q.horizon, q.due, q.cur, q.fill = horizon, due, 0, 0
}

// span bounds a run: its times lie in [lo, hi) and its lanes in
// [lmin, lmax].
type span struct {
	lo, hi     float64
	lmin, lmax int32
}

// Head returns the epoch's next record without taking it.
// Once the running epoch is spent it closes it and opens the next one,
// width wide, at the earliest pending record: a zero width still makes
// progress (the horizon lies just past that record) and an infinite one
// makes the epoch hold every record. Head returns nil when the queue is
// empty, or holds only records at +Inf, which no horizon passes. The
// record stays valid until the next Push or Next.
//
//allocgate:hot
func (q *Queue[B]) Head(width float64) *Rec[B] {
	if h := q.head(); h != nil {
		return h
	}
	q.close()
	if len(q.q) == 0 {
		return nil
	}
	lo := q.q[0].At
	for i := range q.q {
		lo = min(lo, q.q[i].At)
	}
	horizon := lo + width
	if !(horizon > lo) {
		horizon = math.Nextafter(lo, math.Inf(1))
	}
	q.Open(horizon)
	return q.head()
}

// head returns the open epoch's next record — the head of the run or of
// the soon heap, whichever is first — or nil once both are empty. It is
// written to fit the compiler's inlining budget, so Head, which msgnet
// calls for every event, inlines it.
//
//allocgate:hot
func (q *Queue[B]) head() *Rec[B] {
	var h *Rec[B]
	if q.cur < q.due {
		h = &q.q[q.cur]
	}
	if len(q.soon) > 0 && (h == nil || recLess(&q.soon[0], h)) {
		h = &q.soon[0]
	}
	return h
}

// smallRun bounds the runs and buckets sortRun finishes by insertion
// sort. A tiny ring's whole epoch is a run of about 20 records, which
// needs no bucket pass, and the buckets of a large run hold about four.
const smallRun = 24

// sortRun sorts run, whose times and lanes lie in sp, by (Lane, At,
// Key). A small run is insertion-sorted directly. A larger one is filed
// into nb buckets by a counting pass and an in-place permutation
// (American flag sort), and each bucket is finished by insertion sort,
// or by a comparison sort when it is large. A record's bucket scales
// (Lane − lmin) + (At − lo)/(hi − lo), which grows with the record's
// place in the order, from [0, lanes) to [0, nb): on one lane that is nb
// equal-width time buckets, and over many lanes each bucket holds a few
// neighbouring lanes. Event times and lanes spread evenly over an epoch,
// so the buckets hold a few records each and the sort is close to
// linear; a skewed run (every node's t=0 announcement) only makes some
// buckets larger, never the result different.
//
//allocgate:hot
func (q *Queue[B]) sortRun(run []Rec[B], sp span) {
	if len(run) <= smallRun {
		insertionSort(run)
		return
	}
	nb := len(run)/4 + 1
	for len(q.bkt) < 2*(nb+1) {
		q.bkt = append(q.bkt, 0) // grows to the largest run, then stays
	}
	start, next := q.bkt[:nb+1], q.bkt[nb+1:2*(nb+1)]
	clear(start)
	lmin := float64(sp.lmin)
	inv, scale := 1/(sp.hi-sp.lo), float64(nb)/(float64(sp.lmax)-lmin+1)
	if math.IsInf(inv, 1) {
		// A zero-width epoch at t=0 ends at the smallest denormal, whose
		// inverse overflows: every record is at lo, and 0·Inf is NaN.
		inv = 0
	}
	bucket := func(r *Rec[B]) int {
		pos := float64(r.Lane) - lmin + (r.At-sp.lo)*inv
		return min(int(pos*scale), nb-1)
	}
	for i := range run {
		start[bucket(&run[i])+1]++
	}
	for b := 1; b <= nb; b++ {
		start[b] += start[b-1]
	}
	copy(next, start)
	for b := 0; b < nb; b++ {
		for i := next[b]; i < start[b+1]; i = next[b] {
			c := bucket(&run[i])
			if c != b {
				run[i], run[next[c]] = run[next[c]], run[i]
			}
			next[c]++
		}
	}
	for b := 0; b < nb; b++ {
		if part := run[start[b]:start[b+1]]; len(part) <= smallRun {
			insertionSort(part)
		} else {
			slices.SortFunc(part, cmpRec[B])
		}
	}
}

// insertionSort sorts a short run by (Lane, At, Key) in place.
//
//allocgate:hot
func insertionSort[B any](run []Rec[B]) {
	for i := 1; i < len(run); i++ {
		if !recLess(&run[i], &run[i-1]) {
			continue
		}
		rec := run[i]
		j := i
		for ; j > 0 && recLess(&rec, &run[j-1]); j-- {
			run[j] = run[j-1]
		}
		run[j] = rec
	}
}

// Next takes the epoch's next record in (Lane, At, Key) order into rec —
// the head of the run or of the soon heap, whichever is first — and
// returns false, closing the epoch, once both are empty.
//
//allocgate:hot
func (q *Queue[B]) Next(rec *Rec[B]) bool {
	if len(q.soon) > 0 && (q.cur == q.due || recLess(&q.soon[0], &q.q[q.cur])) {
		q.popSoon(rec)
		return true
	}
	if q.cur < q.due {
		*rec = q.q[q.cur]
		q.cur++
		return true
	}
	q.close()
	return false
}

// close ends the epoch: the dispatched slots q[fill:due] that no push
// reused are filled from the tail of q, so q again holds exactly the
// pending records.
//
//allocgate:hot
func (q *Queue[B]) close() {
	hole := q.due - q.fill
	k := min(hole, len(q.q)-q.due)
	copy(q.q[q.fill:q.fill+k], q.q[len(q.q)-k:])
	q.q = q.q[:len(q.q)-hole]
	q.due, q.cur, q.fill = 0, 0, 0
}

// Push enqueues rec. A record due inside the running epoch joins the
// soon heap, and must sort at or after the record last taken (see the
// package doc); any other takes the first dispatched slot of the run no
// push has reused yet, or is appended. Between epochs fill == cur == 0,
// so pushes at or beyond the last horizon append.
//
//allocgate:hot
func (q *Queue[B]) Push(rec Rec[B]) {
	switch {
	case rec.At < q.horizon:
		q.pushSoon(rec)
	case q.fill < q.cur:
		q.q[q.fill] = rec
		q.fill++
	default:
		q.q = append(q.q, rec)
	}
}

// pushSoon inserts rec into the soon heap, a binary min-heap by (Lane,
// At, Key), sifting a hole up so rec is written once.
//
//allocgate:hot
func (q *Queue[B]) pushSoon(rec Rec[B]) {
	h := append(q.soon, rec)
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
	q.soon = h
}

// popSoon removes the soon heap's minimum into rec. The heap must be
// non-empty.
//
//allocgate:hot
func (q *Queue[B]) popSoon(rec *Rec[B]) {
	h := q.soon
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
	q.soon = h
}
