// Package evq is the event queue of both discrete-event tiers: the live
// engine's shards (internal/runtime) and the message-passing simulator
// (internal/msgnet). It is an epoch run queue: one vector of every
// pending record. Open moves the records due in the epoch to the start
// of the vector and sorts that run once; Next dispatches it in order;
// Push files records for later epochs into the run's already dispatched
// slots, appending only when none is free; and the epoch's close refills
// the slots left over from the tail of the vector.
//
// The order a tier pushes in is kept where it helps. A push due in the
// next epoch — before ahead, one epoch width past the horizon — joins
// the front: the dispatched slots from the start of the vector, filled
// in push order. Other pushes follow the front, and when a front push
// needs their first slot, that record moves to their end. The engine
// dispatches node by node and sends to the neighbours, so its front
// comes out nearly sorted. At the next Open the front's due records are
// finished by an insertion sort with a shift budget, falling back to the
// bucket sort when the budget runs out. The remainder — late sends,
// refresh timers, records pushed between epochs — goes through the
// bucket sort, and the two runs are merged by swaps into one run at the
// start of the vector. Dispatched slots thus stay one prefix, so the
// next front can grow to any length; Next and the soon heap see one run
// as before. A queue of at most splitMin records, such as msgnet's on a
// small ring, keeps no front and sorts each epoch as one run.
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
	// q holds every pending record. Between epochs q[:front] is the
	// front: the last epoch's pushes due before its ahead, in push order.
	// During an epoch q[:due] is the sorted run of records due before
	// horizon and q[:cur] of it is dispatched; of those slots, q[:front]
	// holds the epoch's pushes due before ahead, in push order, and
	// q[front:fill] its other pushes for later epochs. soon is a min-heap
	// of the pushes due inside the running epoch.
	q                     []Rec[B]
	due, cur, fill, front int
	horizon, ahead        float64
	soon                  []Rec[B]
	bkt                   []int32 // sortRun's bucket offsets, reused every epoch
	nearly                int     // records of the run that took the nearly sorted path
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
	q.due, q.cur, q.fill, q.front, q.nearly = 0, 0, 0, 0, 0
	q.horizon, q.ahead = 0, 0
}

// splitMin is the largest queue Open sorts as one run: a tiny ring's
// epoch gains nothing from a front, and msgnet, which opens an epoch
// every few events, keeps its one-run path.
const splitMin = 4096

// nearlyShifts is the front's insertion-sort budget: the places it may
// shift records, per record, before sortRun takes over.
const nearlyShifts = 8

// Open starts the epoch that ends at horizon. Records with At < horizon —
// the test that bounds the epoch — form the run. The next epoch is taken
// to be as wide as the step from the last horizon to this one.
//
//allocgate:hot
func (q *Queue[B]) Open(horizon float64) { q.open(horizon, horizon-q.horizon) }

// open starts the epoch that ends at horizon, expecting the next one to
// be width wide. A queue of at most splitMin records sorts its due
// records as one run. A larger one keeps its front apart, or takes all
// of q as the front when the last epoch left none. The front's due
// records, still in push order, are nearly sorted: insertion sort
// finishes them, or sortRun once the shift budget runs out. sortRun
// sorts the remainder's due records, and the two runs are merged into
// one by swaps with the records waiting between them, so the dispatched
// slots stay one prefix of q, which the next front can fill to any
// length.
//
//allocgate:hot
func (q *Queue[B]) open(horizon, width float64) {
	recs := q.q
	nf := q.front
	if nf == 0 || len(recs) <= splitMin {
		nf = len(recs)
	}
	// The front's due records go to its start in push order, the
	// remainder's to the end of q.
	a := 0
	for i := range recs[:nf] {
		if recs[i].At < horizon {
			if i != a {
				recs[i], recs[a] = recs[a], recs[i]
			}
			a++
		}
	}
	top := len(recs)
	for i := len(recs) - 1; i >= nf; i-- {
		if recs[i].At < horizon {
			top--
			recs[i], recs[top] = recs[top], recs[i]
		}
	}
	b := len(recs) - top
	q.horizon, q.ahead, q.due, q.cur, q.fill, q.front, q.nearly = horizon, horizon+width, a+b, 0, 0, 0, 0
	switch {
	case len(recs) <= splitMin:
		q.ahead = horizon // no push joins a front
		q.sortRun(recs[:a], horizon)
	case top-a < b:
		// Too few records wait between the runs to merge them by swaps:
		// move those past the remainder and sort the whole run.
		wait := recs[a:top]
		for i := range wait {
			wait[i], recs[len(recs)-1-i] = recs[len(recs)-1-i], wait[i]
		}
		q.sortRun(recs[:a+b], horizon)
	default:
		if insertionSort(recs[:a], nearlyShifts*a) {
			q.nearly = a
		} else {
			q.sortRun(recs[:a], horizon)
		}
		if b > 0 {
			q.sortRun(recs[top:], horizon)
			mergeDown(recs, a, b)
		}
	}
}

// mergeDown merges the sorted runs s[:a] and s[len(s)-b:] into s[:a+b],
// filling it from the top by swaps, so the records that lay between the
// runs, of which there must be at least b, end up in s[a+b:] in some
// order.
//
//allocgate:hot
func mergeDown[B any](s []Rec[B], a, b int) {
	i, j, stop := a-1, len(s)-1, len(s)-b
	for w := a + b - 1; j >= stop; w-- {
		if i >= 0 && recLess(&s[j], &s[i]) {
			s[w], s[i] = s[i], s[w]
			i--
		} else {
			s[w], s[j] = s[j], s[w]
			j--
		}
	}
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
	q.open(horizon, width)
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

// sortRun sorts run, whose times lie below hi, by (Lane, At, Key). A
// small run is insertion-sorted directly. A larger one is filed into nb
// buckets by a counting pass and an in-place permutation (American flag
// sort), and each bucket is finished by insertion sort, or by a
// comparison sort when it is large. With the run's times in [lo, hi) and
// its lanes in [lmin, lmax], a record's bucket scales
// (Lane − lmin) + (At − lo)/(hi − lo), which grows with the record's
// place in the order, from [0, lanes) to [0, nb): on one lane that is nb
// equal-width time buckets, and over many lanes each bucket holds a few
// neighbouring lanes. Event times and lanes spread evenly over an epoch,
// so the buckets hold a few records each and the sort is close to
// linear; a skewed run (every node's t=0 announcement) only makes some
// buckets larger, never the result different.
//
//allocgate:hot
func (q *Queue[B]) sortRun(run []Rec[B], hi float64) {
	if len(run) <= smallRun {
		insertionSort(run, math.MaxInt)
		return
	}
	lo, lmin, lmax := hi, int32(math.MaxInt32), int32(math.MinInt32)
	for i := range run {
		lo, lmin, lmax = min(lo, run[i].At), min(lmin, run[i].Lane), max(lmax, run[i].Lane)
	}
	nb := len(run)/4 + 1
	for len(q.bkt) < 2*(nb+1) {
		q.bkt = append(q.bkt, 0) // grows to the largest run, then stays
	}
	start, next := q.bkt[:nb+1], q.bkt[nb+1:2*(nb+1)]
	clear(start)
	fmin := float64(lmin)
	inv, scale := 1/(hi-lo), float64(nb)/(float64(lmax)-fmin+1)
	if math.IsInf(inv, 1) {
		// A zero-width epoch at t=0 ends at the smallest denormal, whose
		// inverse overflows: every record is at lo, and 0·Inf is NaN.
		inv = 0
	}
	bucket := func(r *Rec[B]) int {
		pos := float64(r.Lane) - fmin + (r.At-lo)*inv
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
			insertionSort(part, math.MaxInt)
		} else {
			slices.SortFunc(part, cmpRec[B])
		}
	}
}

// insertionSort sorts run by (Lane, At, Key) in place and reports true,
// or gives up and reports false, leaving run permuted, once it has
// shifted records more than budget places in all.
//
//allocgate:hot
func insertionSort[B any](run []Rec[B], budget int) bool {
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
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
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
// package doc). Any other takes a dispatched slot of the run that no push
// has reused yet, or is appended once none is left. A record due before
// ahead extends the front, moving the first of the other pushes to their
// end to make room; the others follow the front. Between epochs fill ==
// cur == 0, so pushes at or beyond the last horizon append.
//
//allocgate:hot
func (q *Queue[B]) Push(rec Rec[B]) {
	switch {
	case rec.At < q.horizon:
		q.pushSoon(rec)
	case q.fill == q.cur:
		q.q = append(q.q, rec)
	case rec.At < q.ahead:
		q.q[q.fill] = q.q[q.front]
		q.q[q.front] = rec
		q.front++
		q.fill++
	default:
		q.q[q.fill] = rec
		q.fill++
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
