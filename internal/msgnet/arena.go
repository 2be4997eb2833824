// The zero-allocation event engine: a value-typed event arena with an
// intrusive free list, ordered by a 4-ary min-heap whose nodes carry the
// (at, seq) sort key inline. Pushing or popping an event moves small
// value entries, never pointers, and a released slot's payload is zeroed
// so the arena retains nothing: a scheduled message costs neither a heap
// allocation nor an `any` box. Three layout choices keep the sift paths
// (the only per-event work left) cache-friendly: four children per node
// halves the tree depth and keeps a sibling group in one or two cache
// lines; the inline keys mean a comparison never dereferences back into
// the slot slab; and sifts move a hole instead of swapping, writing each
// displaced entry exactly once and touching no other memory. The price
// is that the heap keeps no per-slot positions, so an event cannot be
// cancelled in place; the simulator never cancels: delivery and timer
// events always fire.
package msgnet

import "fmt"

// arity is the heap fan-out. Four children per node keeps a whole sibling
// group in one or two cache lines of the entry slice.
const arity = 4

// freePos in a slot's pos field marks it free (on the free list); live
// slots have pos == livePos. The heap does not track per-slot positions —
// that would cost the sift paths a random-access store per level.
const (
	freePos = -1
	livePos = 0
)

// heapEntry is one node of the priority queue: the (at, seq) sort key
// copied inline next to the slot index it orders, so sift comparisons
// stay within the entry slice.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
}

// Arena is the reusable storage of the zero-alloc event engine: a slab of
// value-typed event slots plus the keyed heap that orders them. A zero
// Arena is NOT ready to use; call NewArena. Arenas are reusable across
// simulations via Network.UseArena + Reset (reset-not-reallocate), which
// is how parsweep worker pools keep an N-seed sweep at near-zero
// steady-state allocation. An Arena must never be shared by two live
// networks at once.
type Arena[P any] struct {
	slots []event[P]
	heap  []heapEntry
	free  int32 // head of the intrusive free list, freePos when empty
}

// NewArena returns an empty arena.
func NewArena[P any]() *Arena[P] {
	return &Arena[P]{free: freePos}
}

// Len returns the number of scheduled (live) events.
func (a *Arena[P]) Len() int { return len(a.heap) }

// Cap returns the number of event slots the arena has grown to; Reset
// keeps them.
func (a *Arena[P]) Cap() int { return cap(a.slots) }

// Reset empties the arena for reuse, keeping the slot and heap storage.
// Slots are zeroed so payload pointers from the previous simulation are
// not retained.
func (a *Arena[P]) Reset() {
	clear(a.slots)
	a.slots = a.slots[:0]
	a.heap = a.heap[:0]
	a.free = freePos
}

// alloc returns a free slot index, recycling the free list before growing
// the slab.
//
//allocgate:hot
func (a *Arena[P]) alloc() int32 {
	if s := a.free; s >= 0 {
		a.free = a.slots[s].next
		return s
	}
	a.slots = append(a.slots, event[P]{})
	return int32(len(a.slots) - 1)
}

// release puts a slot back on the free list, dropping its payload so the
// arena keeps nothing alive.
//
//allocgate:hot
func (a *Arena[P]) release(s int32) {
	var zero P
	sl := &a.slots[s]
	sl.load = zero
	sl.next = a.free
	sl.pos = freePos
	a.free = s
}

// less is the (at, seq) order: equal-time events pop in scheduling
// order, which makes every seeded trace reproducible.
func less(x, y heapEntry) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// before reports whether slot x's event is ordered before slot y's; the
// slot-indexed twin of less, used by tests that model the arena.
func (a *Arena[P]) before(x, y int32) bool {
	ex, ey := &a.slots[x], &a.slots[y]
	if ex.at != ey.at {
		return ex.at < ey.at
	}
	return ex.seq < ey.seq
}

// push schedules *e. The event is copied once into an arena slot;
// nothing escapes to the garbage collector and e is not retained.
//
//allocgate:hot
func (a *Arena[P]) push(e *event[P]) {
	s := a.alloc()
	e.next = freePos
	e.pos = livePos
	a.slots[s] = *e
	a.heap = append(a.heap, heapEntry{})
	a.up(len(a.heap)-1, heapEntry{at: e.at, seq: e.seq, slot: s})
}

// pop removes and returns the minimum event, releasing its slot.
func (a *Arena[P]) pop() event[P] {
	var e event[P]
	a.popInto(&e)
	return e
}

// popInto removes the minimum event into *e, releasing its slot. The
// out-parameter form lets the run loop reuse one stack slot per step
// instead of copying the event through every return frame.
//
//allocgate:hot
func (a *Arena[P]) popInto(e *event[P]) {
	s := a.heap[0].slot
	*e = a.slots[s]
	last := len(a.heap) - 1
	moved := a.heap[last]
	a.heap = a.heap[:last]
	if last > 0 {
		a.down(0, moved)
	}
	a.release(s)
}

// up sifts entry e toward the root starting from the hole at heap index
// i. Each displaced entry is written once.
//
//allocgate:hot
func (a *Arena[P]) up(i int, e heapEntry) {
	for i > 0 {
		p := (i - 1) / arity
		if !less(e, a.heap[p]) {
			break
		}
		a.heap[i] = a.heap[p]
		i = p
	}
	a.heap[i] = e
}

// down sifts entry e toward the leaves starting from the hole at heap
// index i.
//
//allocgate:hot
func (a *Arena[P]) down(i int, e heapEntry) {
	n := len(a.heap)
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		// Scan the sibling group with the running minimum in registers:
		// each entry is loaded exactly once.
		best := first
		bk := a.heap[first]
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if ck := a.heap[c]; less(ck, bk) {
				best, bk = c, ck
			}
		}
		if !less(bk, e) {
			break
		}
		a.heap[i] = bk
		i = best
	}
	a.heap[i] = e
}

// check validates the arena invariants — exercised by FuzzArenaInvariants.
// It confirms that the heap and the free list partition the slot slab (no
// event is live twice, none is lost), that every heap entry's inline key
// agrees with its slot and every slot's live/free marker matches which
// side it is on, and that the 4-ary heap property holds under the
// (at, seq) order.
func (a *Arena[P]) check() error {
	live := make(map[int32]int, len(a.heap))
	for i, en := range a.heap {
		s := en.slot
		if s < 0 || int(s) >= len(a.slots) {
			return fmt.Errorf("heap[%d] slot %d out of range (%d slots)", i, s, len(a.slots))
		}
		if prev, dup := live[s]; dup {
			return fmt.Errorf("slot %d live twice: heap[%d] and heap[%d]", s, prev, i)
		}
		live[s] = i
		if a.slots[s].pos == freePos {
			return fmt.Errorf("slot %d at heap[%d] is marked free", s, i)
		}
		if en.at != a.slots[s].at || en.seq != a.slots[s].seq {
			return fmt.Errorf("heap[%d] key (at=%v seq=%d) disagrees with slot %d (at=%v seq=%d)",
				i, en.at, en.seq, s, a.slots[s].at, a.slots[s].seq)
		}
		if i > 0 {
			p := (i - 1) / arity
			if less(en, a.heap[p]) {
				return fmt.Errorf("heap property violated: heap[%d] before its parent heap[%d]", i, p)
			}
		}
	}
	freeCount := 0
	for s := a.free; s >= 0; s = a.slots[s].next {
		if int(s) >= len(a.slots) {
			return fmt.Errorf("free list index %d out of range (%d slots)", s, len(a.slots))
		}
		if at, dup := live[s]; dup {
			return fmt.Errorf("slot %d on the free list and live at heap[%d]", s, at)
		}
		if a.slots[s].pos != freePos {
			return fmt.Errorf("free slot %d has pos %d, want %d", s, a.slots[s].pos, freePos)
		}
		freeCount++
		if freeCount > len(a.slots) {
			return fmt.Errorf("free list cycle (walked %d > %d slots)", freeCount, len(a.slots))
		}
	}
	if len(a.heap)+freeCount != len(a.slots) {
		return fmt.Errorf("slot leak: %d live + %d free != %d slots", len(a.heap), freeCount, len(a.slots))
	}
	return nil
}
