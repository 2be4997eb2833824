package msgnet

import (
	"testing"
)

// FuzzArenaInvariants interleaves schedule (push) and deliver (pop)
// operations driven by fuzzed bytes and, after every
// operation, re-validates the arena from first principles via check():
// the heap and free list must always partition the slot slab — no event
// live twice, none leaked — with exact pos back-pointers and the 4-ary
// heap property. A parallel model (a plain slice) additionally checks
// that pops come out in exact (at, seq) order, the property every seeded
// trace rests on.
func FuzzArenaInvariants(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 0, 9, 9, 9, 9, 3, 3, 3, 3})
	f.Add([]byte{255, 254, 253, 1, 1, 1, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		a := NewArena[int]()
		// model holds the slot index of every live event, insertion-ordered.
		var model []int32
		var seq uint64
		minLive := func() int32 {
			best := model[0]
			for _, s := range model[1:] {
				if a.before(s, best) {
					best = s
				}
			}
			return best
		}
		dropFromModel := func(s int32) {
			for i, m := range model {
				if m == s {
					model = append(model[:i], model[i+1:]...)
					return
				}
			}
			t.Fatalf("slot %d popped but not in model", s)
		}
		for i, b := range ops {
			switch {
			case b < 128: // schedule: at derived from the byte, ties common
				e := event[int]{at: Time(b % 16), seq: seq, load: i}
				seq++
				before := a.Len()
				a.push(&e)
				if a.Len() != before+1 {
					t.Fatalf("op %d: push did not grow the heap", i)
				}
				// The pushed slot is wherever the sift left it; recover it
				// by its unique sequence number.
				model = append(model, slotBySeq(t, a, e.seq))
			default: // deliver: pop the minimum
				if a.Len() == 0 {
					continue
				}
				wantSlot := minLive()
				want := a.slots[wantSlot]
				got := a.pop()
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("op %d: popped (at=%v seq=%d), model expects (at=%v seq=%d)",
						i, got.at, got.seq, want.at, want.seq)
				}
				dropFromModel(wantSlot)
			}
			if err := a.check(); err != nil {
				t.Fatalf("op %d (byte %d): arena invariant broken: %v", i, b, err)
			}
			if a.Len() != len(model) {
				t.Fatalf("op %d: arena holds %d events, model %d", i, a.Len(), len(model))
			}
		}
		// Drain: the survivors must come out in exact (at, seq) order.
		var prev event[int]
		first := true
		for a.Len() > 0 {
			e := a.pop()
			if !first && (e.at < prev.at || (e.at == prev.at && e.seq < prev.seq)) {
				t.Fatalf("drain out of order: (at=%v seq=%d) after (at=%v seq=%d)",
					e.at, e.seq, prev.at, prev.seq)
			}
			prev, first = e, false
			if err := a.check(); err != nil {
				t.Fatalf("drain: arena invariant broken: %v", err)
			}
		}
		// Everything released: a Reset-free full drain leaves slots == free.
		if err := a.check(); err != nil {
			t.Fatalf("after drain: %v", err)
		}
	})
}

// slotBySeq finds the live slot holding the event with the given seq.
func slotBySeq(t *testing.T, a *Arena[int], seq uint64) int32 {
	t.Helper()
	for _, en := range a.heap {
		if en.seq == seq {
			return en.slot
		}
	}
	t.Fatalf("pushed event seq %d not found in heap", seq)
	return -1
}

// TestArenaResetKeepsCapacity pins reset-not-reallocate: Reset empties
// the arena but keeps the grown slot storage for the next simulation.
func TestArenaResetKeepsCapacity(t *testing.T) {
	a := NewArena[string]()
	for i := 0; i < 100; i++ {
		e := event[string]{at: Time(i), seq: uint64(i), load: "x"}
		a.push(&e)
	}
	grown := a.Cap()
	if grown < 100 {
		t.Fatalf("Cap = %d after 100 pushes", grown)
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len = %d after Reset", a.Len())
	}
	if a.Cap() != grown {
		t.Fatalf("Reset dropped capacity: %d -> %d", grown, a.Cap())
	}
	if err := a.check(); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

// TestArenaFreeListRecycles pins the intrusive free list: popped slots
// are reused before the slab grows.
func TestArenaFreeListRecycles(t *testing.T) {
	a := NewArena[int]()
	for i := 0; i < 8; i++ {
		e := event[int]{at: Time(i), seq: uint64(i)}
		a.push(&e)
	}
	for i := 0; i < 8; i++ {
		a.pop()
	}
	slab := len(a.slots)
	for i := 0; i < 8; i++ {
		e := event[int]{at: Time(i), seq: uint64(100 + i)}
		a.push(&e)
	}
	if len(a.slots) != slab {
		t.Fatalf("slab grew %d -> %d although %d slots were free", slab, len(a.slots), slab)
	}
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
}
