package runtime

import (
	"sync"
	"testing"

	"ssrmin/internal/evq"
)

// drainShard takes every record pending in sh's queue, in (At, Key)
// order (the records share lane 0), through epochs one time unit wide, each opened at the earliest
// pending record. The tests push integer times in increasing batches, so
// a later batch mostly lies at or beyond the last horizon and goes
// through the queue's vector, Open and the run sort as in the engine.
func drainShard(sh *engShard[int]) []evq.Rec[int] {
	var out []evq.Rec[int]
	var rec evq.Rec[int]
	for sh.q.Head(1) != nil {
		sh.q.Next(&rec)
		out = append(out, rec)
	}
	return out
}

// TestSPSCOverflowDrain regression-tests the overflow growth path: a
// backlog far beyond the fixed ring (the delay ≫ epoch shape that used
// to panic on the 17th push) spills into the overflow stack, and a
// single drain recovers every record through the shard queue in (at,
// Key) order.
func TestSPSCOverflowDrain(t *testing.T) {
	q := &spsc[int]{}
	const total = 3*spscCap + 5
	for p := 0; p < total; p++ {
		i := total - 1 - p // descending times: the queue, not arrival order, sorts
		q.pushRing(evq.Rec[int]{At: float64(i), Key: uint64(i), Body: i})
		if p < spscCap && q.ovf.Load() != nil {
			t.Fatalf("push %d spilled to the overflow stack while the ring had room", p)
		}
	}
	if q.ovf.Load() == nil {
		t.Fatalf("pushing %d records never engaged the overflow stack", total)
	}
	sh := &engShard[int]{}
	q.drainInto(sh)
	if q.ovf.Load() != nil {
		t.Fatal("drainInto left records on the overflow stack")
	}
	recs := drainShard(sh)
	if len(recs) != total {
		t.Fatalf("drained %d records, want %d", len(recs), total)
	}
	for i, rec := range recs {
		if rec.Key != uint64(i) || rec.Body != i {
			t.Fatalf("record %d = {Key:%d payload:%d}, want {Key:%d payload:%d}",
				i, rec.Key, rec.Body, i, i)
		}
	}
}

// TestSPSCOverflowConcurrent races one producer against one consumer
// across the ring/overflow boundary; under -race this pins the
// CAS-push / Swap-drain protocol on the overflow stack. Every record
// comes back exactly once, and each drain's batch in (at, Key) order.
func TestSPSCOverflowConcurrent(t *testing.T) {
	q := &spsc[int]{}
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			q.pushRing(evq.Rec[int]{At: float64(i), Key: uint64(i), Body: i})
		}
	}()
	sh := &engShard[int]{}
	seen := make([]bool, total)
	got := 0
	for got < total {
		q.drainInto(sh)
		prev := -1
		for _, rec := range drainShard(sh) {
			if rec.Body < 0 || rec.Body >= total || seen[rec.Body] {
				t.Fatalf("record %d duplicated or out of range", rec.Body)
			}
			if rec.Body < prev {
				t.Fatalf("record %d dispatched after record %d", rec.Body, prev)
			}
			seen[rec.Body], prev = true, rec.Body
			got++
		}
	}
	wg.Wait()
	q.drainInto(sh)
	if extra := sh.q.Len(); extra != 0 {
		t.Fatalf("consumer saw %d records beyond the %d produced", extra, total)
	}
}
