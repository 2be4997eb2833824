package runtime

import (
	"sync"
	"testing"

	"ssrmin/internal/core"
)

// drainShard runs one epoch whose horizon lies just past the latest
// pending record and returns every record in dispatch order. The tests
// push integer times in increasing batches, so a later batch mostly lies
// at or beyond the last horizon and goes through q, open and sortRun as
// in the engine.
//
// A concurrent drain can also leave records in soon: drainInto reads the
// ring before it swaps out the overflow stack, so when the producer
// refills the ring and spills a later record in between, that later
// record is drained first and its horizon passes the ring records still
// waiting, which the next drain files under soon (at < horizon). The
// horizon is therefore never below the last one, and an epoch runs
// whenever q or soon holds a record.
func drainShard(sh *engShard[int]) []eventRec[int] {
	if len(sh.q) == 0 && len(sh.soon) == 0 {
		return nil
	}
	horizon := sh.horizon
	for _, recs := range [][]eventRec[int]{sh.q, sh.soon} {
		for i := range recs {
			horizon = max(horizon, recs[i].at+1)
		}
	}
	var out []eventRec[int]
	runQueueEpoch(sh, horizon, func(rec *eventRec[int]) { out = append(out, *rec) })
	return out
}

// TestSPSCOverflowDrain regression-tests the overflow growth path: a
// backlog far beyond the fixed ring (the delay ≫ epoch shape that used
// to panic on the 17th push) spills into the overflow stack, and a
// single drain recovers every record through the shard queue in (at,
// key2) order.
func TestSPSCOverflowDrain(t *testing.T) {
	q := &spsc[int]{}
	const total = 3*spscCap + 5
	for p := 0; p < total; p++ {
		i := total - 1 - p // descending times: the queue, not arrival order, sorts
		q.pushRing(eventRec[int]{at: float64(i), key2: uint64(i), node: 0, payload: i})
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
		if rec.key2 != uint64(i) || rec.payload != i {
			t.Fatalf("record %d = {key2:%d payload:%d}, want {key2:%d payload:%d}",
				i, rec.key2, rec.payload, i, i)
		}
	}
}

// TestSPSCOverflowConcurrent races one producer against one consumer
// across the ring/overflow boundary; under -race this pins the
// CAS-push / Swap-drain protocol on the overflow stack. Every record
// comes back exactly once, and each drain's batch in (at, key2) order.
func TestSPSCOverflowConcurrent(t *testing.T) {
	q := &spsc[int]{}
	const total = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			q.pushRing(eventRec[int]{at: float64(i), key2: uint64(i), payload: i})
		}
	}()
	sh := &engShard[int]{}
	seen := make([]bool, total)
	got := 0
	for got < total {
		q.drainInto(sh)
		prev := -1
		for _, rec := range drainShard(sh) {
			if rec.payload < 0 || rec.payload >= total || seen[rec.payload] {
				t.Fatalf("record %d duplicated or out of range", rec.payload)
			}
			if rec.payload < prev {
				t.Fatalf("record %d dispatched after record %d", rec.payload, prev)
			}
			seen[rec.payload], prev = true, rec.payload
			got++
		}
	}
	wg.Wait()
	q.drainInto(sh)
	if extra := len(sh.q) + len(sh.soon); extra != 0 {
		t.Fatalf("consumer saw %d records beyond the %d produced", extra, total)
	}
}

// TestRunQueueOrder drives the epoch run queue against a linear-scan
// model of a global priority queue: over many epochs, with every
// dispatch pushing a follow-up — most for later epochs, some due inside
// the running one (the soon heap) — the queue must yield exactly the
// model's (at, key2) sequence, and between epochs hold exactly the
// pending records.
func TestRunQueueOrder(t *testing.T) {
	const (
		delay  = 1.0
		epochs = 60
	)
	var rng prng = 7
	sh := &engShard[int]{}
	var model []eventRec[int]
	var seq uint64
	add := func(at float64) {
		rec := eventRec[int]{at: at, key2: seq, payload: int(seq)}
		seq++
		sh.push(rec)
		model = append(model, rec)
	}
	for i := 0; i < 300; i++ {
		// Coarse times make equal at common, so key2 breaks ties.
		add(float64(int(8*rng.float64())) / 4)
	}
	soon := 0
	for ep := 0; ep < epochs; ep++ {
		horizon := float64(ep+1) * delay
		runQueueEpoch(sh, horizon, func(rec *eventRec[int]) {
			best := -1
			for i := range model {
				if model[i].at < horizon && (best < 0 || recLess(&model[i], &model[best])) {
					best = i
				}
			}
			if best < 0 || model[best] != *rec {
				t.Fatalf("epoch %d: dispatched %+v, model wants index %d", ep, *rec, best)
			}
			model = append(model[:best], model[best+1:]...)
			gap := 3 * delay * rng.float64()
			if rng.float64() < 0.2 {
				gap = 0.1 * delay * rng.float64() // may fall due in this epoch
			}
			if rec.at+gap < horizon {
				soon++
			}
			add(rec.at + gap)
		})
		for i := range model {
			if model[i].at < horizon {
				t.Fatalf("epoch %d: record %+v due but not dispatched", ep, model[i])
			}
		}
		if len(sh.q) != len(model) || len(sh.soon) != 0 {
			t.Fatalf("epoch %d: queue holds %d (+%d soon), want %d pending", ep, len(sh.q), len(sh.soon), len(model))
		}
	}
	if soon == 0 {
		t.Fatal("no push fell due inside its own epoch; the soon heap went untested")
	}
}

// runQueueEpoch dispatches every record of sh due before horizon, in
// (at, key2) order, handing each to f.
func runQueueEpoch[S comparable](sh *engShard[S], horizon float64, f func(*eventRec[S])) {
	sh.open(horizon)
	var rec eventRec[S]
	for sh.next(&rec) {
		f(&rec)
	}
}

// BenchmarkRuntimeQueueEpoch times the event-queue layer alone, shaped
// like one engine-100k shard (Delay 10 ms, Jitter 2 ms, Refresh 50 ms)
// between slices as measured on the engine: 118,000 pending records,
// about 72,000 due per epoch, and each dispatched record replaced by one
// push — 86% sends arriving 1–1.2 delays later, 14% refresh timers 5
// delays later. One op is one epoch; ns/record is the queue's cost per
// dispatched event.
func BenchmarkRuntimeQueueEpoch(b *testing.B) {
	const (
		pending    = 118_000
		delay      = 0.01
		jitter     = 0.2 * delay
		refresh    = 5 * delay
		timerShare = 0.14
		warmup     = 32 // epochs to reach the steady-state due share
	)
	var rng prng = 1
	sh := &engShard[core.State]{}
	var seq uint64
	for i := 0; i < pending; i++ {
		sh.push(eventRec[core.State]{at: refresh * rng.float64(), key2: seq, node: int32(i % 50_000)})
		seq++
	}
	now, records := 0.0, 0
	epoch := func() {
		horizon := now + delay
		runQueueEpoch(sh, horizon, func(rec *eventRec[core.State]) {
			records++
			life := refresh
			if rng.float64() >= timerShare {
				life = delay + jitter*rng.float64()
			}
			sh.push(eventRec[core.State]{at: rec.at + life, key2: seq, node: rec.node, payload: rec.payload})
			seq++
		})
		now = horizon
	}
	for i := 0; i < warmup; i++ {
		epoch()
	}
	records = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
	b.ReportMetric(float64(records)/float64(b.N), "records/epoch")
}
