package evq

import (
	"math"
	"slices"
	"testing"
)

// splitmix is a seeded splitmix64 stream for the tests and benchmark.
type splitmix uint64

func (p *splitmix) next() uint64 {
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
func (p *splitmix) float64() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// runQueueEpoch dispatches every record of q due before horizon, in
// (At, Key) order, handing each to f.
func runQueueEpoch[B any](q *Queue[B], horizon float64, f func(*Rec[B])) {
	q.Open(horizon)
	var rec Rec[B]
	for q.Next(&rec) {
		f(&rec)
	}
}

// TestRunQueueOrder drives the epoch run queue against a linear-scan
// model of a global priority queue: over many epochs, with every
// dispatch pushing a follow-up — most for later epochs, some due inside
// the running one (the soon heap) — the queue must yield exactly the
// model's (At, Key) sequence, and between epochs hold exactly the
// pending records.
func TestRunQueueOrder(t *testing.T) {
	const (
		delay  = 1.0
		epochs = 60
	)
	var rng splitmix = 7
	q := &Queue[int]{}
	var model []Rec[int]
	var seq uint64
	add := func(at float64) {
		rec := Rec[int]{At: at, Key: seq, Body: int(seq)}
		seq++
		q.Push(rec)
		model = append(model, rec)
	}
	for i := 0; i < 300; i++ {
		// Coarse times make equal At common, so Key breaks ties.
		add(float64(int(8*rng.float64())) / 4)
	}
	soon := 0
	for ep := 0; ep < epochs; ep++ {
		horizon := float64(ep+1) * delay
		runQueueEpoch(q, horizon, func(rec *Rec[int]) {
			best := -1
			for i := range model {
				if model[i].At < horizon && (best < 0 || recLess(&model[i], &model[best])) {
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
			if rec.At+gap < horizon {
				soon++
			}
			add(rec.At + gap)
		})
		for i := range model {
			if model[i].At < horizon {
				t.Fatalf("epoch %d: record %+v due but not dispatched", ep, model[i])
			}
		}
		if len(q.q) != len(model) || len(q.soon) != 0 || q.Len() != len(model) {
			t.Fatalf("epoch %d: queue holds %d (+%d soon, Len %d), want %d pending",
				ep, len(q.q), len(q.soon), q.Len(), len(model))
		}
	}
	if soon == 0 {
		t.Fatal("no push fell due inside its own epoch; the soon heap went untested")
	}
}

// TestSortRunMatchesSortFunc: over random runs of 0–300 records — uniform
// times, all-equal times with distinct keys, and one skewed bucket holding
// most of the run — sortRun yields exactly the order slices.SortFunc with
// cmpRec gives, across the small-run path, insertion-sorted buckets and
// comparison-sorted large buckets, and allocates nothing once its bucket
// offsets have grown.
func TestSortRunMatchesSortFunc(t *testing.T) {
	const lo, hi = 2.0, 3.0
	var rng splitmix = 11
	uniform := func(int, int) float64 { return lo + (hi-lo)*rng.float64() }
	skewed := func(i, n int) float64 {
		if i < n/5 {
			return lo + (hi-lo)*rng.float64()
		}
		return lo + 0.25 + 1e-3*rng.float64()
	}
	shapes := []struct {
		name string
		at   func(i, n int) float64
	}{
		{"uniform", uniform},
		{"equal", func(int, int) float64 { return lo + 0.5 }},
		{"skewed", skewed},
	}
	q := &Queue[int]{}
	for _, shape := range shapes {
		name, at := shape.name, shape.at
		for trial := 0; trial < 200; trial++ {
			n := int(rng.next() % 301)
			if trial < 40 {
				n = trial // every small-run length, and the switch to buckets
			}
			run := make([]Rec[int], n)
			for i := range run {
				run[i] = Rec[int]{At: at(i, n), Key: rng.next(), Body: i}
			}
			want := slices.Clone(run)
			slices.SortFunc(want, cmpRec[int])
			q.sortRun(run, lo, hi)
			if !slices.Equal(run, want) {
				t.Fatalf("%s, %d records: sortRun order differs from slices.SortFunc", name, n)
			}
		}
	}
	run := make([]Rec[int], 300)
	buf := make([]Rec[int], len(run))
	for i := range run {
		run[i] = Rec[int]{At: skewed(i, len(run)), Key: rng.next()}
	}
	for _, n := range []int{smallRun, len(run)} {
		if allocs := testing.AllocsPerRun(20, func() {
			copy(buf, run[:n])
			q.sortRun(buf[:n], lo, hi)
		}); allocs != 0 {
			t.Errorf("sortRun of %d records: %v allocs, want 0", n, allocs)
		}
	}
}

// TestResetDropsRecords pins that Reset empties the queue, keeps its
// storage and zeroes every stored record, so a pooled queue keeps no
// payload alive.
func TestResetDropsRecords(t *testing.T) {
	q := &Queue[*int]{}
	v := 1
	for i := 0; i < 100; i++ {
		q.Push(Rec[*int]{At: float64(i % 7), Key: uint64(i), Body: &v})
	}
	q.Head(0.5) // open an epoch, so the push below lands in the soon heap
	q.Push(Rec[*int]{At: 0, Key: 100, Body: &v})
	grown := q.Cap()
	q.Reset()
	if q.Len() != 0 || q.Head(1) != nil {
		t.Fatalf("Len = %d after Reset", q.Len())
	}
	if q.Cap() != grown {
		t.Fatalf("Reset dropped capacity: %d -> %d", grown, q.Cap())
	}
	for _, recs := range [][]Rec[*int]{q.q[:cap(q.q)], q.soon[:cap(q.soon)]} {
		for i := range recs {
			if recs[i].Body != nil {
				t.Fatalf("record %d still holds a payload after Reset", i)
			}
		}
	}
}

// FuzzQueueOrder drives the queue with fuzzed operations — pushes with
// frequent ties, takes, epoch opens at horizons including one at or below
// the earliest record and +Inf, Head at widths including 0 and +Inf, and
// Reset — and checks each against a linear-scan model of a global
// priority queue: Next yields the model's earliest record exactly when
// its At lies below the horizon (and reports false otherwise), Head yields
// the earliest record, nil only when the model is empty, and Len matches
// the model after every operation.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 128, 128, 128, 128, 250, 128})
	f.Add([]byte{0, 0, 0, 0, 9, 9, 9, 9, 3, 3, 3, 3, 251, 128, 128, 5, 128, 128, 128})
	f.Add([]byte{255, 254, 253, 1, 1, 1, 128, 64, 32, 16, 8, 4, 2, 1, 193, 130, 130, 130})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 248, 0, 128, 0, 249, 128, 128, 252})
	widths := []float64{0, 0.25, 1, math.Inf(1)}
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := &Queue[int]{}
		var model []Rec[int]
		var seq uint64
		last := 0.0 // At of the last record taken: pushes never go below it
		open := false
		earliest := func() int {
			best := -1
			for i := range model {
				if best < 0 || recLess(&model[i], &model[best]) {
					best = i
				}
			}
			return best
		}
		take := func(op int, rec Rec[int]) {
			best := earliest()
			if best < 0 || model[best] != rec {
				t.Fatalf("op %d: took %+v, model wants index %d of %v", op, rec, best, model)
			}
			model = append(model[:best], model[best+1:]...)
			last = rec.At
		}
		for i, b := range ops {
			switch {
			case b < 128: // push: At a quarter-step grid above the last take, ties common
				rec := Rec[int]{At: last + float64(b%16)/4, Key: seq, Body: i}
				seq++
				q.Push(rec)
				model = append(model, rec)
			case b < 192: // take the next record of the epoch
				horizon := q.horizon
				best := earliest()
				var rec Rec[int]
				ok := q.Next(&rec)
				if want := best >= 0 && model[best].At < horizon; ok != want {
					t.Fatalf("op %d: Next = %v below horizon %v, model says %v", i, ok, horizon, want)
				}
				if ok {
					take(i, rec)
				} else {
					open = false
				}
			case b < 248: // open an epoch, only between epochs
				if open || len(model) == 0 {
					continue
				}
				lo := model[earliest()].At
				var horizon float64
				switch b % 4 {
				case 0:
					horizon = lo // at the earliest record: nothing from the vector is due
				case 1:
					horizon = lo - 1
				case 2:
					horizon = lo + float64(b%8)/4
				default:
					horizon = math.Inf(1)
				}
				// Records pushed below the last horizon (the soon heap) stay
				// due, so a smaller horizon waits until they are taken, as
				// in both tiers, whose horizons never fall.
				for j := range model {
					if model[j].At < q.horizon {
						horizon = max(horizon, q.horizon)
					}
				}
				q.Open(horizon)
				open = true
			case b < 252: // peek, opening the next epoch when this one is spent
				h := q.Head(widths[b%4])
				best := earliest()
				if (h == nil) != (best < 0) {
					t.Fatalf("op %d: Head = %v with %d records pending", i, h, len(model))
				}
				if h != nil {
					if *h != model[best] {
						t.Fatalf("op %d: Head = %+v, model wants %+v", i, *h, model[best])
					}
					if !(h.At < q.horizon) {
						t.Fatalf("op %d: Head %+v not below the horizon %v", i, *h, q.horizon)
					}
				}
				open = h != nil
			case b < 254: // take through Head, as msgnet's Run does
				if q.Head(widths[b%2]) == nil {
					open = false
					continue
				}
				var rec Rec[int]
				if !q.Next(&rec) {
					t.Fatalf("op %d: Next = false right after Head found a record", i)
				}
				take(i, rec)
				open = true
			default:
				q.Reset()
				model, last, open = model[:0], 0, false
			}
			if q.Len() != len(model) {
				t.Fatalf("op %d (byte %d): Len = %d, model holds %d", i, b, q.Len(), len(model))
			}
		}
		// Drain: the survivors come out in exact (At, Key) order.
		for h := q.Head(1); h != nil; h = q.Head(1) {
			var rec Rec[int]
			q.Next(&rec)
			take(len(ops), rec)
		}
		if len(model) != 0 || q.Len() != 0 {
			t.Fatalf("drain left %d records in the model, Len %d", len(model), q.Len())
		}
	})
}

// BenchmarkRuntimeQueueEpoch times the event-queue layer alone, shaped
// like one engine-100k shard of the live runtime (Delay 10 ms, Jitter
// 2 ms, Refresh 50 ms) between slices as measured on the engine: 118,000
// pending records, about 72,000 due per epoch, and each dispatched record
// replaced by one push — 86% sends arriving 1–1.2 delays later, 14%
// refresh timers 5 delays later. The record body has the runtime's shape
// (destination node, kind, a core.State-sized payload). One op is one
// epoch; ns/record is the queue's cost per dispatched event.
func BenchmarkRuntimeQueueEpoch(b *testing.B) {
	type state struct {
		x        int
		rts, tra bool
	}
	type body struct {
		node    int32
		kind    uint8
		payload state
	}
	const (
		pending    = 118_000
		delay      = 0.01
		jitter     = 0.2 * delay
		refresh    = 5 * delay
		timerShare = 0.14
		warmup     = 32 // epochs to reach the steady-state due share
	)
	var rng splitmix = 1
	q := &Queue[body]{}
	var seq uint64
	for i := 0; i < pending; i++ {
		q.Push(Rec[body]{At: refresh * rng.float64(), Key: seq, Body: body{node: int32(i % 50_000)}})
		seq++
	}
	now, records := 0.0, 0
	epoch := func() {
		horizon := now + delay
		runQueueEpoch(q, horizon, func(rec *Rec[body]) {
			records++
			life := refresh
			if rng.float64() >= timerShare {
				life = delay + jitter*rng.float64()
			}
			q.Push(Rec[body]{At: rec.At + life, Key: seq, Body: rec.Body})
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
