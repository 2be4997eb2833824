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
// (Lane, At, Key) order, handing each to f.
func runQueueEpoch[B any](q *Queue[B], horizon float64, f func(*Rec[B])) {
	q.Open(horizon)
	var rec Rec[B]
	for q.Next(&rec) {
		f(&rec)
	}
}

// TestRunQueueOrder drives the epoch run queue against a linear-scan
// model: over many epochs, with every dispatch pushing a follow-up —
// most for later epochs in any lane, some due inside the running one in
// the dispatched record's own lane (the soon heap), as the engine's
// short timers are — the queue must yield exactly the model's (Lane, At,
// Key) sequence of the records due in each epoch, and between epochs
// hold exactly the pending records.
func TestRunQueueOrder(t *testing.T) {
	const (
		delay  = 1.0
		epochs = 60
		lanes  = 8
	)
	var rng splitmix = 7
	q := &Queue[int]{}
	var model []Rec[int]
	var seq uint64
	add := func(lane int32, at float64) {
		rec := Rec[int]{At: at, Key: seq, Lane: lane, Body: int(seq)}
		seq++
		q.Push(rec)
		model = append(model, rec)
	}
	for i := 0; i < 300; i++ {
		// Coarse times make equal At common, so Key breaks ties.
		add(int32(rng.next()%lanes), float64(int(8*rng.float64()))/4)
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
			if rng.float64() < 0.2 {
				gap := 0.1 * delay * rng.float64() // may fall due in this epoch
				if rec.At+gap < horizon {
					soon++
				}
				add(rec.Lane, rec.At+gap)
				return
			}
			add(int32(rng.next()%lanes), rec.At+max(3*delay*rng.float64(), horizon-rec.At))
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
// most of the run, each on a single lane, on a few lanes and spread over
// 50,000 lanes — sortRun yields exactly the order slices.SortFunc with
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
	spans := []struct {
		name       string
		lmin, lmax int32
	}{
		{"one lane", 7, 7},
		{"few lanes", 3, 6},
		{"50000 lanes", 1000, 1000 + 50_000 - 1},
	}
	q := &Queue[int]{}
	for _, shape := range shapes {
		for _, lanes := range spans {
			sp := span{lo: lo, hi: hi, lmin: lanes.lmin, lmax: lanes.lmax}
			width := uint64(lanes.lmax-lanes.lmin) + 1
			for trial := 0; trial < 200; trial++ {
				n := int(rng.next() % 301)
				if trial < 40 {
					n = trial // every small-run length, and the switch to buckets
				}
				run := make([]Rec[int], n)
				for i := range run {
					lane := lanes.lmin + int32(rng.next()%width)
					run[i] = Rec[int]{At: shape.at(i, n), Key: rng.next(), Lane: lane, Body: i}
				}
				want := slices.Clone(run)
				slices.SortFunc(want, cmpRec[int])
				q.sortRun(run, sp)
				if !slices.Equal(run, want) {
					t.Fatalf("%s on %s, %d records: sortRun order differs from slices.SortFunc",
						shape.name, lanes.name, n)
				}
			}
		}
	}
	run := make([]Rec[int], 300)
	buf := make([]Rec[int], len(run))
	for i := range run {
		run[i] = Rec[int]{At: skewed(i, len(run)), Key: rng.next(), Lane: int32(rng.next() % 64)}
	}
	sp := span{lo: lo, hi: hi, lmin: 0, lmax: 63}
	for _, n := range []int{smallRun, len(run)} {
		if allocs := testing.AllocsPerRun(20, func() {
			copy(buf, run[:n])
			q.sortRun(buf[:n], sp)
		}); allocs != 0 {
			t.Errorf("sortRun of %d records: %v allocs, want 0", n, allocs)
		}
	}
}

// TestZeroWidthEpochAtTimeZero: a zero-width epoch opened at t=0 ends at
// the smallest denormal, whose inverse overflows the bucket scale. A run
// too large for the insertion-sort path must still come out whole and in
// order.
func TestZeroWidthEpochAtTimeZero(t *testing.T) {
	const n = 4 * smallRun
	q := &Queue[int]{}
	for i := 0; i < n; i++ {
		q.Push(Rec[int]{At: 0, Key: uint64(n - i), Lane: int32(i % 3)})
	}
	var prev Rec[int]
	for i := 0; i < n; i++ {
		if q.Head(0) == nil {
			t.Fatalf("Head = nil after %d of %d records", i, n)
		}
		var rec Rec[int]
		q.Next(&rec)
		if i > 0 && !recLess(&prev, &rec) {
			t.Fatalf("record %d: %+v after %+v", i, rec, prev)
		}
		prev = rec
	}
	if q.Head(0) != nil || q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
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

// TestGrowReservesRoom: after Grow(n), n pushes reallocate nothing.
func TestGrowReservesRoom(t *testing.T) {
	q := &Queue[int]{}
	q.Push(Rec[int]{At: 1, Key: 0})
	q.Grow(1000)
	grown := q.Cap()
	if grown < 1001 {
		t.Fatalf("Cap = %d after Grow(1000) with one record pending", grown)
	}
	for i := 1; i <= 1000; i++ {
		q.Push(Rec[int]{At: float64(i), Key: uint64(i)})
	}
	if q.Cap() != grown || q.Len() != 1001 {
		t.Fatalf("Cap %d -> %d, Len %d after 1000 pushes", grown, q.Cap(), q.Len())
	}
}

// FuzzQueueOrder drives the queue with fuzzed operations — pushes over
// a few lanes with frequent ties, takes, epoch opens at horizons
// including one at or below the earliest record and +Inf, Head at widths
// including 0 and +Inf, and Reset — and checks each against a
// linear-scan model: Next yields the first due record (At below the
// horizon) in (Lane, At, Key) order, and reports false exactly when none
// is due; Head yields the same record, opening the next epoch at the
// earliest pending time once the running one is spent, nil only when
// the model is empty; and Len matches the model after every operation.
// A push due inside the open epoch sorts at or after the record last
// taken, the rule both tiers keep.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 128, 128, 128, 128, 250, 128})
	f.Add([]byte{0, 0, 0, 0, 9, 9, 9, 9, 3, 3, 3, 3, 251, 128, 128, 5, 128, 128, 128})
	f.Add([]byte{255, 254, 253, 1, 1, 1, 128, 64, 32, 16, 8, 4, 2, 1, 193, 130, 130, 130})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 248, 0, 128, 0, 249, 128, 128, 252})
	f.Add([]byte{112, 16, 96, 32, 80, 48, 64, 202, 128, 5, 21, 128, 128, 128, 250, 128, 128})
	widths := []float64{0, 0.25, 1, math.Inf(1)}
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := &Queue[int]{}
		var model []Rec[int]
		var seq uint64
		var last Rec[int] // the record last taken: pushes never sort below it
		open := false
		// first returns the model's first record due before horizon in
		// (Lane, At, Key) order, or -1.
		first := func(horizon float64) int {
			best := -1
			for i := range model {
				if model[i].At < horizon && (best < 0 || recLess(&model[i], &model[best])) {
					best = i
				}
			}
			return best
		}
		earliest := func() float64 {
			lo := math.Inf(1)
			for i := range model {
				lo = min(lo, model[i].At)
			}
			return lo
		}
		// head is the record Head(width) must yield, or -1.
		head := func(width float64) int {
			if best := first(q.horizon); best >= 0 || len(model) == 0 {
				return best
			}
			lo := earliest()
			horizon := lo + width
			if !(horizon > lo) {
				horizon = math.Nextafter(lo, math.Inf(1))
			}
			return first(horizon)
		}
		take := func(op, want int, rec Rec[int]) {
			if want < 0 || model[want] != rec {
				t.Fatalf("op %d: took %+v, model wants index %d of %v", op, rec, want, model)
			}
			model = append(model[:want], model[want+1:]...)
			last = rec
		}
		for i, b := range ops {
			switch {
			case b < 128: // push: At on a quarter-step grid above the last take, ties common
				rec := Rec[int]{At: last.At + float64(b%16)/4, Key: seq, Lane: int32(b >> 4), Body: i}
				if open && rec.At < q.horizon {
					rec.Lane = max(rec.Lane, last.Lane)
				}
				seq++
				q.Push(rec)
				model = append(model, rec)
			case b < 192: // take the next record of the epoch
				want := first(q.horizon)
				var rec Rec[int]
				ok := q.Next(&rec)
				if ok != (want >= 0) {
					t.Fatalf("op %d: Next = %v below horizon %v, model says %v", i, ok, q.horizon, want >= 0)
				}
				if ok {
					take(i, want, rec)
				} else {
					open = false
				}
			case b < 248: // open an epoch, only between epochs
				if open || len(model) == 0 {
					continue
				}
				lo := earliest()
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
				if first(q.horizon) >= 0 {
					horizon = max(horizon, q.horizon)
				}
				q.Open(horizon)
				open = true
			case b < 252: // peek, opening the next epoch when this one is spent
				want := head(widths[b%4])
				h := q.Head(widths[b%4])
				if (h == nil) != (want < 0) {
					t.Fatalf("op %d: Head = %v with %d records pending", i, h, len(model))
				}
				if h != nil {
					if *h != model[want] {
						t.Fatalf("op %d: Head = %+v, model wants %+v", i, *h, model[want])
					}
					if !(h.At < q.horizon) {
						t.Fatalf("op %d: Head %+v not below the horizon %v", i, *h, q.horizon)
					}
				}
				open = h != nil
			case b < 254: // take through Head, as msgnet's Run does
				want := head(widths[b%2])
				if q.Head(widths[b%2]) == nil {
					open = false
					continue
				}
				var rec Rec[int]
				if !q.Next(&rec) {
					t.Fatalf("op %d: Next = false right after Head found a record", i)
				}
				take(i, want, rec)
				open = true
			default:
				q.Reset()
				model, last, open = model[:0], Rec[int]{}, false
			}
			if q.Len() != len(model) {
				t.Fatalf("op %d (byte %d): Len = %d, model holds %d", i, b, q.Len(), len(model))
			}
		}
		// Drain: epoch by epoch, each in exact (Lane, At, Key) order.
		for {
			want := head(1)
			h := q.Head(1)
			if h == nil {
				break
			}
			var rec Rec[int]
			q.Next(&rec)
			take(len(ops), want, rec)
		}
		if len(model) != 0 || q.Len() != 0 {
			t.Fatalf("drain left %d records in the model, Len %d", len(model), q.Len())
		}
	})
}

// BenchmarkRuntimeQueueEpoch times the event-queue layer alone, shaped
// like one engine-100k shard of the live runtime (Delay 10 ms, Jitter
// 2 ms, Refresh 50 ms) between slices as measured on the engine: 118,000
// pending records over an arc of 50,000 nodes, about 72,000 due per
// epoch, and each dispatched record replaced by one push — 86% sends to
// a ring neighbour arriving 1–1.2 delays later, 14% refresh timers of
// the same node 5 delays later. The record has the runtime's shape: the
// destination node in Lane, the kind in Kind and a core.State-sized
// body, 40 bytes. One op is one epoch; ns/record is the queue's cost per
// dispatched event.
func BenchmarkRuntimeQueueEpoch(b *testing.B) {
	type state struct {
		x        int
		rts, tra bool
	}
	const (
		pending    = 118_000
		arc        = 50_000
		delay      = 0.01
		jitter     = 0.2 * delay
		refresh    = 5 * delay
		timerShare = 0.14
		warmup     = 32 // epochs to reach the steady-state due share
	)
	var rng splitmix = 1
	q := &Queue[state]{}
	var seq uint64
	for i := 0; i < pending; i++ {
		q.Push(Rec[state]{At: refresh * rng.float64(), Key: seq, Lane: int32(i % arc)})
		seq++
	}
	now, records := 0.0, 0
	epoch := func() {
		horizon := now + delay
		runQueueEpoch(q, horizon, func(rec *Rec[state]) {
			records++
			life, lane := refresh, rec.Lane
			if rng.float64() >= timerShare {
				life = delay + jitter*rng.float64()
				lane = (lane + arc - 1 + 2*int32(rng.next()&1)) % arc // a neighbour, ±1
			}
			q.Push(Rec[state]{At: rec.At + life, Key: seq, Lane: lane, Kind: rec.Kind, Body: rec.Body})
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
