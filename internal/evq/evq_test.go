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

// TestRunQueueSplitOrder drives the two-run path at scale against the
// linear-scan model: over 10,000 pending records on 2,000 lanes for 60
// epochs, every dispatch pushing what the engine's would — timers
// re-armed five epochs on with two sends, frames answered by two sends
// to lane±1 in dispatch order (about a tenth of them landing two epochs
// on), now and then a push into the running epoch's soon heap — plus
// 6,000 parked records re-armed 60 epochs on. Len must match the model
// after every operation. Three epochs send their fresh frames in reverse
// lane order, so the next front overruns its insertion budget and
// sortRun takes it; three are opened 25 widths wide, so most records are
// due and too few wait between the two runs to merge them by swaps; the
// two epochs after a wide one have next to no front. Every other epoch
// past the first must finish most of its run on the nearly sorted path.
func TestRunQueueSplitOrder(t *testing.T) {
	const (
		width  = 1.0
		lanes  = 2000
		parked = 6000
		epochs = 60
		kTimer = 1
		kPark  = 2
		wideBy = 25 // the width of a wide epoch
	)
	reversed := map[int]bool{12: true, 30: true, 47: true}
	wide := map[int]bool{20: true, 38: true, 55: true}
	var rng splitmix = 5
	q := &Queue[int]{}
	// The model: the records due in the open epoch, and the others.
	var due, later []Rec[int]
	var seq uint64
	horizon := 0.0
	checkLen := func(ep int) {
		if q.Len() != len(due)+len(later) {
			t.Fatalf("epoch %d: Len = %d, model holds %d", ep, q.Len(), len(due)+len(later))
		}
	}
	push := func(ep int, lane int32, at float64, kind uint8) {
		lane = (lane + lanes) % lanes
		rec := Rec[int]{At: at, Key: seq, Lane: lane, Kind: kind, Body: int(seq)}
		seq++
		q.Push(rec)
		if at < horizon {
			due = append(due, rec)
		} else {
			later = append(later, rec)
		}
		checkLen(ep)
	}
	for lane := int32(0); lane < lanes; lane++ {
		push(-1, lane, 5*width*rng.float64(), kTimer)
		push(-1, lane, 1.2*width*rng.float64(), 0)
		push(-1, lane+1, 1.2*width*rng.float64(), 0)
	}
	for i := 0; i < parked; i++ {
		push(-1, int32(rng.next()%lanes), epochs*width*rng.float64(), kPark)
	}
	// after pushes a record d widths after rec, moved past a wide epoch:
	// a send to lane-1 must not fall due in it.
	after := func(ep int, rec *Rec[int], lane int32, d float64, kind uint8) {
		if wide[ep] {
			d += wideBy
		}
		push(ep, lane, rec.At+d*width, kind)
	}
	send := func(ep int, rec *Rec[int]) {
		for _, d := range []int32{-1, 1} {
			lane := rec.Lane + d
			if reversed[ep] {
				lane = lanes - 1 - lane
			}
			after(ep, rec, lane, 1+0.2*rng.float64(), 0)
		}
	}
	var runs, nearly int
	for ep := 0; ep < epochs; ep++ {
		next := horizon + width
		if wide[ep] {
			next = horizon + wideBy*width
		}
		// Predict the path Open takes: the front's due records and the
		// remainder's, and how many records wait between them.
		nf := q.front
		if nf == 0 {
			nf = len(q.q)
		}
		a, b := 0, 0
		for i := range q.q {
			if q.q[i].At < next {
				if i < nf {
					a++
				} else {
					b++
				}
			}
		}
		if swaps := len(q.q)-a-b >= b; swaps == wide[ep] && b > 0 {
			t.Fatalf("epoch %d: %d front and %d other records due, %d waiting: merge by swaps = %v",
				ep, a, b, len(q.q)-a-b, swaps)
		}
		horizon = next
		for i := 0; i < len(later); i++ {
			if later[i].At < horizon {
				due = append(due, later[i])
				later[i] = later[len(later)-1]
				later = later[:len(later)-1]
				i--
			}
		}
		q.Open(horizon)
		checkLen(ep)
		switch {
		case reversed[ep-1] && q.nearly != 0:
			t.Fatalf("epoch %d: a front in reverse lane order took the nearly sorted path", ep)
		case ep > 0 && !reversed[ep-1] && !wide[ep] && !wide[ep-1] && !wide[ep-2] && 2*q.nearly < q.due:
			t.Fatalf("epoch %d: %d of %d records took the nearly sorted path", ep, q.nearly, q.due)
		}
		runs += q.due
		nearly += q.nearly
		var rec Rec[int]
		for q.Next(&rec) {
			best := 0
			for i := range due {
				if recLess(&due[i], &due[best]) {
					best = i
				}
			}
			if len(due) == 0 {
				t.Fatalf("epoch %d: dispatched %+v, model has none due", ep, rec)
			}
			if due[best] != rec {
				t.Fatalf("epoch %d: dispatched %+v, model wants %+v", ep, rec, due[best])
			}
			due[best] = due[len(due)-1]
			due = due[:len(due)-1]
			checkLen(ep)
			switch {
			case rec.Kind == kPark:
				push(ep, rec.Lane, rec.At+epochs*width, kPark)
			case rec.Kind == kTimer:
				after(ep, &rec, rec.Lane, 5, kTimer)
				send(ep, &rec)
			case rng.float64() < 0.05:
				push(ep, rec.Lane, rec.At+0.1*width*rng.float64(), 0) // may fall due now
			case rng.float64() < 0.36:
				send(ep, &rec)
			}
		}
		if len(due) != 0 {
			t.Fatalf("epoch %d: %d due records not dispatched", ep, len(due))
		}
		if ep > 0 && len(later) < 10_000 {
			t.Fatalf("epoch %d: only %d records pending", ep, len(later))
		}
	}
	t.Logf("%d records over %d epochs, %.0f%% of them on the nearly sorted path",
		runs, epochs, 100*float64(nearly)/float64(runs))
}

// TestOpenMergeBoundary opens queues past splitMin whose front holds
// 3,000 due records and whose remainder holds 1,000 due records and one
// fewer, as many, or one more waiting: the boundary between sorting the
// whole run and merging the two runs by swaps. Each epoch must come out
// in (Lane, At, Key) order and leave exactly the waiting records.
func TestOpenMergeBoundary(t *testing.T) {
	const front, due, horizon = 3000, 1000, 1.0
	var rng splitmix = 3
	for _, wait := range []int{due - 1, due, due + 1} {
		q := &Queue[int]{}
		var want []Rec[int]
		for i := 0; i < front+due+wait; i++ {
			// The front in push order: lanes ascending, times nearly so.
			rec := Rec[int]{At: horizon * float64(i%30) / 30, Key: uint64(i), Lane: int32(i * 100 / front)}
			switch {
			case i >= front+due:
				rec.At = horizon * (1 + rng.float64())
			case i >= front:
				rec.At, rec.Lane = horizon*rng.float64(), int32(rng.next()%100)
				want = append(want, rec)
			default:
				want = append(want, rec)
			}
			q.q = append(q.q, rec)
		}
		// Shuffle the remainder: its due and waiting records interleave.
		rest := q.q[front:]
		for i := len(rest) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			rest[i], rest[j] = rest[j], rest[i]
		}
		q.front = front
		slices.SortFunc(want, cmpRec[int])
		q.Open(horizon)
		var rec Rec[int]
		for i := range want {
			if !q.Next(&rec) || rec != want[i] {
				t.Fatalf("%d waiting: record %d is %+v, want %+v", wait, i, rec, want[i])
			}
		}
		if q.Next(&rec) || q.Len() != wait {
			t.Fatalf("%d waiting: Len %d after the epoch", wait, q.Len())
		}
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
				q.sortRun(run, hi)
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
	for _, n := range []int{smallRun, len(run)} {
		if allocs := testing.AllocsPerRun(20, func() {
			copy(buf, run[:n])
			q.sortRun(buf[:n], hi)
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
// a few lanes with frequent ties, bulk pushes of 700 records in
// ascending or descending lane order (six of them take the queue past
// splitMin, onto the two-run path), takes, finishing the open epoch,
// epoch opens at horizons including one at or below the earliest record
// and +Inf, Head at widths including 0 and +Inf, and Reset — and checks
// each against a linear-scan model: Next yields the first due record (At
// below the horizon) in (Lane, At, Key) order, and reports false exactly
// when none is due; Head yields the same record, opening the next epoch
// at the earliest pending time once the running one is spent, nil only
// when the model is empty; and Len matches the model after every
// operation. A push due inside the open epoch sorts at or after the
// record last taken, the rule both tiers keep.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 128, 128, 128, 128, 250, 128})
	f.Add([]byte{0, 0, 0, 0, 9, 9, 9, 9, 3, 3, 3, 3, 251, 128, 128, 5, 128, 128, 128})
	f.Add([]byte{255, 254, 253, 1, 1, 1, 128, 64, 32, 16, 8, 4, 2, 1, 193, 130, 130, 130})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 248, 0, 128, 0, 249, 128, 128, 252})
	f.Add([]byte{112, 16, 96, 32, 80, 48, 64, 202, 128, 5, 21, 128, 128, 128, 250, 128, 128})
	f.Add([]byte{254, 254, 254, 254, 254, 254, 202, 128, 128, 128, 128, 128, 128, 128, 128, 254, 253,
		206, 128, 128, 128, 128, 128, 128, 254, 128, 253, 250, 128, 252, 253, 201, 253})
	f.Add([]byte{254, 254, 254, 254, 254, 254, 202, 128, 128, 128, 128, 128, 128, 254, 253, 203, 253})
	const bulk = 700
	widths := []float64{0, 0.25, 1, math.Inf(1)}
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := &Queue[int]{}
		var model []Rec[int]
		var seq uint64
		var last Rec[int] // the record last taken: pushes never sort below it
		open := false
		bulks := 0
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
		// finish takes the rest of the open epoch, the model's records due
		// before the horizon in (Lane, At, Key) order, and closes it.
		finish := func(op int) {
			var run []Rec[int]
			kept := model[:0]
			for _, r := range model {
				if r.At < q.horizon {
					run = append(run, r)
				} else {
					kept = append(kept, r)
				}
			}
			model = kept
			slices.SortFunc(run, cmpRec[int])
			var rec Rec[int]
			for _, want := range run {
				if !q.Next(&rec) || rec != want {
					t.Fatalf("op %d: finishing the epoch took %+v, model wants %+v", op, rec, want)
				}
				last = rec
			}
			if q.Next(&rec) {
				t.Fatalf("op %d: Next took %+v past the epoch's due records", op, rec)
			}
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
			case b == 252: // take through Head, as msgnet's Run does
				want := head(0)
				if q.Head(0) == nil {
					open = false
					continue
				}
				var rec Rec[int]
				if !q.Next(&rec) {
					t.Fatalf("op %d: Next = false right after Head found a record", i)
				}
				take(i, want, rec)
				open = true
			case b == 253: // finish the open epoch
				finish(i)
				open = false
			case b == 254: // bulk push, lanes ascending or descending, ties common
				desc := bulks%2 == 1
				bulks++
				for k := 0; k < bulk; k++ {
					lane := int32(k * 64 / bulk)
					if desc {
						lane = 63 - lane
					}
					rec := Rec[int]{At: last.At + float64(k%16)/4, Key: seq, Lane: lane, Body: i}
					if open && rec.At < q.horizon {
						rec.Lane = max(rec.Lane, last.Lane)
					}
					seq++
					q.Push(rec)
					model = append(model, rec)
				}
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
			horizon := q.horizon
			if first(horizon) < 0 {
				horizon = earliest() + 1
			}
			want := head(1)
			h := q.Head(1)
			if h == nil {
				break
			}
			if *h != model[want] || q.horizon != horizon {
				t.Fatalf("drain: Head = %+v below %v, model wants %+v below %v", *h, q.horizon, model[want], horizon)
			}
			finish(len(ops))
		}
		if len(model) != 0 || q.Len() != 0 {
			t.Fatalf("drain left %d records in the model, Len %d", len(model), q.Len())
		}
	})
}

// BenchmarkRuntimeQueueEpoch times the event-queue layer alone, shaped
// like one engine-100k shard of the live runtime (Delay 10 ms, Jitter
// 2 ms, Refresh 50 ms) as measured on the engine: about 118,000 pending
// records over an arc of 50,000 nodes, about 72,000 due per epoch, and
// dispatch pushing what the engine's does, in the same order. A refresh
// timer re-arms 5 delays on and sends to both neighbours; a frame sends
// to both with probability 0.34, which holds the count steady. Sends go
// to lane−1 then lane+1 and arrive 1–1.2 delays later, so about a tenth
// land two epochs on. The record has the runtime's shape: the
// destination node in Lane, the kind in Kind and a core.State-sized
// body, 40 bytes. One op is one epoch; ns/record is the queue's cost per
// dispatched event and front/record the share of each run that took
// the nearly sorted path.
func BenchmarkRuntimeQueueEpoch(b *testing.B) {
	type state struct {
		x        int
		rts, tra bool
	}
	const (
		arc     = 50_000
		frames  = 68_000 // frames in flight at the start
		delay   = 0.01
		jitter  = 0.2 * delay
		refresh = 5 * delay
		answer  = 0.34 // the share of frames that send
		kTimer  = 1
		warmup  = 32 // epochs to reach the steady state
	)
	var rng splitmix = 1
	q := &Queue[state]{}
	var seq uint64
	push := func(lane int32, at float64, kind uint8) {
		q.Push(Rec[state]{At: at, Key: seq, Lane: (lane + arc) % arc, Kind: kind})
		seq++
	}
	for lane := int32(0); lane < arc; lane++ {
		push(lane, refresh*rng.float64(), kTimer)
	}
	for i := 0; i < frames; i++ {
		push(int32(i%arc), (delay+jitter)*rng.float64(), 0)
	}
	now, records, nearly := 0.0, 0, 0
	epoch := func() {
		horizon := now + delay
		q.Open(horizon)
		nearly += q.nearly
		var rec Rec[state]
		for q.Next(&rec) {
			records++
			if rec.Kind == kTimer {
				push(rec.Lane, rec.At+refresh, kTimer)
			} else if rng.float64() >= answer {
				continue
			}
			push(rec.Lane-1, rec.At+delay+jitter*rng.float64(), 0)
			push(rec.Lane+1, rec.At+delay+jitter*rng.float64(), 0)
		}
		now = horizon
	}
	for i := 0; i < warmup; i++ {
		epoch()
	}
	records, nearly = 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
	b.ReportMetric(float64(records)/float64(b.N), "records/epoch")
	b.ReportMetric(float64(nearly)/float64(records), "front/record")
}
