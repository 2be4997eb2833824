package runtime

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/obs"
	"ssrmin/internal/statemodel"
)

// diffRun captures everything the differential test compares.
type diffRun struct {
	taps   []TapEvent
	stats  EngineStats
	snaps  []Snapshot[core.State]
	now    float64
	census []int // TrackedCensus samples at the mid and final horizons
}

// diffScenario derives a full engine configuration from the seed so the
// sweep covers ring sizes, jitter on/off, lossy links, incoherent cache
// starts, a refresh shorter than the link delay (timers that fire again
// inside the epoch that scheduled them) and mid-run fault injections
// without hand-writing 16 cases.
func diffScenario(seed int64) (*core.Algorithm, statemodel.Config[core.State], Options[core.State], [](struct {
	at   float64
	node int
	s    core.State
})) {
	sizes := []int{5, 8, 17}
	n := sizes[int(seed)%len(sizes)]
	a := core.New(n, n+2)
	opts := Options[core.State]{
		Delay:   10 * time.Millisecond,
		Refresh: 60 * time.Millisecond,
		Seed:    seed,
	}
	if seed%5 == 3 {
		opts.Refresh = 4 * time.Millisecond
	}
	if seed%2 == 0 {
		opts.Jitter = 3 * time.Millisecond
	}
	if seed%4 == 1 {
		opts.LossProb = 0.15
	}
	init := a.InitialLegitimate()
	if seed%3 == 2 {
		// Arbitrary start with incoherent caches — the stabilization regime.
		rng := rand.New(rand.NewSource(seed * 7))
		for i := range init {
			init[i] = core.State{X: rng.Intn(a.K()), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
		}
		opts.RandomState = func(r *rand.Rand) core.State {
			return core.State{X: r.Intn(a.K()), RTS: r.Intn(2) == 1, TRA: r.Intn(2) == 1}
		}
	} else {
		opts.CoherentCaches = true
	}
	faults := [](struct {
		at   float64
		node int
		s    core.State
	}){
		{at: 0.8, node: int(seed) % n, s: core.State{X: int(seed+3) % a.K(), RTS: true, TRA: true}},
		{at: 1.3, node: int(seed*5) % n, s: core.State{X: int(seed+1) % a.K()}},
	}
	return a, init, opts, faults
}

func runDiff(t *testing.T, seed int64, workers int, reference bool, horizon float64) diffRun {
	t.Helper()
	a, init, opts, faults := diffScenario(seed)
	opts.Workers = workers
	e := NewEngine[core.State](a, init, opts)
	e.Reference = reference
	e.EnableTaps()
	e.SetPrivilegeCallback(core.HasToken, nil)
	for _, f := range faults {
		e.ScheduleInject(f.at, f.node, f.s)
	}
	var census []int
	for _, h := range []float64{horizon / 2, horizon} {
		e.RunUntil(h)
		tracked, ok := e.TrackedCensus()
		if !ok {
			t.Fatalf("seed %d: TrackedCensus unavailable with a privilege callback installed", seed)
		}
		if scan := e.Census(core.HasToken); tracked != scan {
			t.Fatalf("seed %d w=%d at t=%v: tracked census %d != scanned census %d",
				seed, workers, h, tracked, scan)
		}
		census = append(census, tracked)
	}
	r := diffRun{taps: e.Taps(), stats: e.Stats(), snaps: e.Snapshots(), now: e.Now(), census: census}
	e.Stop()
	return r
}

// TestEngineMatchesReference is the acceptance-criteria differential
// sweep: across 16 seeds and every worker count from 1 to 4, the sharded
// arena engine's full tap stream, stats, final snapshots and clock must
// be bit-identical to the boxed single-loop Reference engine.
func TestEngineMatchesReference(t *testing.T) {
	const horizon = 2.0
	for seed := int64(1); seed <= 16; seed++ {
		want := runDiff(t, seed, 1, true, horizon)
		if len(want.taps) == 0 || want.stats.Events == 0 {
			t.Fatalf("seed %d: reference run degenerate: %d taps, %+v", seed, len(want.taps), want.stats)
		}
		for _, w := range []int{1, 2, 3, 4} {
			got := runDiff(t, seed, w, false, horizon)
			if got.stats != want.stats {
				t.Errorf("seed %d w=%d: stats diverged:\n got %+v\nwant %+v", seed, w, got.stats, want.stats)
			}
			if got.now != want.now {
				t.Errorf("seed %d w=%d: clock diverged: %v vs %v", seed, w, got.now, want.now)
			}
			if !reflect.DeepEqual(got.snaps, want.snaps) {
				t.Errorf("seed %d w=%d: final snapshots diverged", seed, w)
			}
			if !reflect.DeepEqual(got.census, want.census) {
				t.Errorf("seed %d w=%d: census samples diverged: %v vs %v", seed, w, got.census, want.census)
			}
			if !reflect.DeepEqual(got.taps, want.taps) {
				i := 0
				for i < len(got.taps) && i < len(want.taps) && got.taps[i] == want.taps[i] {
					i++
				}
				var g, x TapEvent
				if i < len(got.taps) {
					g = got.taps[i]
				}
				if i < len(want.taps) {
					x = want.taps[i]
				}
				t.Errorf("seed %d w=%d: taps diverged at %d/%d:\n got %+v\nwant %+v",
					seed, w, i, len(want.taps), g, x)
			}
		}
	}
}

// orderRun captures what depends on the order of dispatch inside an
// epoch, not only on which events an epoch dispatches: the sorted tap
// stream of TestEngineMatchesReference cannot tell two orders apart.
type orderRun struct {
	events []obs.Event
	priv   []privCall
	gaps   [obs.Buckets]int64
	gapSum int64
}

type privCall struct {
	id    int
	holds bool
}

func runOrder(seed int64, reference bool, horizon float64) orderRun {
	a, init, opts, faults := diffScenario(seed)
	opts.Workers = 1
	e := NewEngine[core.State](a, init, opts)
	e.Reference = reference
	var r orderRun
	o := obs.New(obs.Func(func(ev obs.Event) { r.events = append(r.events, ev) }))
	e.SetPrivilegeCallback(core.HasToken, func(id int, holds bool) {
		r.priv = append(r.priv, privCall{id, holds})
	})
	e.SetObserver(o, nil)
	for _, f := range faults {
		e.ScheduleInject(f.at, f.node, f.s)
	}
	e.RunUntil(horizon)
	e.Stop()
	r.gaps, r.gapSum = o.HandoverGap.Snapshot(), o.HandoverGap.Sum()
	return r
}

// TestEngineDispatchOrderMatchesReference pins the single-worker
// dispatch order itself: the observer's event sequence, the privilege
// callback sequence and the HandoverGap histogram (gaps between
// successive gains, in dispatch order) must equal the Reference
// engine's, unsorted, across every diff seed.
func TestEngineDispatchOrderMatchesReference(t *testing.T) {
	const horizon = 2.0
	for seed := int64(1); seed <= 16; seed++ {
		want := runOrder(seed, true, horizon)
		if len(want.events) == 0 || len(want.priv) == 0 {
			t.Fatalf("seed %d: reference run degenerate: %d events, %d callbacks", seed, len(want.events), len(want.priv))
		}
		got := runOrder(seed, false, horizon)
		if i := firstDiff(len(got.events), len(want.events), func(i int) bool { return got.events[i] == want.events[i] }); i >= 0 {
			t.Errorf("seed %d: observer events diverge at %d of %d", seed, i, len(want.events))
		}
		if i := firstDiff(len(got.priv), len(want.priv), func(i int) bool { return got.priv[i] == want.priv[i] }); i >= 0 {
			t.Errorf("seed %d: privilege callbacks diverge at %d of %d", seed, i, len(want.priv))
		}
		if got.gaps != want.gaps || got.gapSum != want.gapSum {
			t.Errorf("seed %d: HandoverGap histogram diverged (sum %d vs %d)", seed, got.gapSum, want.gapSum)
		}
	}
}

// firstDiff returns the first index where two sequences of lengths n and
// m differ under eq (the shorter length when one is a prefix of the
// other), or -1 when they are equal.
func firstDiff(n, m int, eq func(i int) bool) int {
	for i := 0; i < n && i < m; i++ {
		if !eq(i) {
			return i
		}
	}
	if n != m {
		return min(n, m)
	}
	return -1
}

// TestEngineWorkerCountInvariance re-runs one lossy jittered scenario at
// a longer horizon across asymmetric worker counts — shard arcs of very
// different sizes must still replay the same execution.
func TestEngineWorkerCountInvariance(t *testing.T) {
	const horizon = 4.0
	want := runDiff(t, 4, 1, false, horizon)
	for _, w := range []int{2, 3, 4} {
		got := runDiff(t, 4, w, false, horizon)
		if got.stats != want.stats || !reflect.DeepEqual(got.taps, want.taps) || !reflect.DeepEqual(got.snaps, want.snaps) {
			t.Errorf("w=%d diverged from w=1 at horizon %v", w, horizon)
		}
	}
}

// TestEngineRerunReproducible: constructing the same engine twice yields
// the same execution — no hidden global state.
func TestEngineRerunReproducible(t *testing.T) {
	a := runDiff(t, 9, 2, false, 2.0)
	b := runDiff(t, 9, 2, false, 2.0)
	if a.stats != b.stats || !reflect.DeepEqual(a.taps, b.taps) {
		t.Fatal("identical construction diverged across runs")
	}
}
