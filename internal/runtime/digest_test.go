// Digest tests of the sharded engine. Each hashes what the retired boxed
// reference engine used to be compared against — the 16-seed sweep at
// every worker count, the single-worker dispatch order, and (in
// churn_test.go) a churning ring — and checks the hash against
// testdata/digests, where it was recorded from that reference engine.
package runtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/digest"
	"ssrmin/internal/obs"
	"ssrmin/internal/statemodel"
)

// diffRun captures everything the sweep digest and the worker-count tests
// compare.
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

func runDiff(t *testing.T, seed int64, workers int, horizon float64) diffRun {
	t.Helper()
	a, init, opts, faults := diffScenario(seed)
	opts.Workers = workers
	e := NewEngine[core.State](a, init, opts)
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

// sweepDigest hashes the 16 diff seeds run on the given worker count.
func sweepDigest(t *testing.T, workers int) string {
	const horizon = 2.0
	h := digest.New()
	for seed := int64(1); seed <= 16; seed++ {
		r := runDiff(t, seed, workers, horizon)
		if len(r.taps) == 0 || r.stats.Events == 0 {
			t.Fatalf("seed %d: degenerate run: %d taps, %+v", seed, len(r.taps), r.stats)
		}
		for _, e := range r.taps {
			fmt.Fprintf(h, "%+v\n", e)
		}
		fmt.Fprintf(h, "%+v now=%v census=%v\n%+v\n", r.stats, r.now, r.census, r.snaps)
	}
	return digest.Sum(h)
}

// TestEngineMatchesReference pins the 16-seed sweep — full tap streams,
// stats, final snapshots, clocks and tracked-census samples — to
// testdata/digests/runtime-engine.sha256, recorded from the boxed
// single-loop reference engine the run queues replaced, and requires
// every worker count from 1 to 4 to hash to it.
func TestEngineMatchesReference(t *testing.T) {
	want := sweepDigest(t, 1)
	digest.Check(t, "runtime-engine.sha256", want)
	for _, w := range []int{2, 3, 4} {
		if got := sweepDigest(t, w); got != want {
			t.Errorf("w=%d: sweep digest %s, w=1 %s", w, got, want)
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

func runOrder(seed int64, horizon float64) orderRun {
	a, init, opts, faults := diffScenario(seed)
	opts.Workers = 1
	e := NewEngine[core.State](a, init, opts)
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

// orderDigest hashes the single-worker dispatch order of every diff seed.
func orderDigest(t *testing.T) string {
	const horizon = 2.0
	h := digest.New()
	for seed := int64(1); seed <= 16; seed++ {
		r := runOrder(seed, horizon)
		if len(r.events) == 0 || len(r.priv) == 0 {
			t.Fatalf("seed %d: degenerate run: %d events, %d callbacks", seed, len(r.events), len(r.priv))
		}
		for _, ev := range r.events {
			fmt.Fprintf(h, "%+v\n", ev)
		}
		fmt.Fprintf(h, "%v\n%v sum=%d\n", r.priv, r.gaps, r.gapSum)
	}
	return digest.Sum(h)
}

// TestEngineDispatchOrderMatchesReference pins the single-worker
// dispatch order itself — the observer's event sequence, the privilege
// callback sequence and the HandoverGap histogram (gaps between
// successive gains, in dispatch order), unsorted, across every diff seed
// — to testdata/digests/runtime-dispatch.sha256, recorded from the
// reference engine.
func TestEngineDispatchOrderMatchesReference(t *testing.T) {
	digest.Check(t, "runtime-dispatch.sha256", orderDigest(t))
}

// TestEngineWorkerCountInvariance re-runs one lossy jittered scenario at
// a longer horizon across asymmetric worker counts — shard arcs of very
// different sizes must still replay the same execution.
func TestEngineWorkerCountInvariance(t *testing.T) {
	const horizon = 4.0
	want := runDiff(t, 4, 1, horizon)
	for _, w := range []int{2, 3, 4} {
		got := runDiff(t, 4, w, horizon)
		if got.stats != want.stats || !reflect.DeepEqual(got.taps, want.taps) || !reflect.DeepEqual(got.snaps, want.snaps) {
			t.Errorf("w=%d diverged from w=1 at horizon %v", w, horizon)
		}
	}
}

// TestEngineRerunReproducible: constructing the same engine twice yields
// the same execution — no hidden global state.
func TestEngineRerunReproducible(t *testing.T) {
	a := runDiff(t, 9, 2, 2.0)
	b := runDiff(t, 9, 2, 2.0)
	if a.stats != b.stats || !reflect.DeepEqual(a.taps, b.taps) {
		t.Fatal("identical construction diverged across runs")
	}
}
