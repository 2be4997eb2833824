// Digest tests of the sharded engine. Each hashes what the retired boxed
// reference engine used to be compared against — the 16-seed sweep at
// every worker count, the single-worker dispatch order, and (in
// churn_test.go) a churning ring — and checks the hash against
// testdata/digests, where it was recorded from that reference engine.
package runtime

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sync"
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

// runOrder runs one diff seed with an observer sink and a privilege
// callback attached. With more than one worker both are called from the
// shard loops, so a mutex guards the recorded sequences; each node's
// entries still come from one shard, in that shard's order.
func runOrder(seed int64, workers int, horizon float64) orderRun {
	a, init, opts, faults := diffScenario(seed)
	opts.Workers = workers
	e := NewEngine[core.State](a, init, opts)
	var r orderRun
	var mu sync.Mutex
	o := obs.New(obs.Func(func(ev obs.Event) {
		mu.Lock()
		r.events = append(r.events, ev)
		mu.Unlock()
	}))
	e.SetPrivilegeCallback(core.HasToken, func(id int, holds bool) {
		mu.Lock()
		r.priv = append(r.priv, privCall{id, holds})
		mu.Unlock()
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
		r := runOrder(seed, 1, horizon)
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

// hashPerNode writes what a run shows each node by itself: the node's
// observer events other than handovers, in emission order, grouped by
// the node that emitted them (Peer, the sender, for a MsgDropped; Node
// otherwise); the handovers sorted by (T, Node), each node's own keeping
// their order; each node's privilege calls in order; and the
// HandoverGap histogram. None of it depends on how an epoch interleaves
// the nodes' event sequences, only on each node's own.
func hashPerNode(h io.Writer, r orderRun) {
	size := 0
	for _, ev := range r.events {
		size = max(size, ev.Node+1, ev.Peer+1)
	}
	for _, c := range r.priv {
		size = max(size, c.id+1)
	}
	events := make([][]obs.Event, size)
	priv := make([][]bool, size)
	var handovers []obs.Event
	for _, ev := range r.events {
		switch ev.Kind {
		case obs.KindHandover:
			handovers = append(handovers, ev)
		case obs.KindMsgDropped:
			events[ev.Peer] = append(events[ev.Peer], ev)
		default:
			events[ev.Node] = append(events[ev.Node], ev)
		}
	}
	for _, c := range r.priv {
		priv[c.id] = append(priv[c.id], c.holds)
	}
	slices.SortStableFunc(handovers, func(a, b obs.Event) int {
		if c := cmp.Compare(a.T, b.T); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	for i := 0; i < size; i++ {
		fmt.Fprintf(h, "node %d\n", i)
		for _, ev := range events[i] {
			fmt.Fprintf(h, "%+v\n", ev)
		}
		fmt.Fprintf(h, "%v\n", priv[i])
	}
	for _, ev := range handovers {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	fmt.Fprintf(h, "%v sum=%d\n", r.gaps, r.gapSum)
}

// perNodeDigest hashes hashPerNode over every diff seed on the given
// worker count.
func perNodeDigest(t *testing.T, workers int) string {
	const horizon = 2.0
	h := digest.New()
	for seed := int64(1); seed <= 16; seed++ {
		r := runOrder(seed, workers, horizon)
		if len(r.events) == 0 || len(r.priv) == 0 {
			t.Fatalf("seed %d: degenerate run: %d events, %d callbacks", seed, len(r.events), len(r.priv))
		}
		hashPerNode(h, r)
	}
	return digest.Sum(h)
}

// TestEnginePerNodeMatchesReference pins what each node sees of a
// single-worker run (hashPerNode over every diff seed) to
// testdata/digests/runtime-pernode.sha256. It was recorded while shards
// still dispatched each epoch in global (At, Key) order, so it holds
// any other dispatch order to the same per-node executions.
func TestEnginePerNodeMatchesReference(t *testing.T) {
	digest.Check(t, "runtime-pernode.sha256", perNodeDigest(t, 1))
}

// TestEnginePerNodeWorkerCountInvariance runs every diff seed on 2, 3
// and 4 workers and requires each to show every node exactly what the
// single-worker run shows it (hashPerNode), the HandoverGap histogram
// included: shards that race to report privilege gains would skew the
// gaps between them.
func TestEnginePerNodeWorkerCountInvariance(t *testing.T) {
	const horizon = 2.0
	for seed := int64(1); seed <= 16; seed++ {
		want := runOrder(seed, 1, horizon)
		wantSum := digest.New()
		hashPerNode(wantSum, want)
		for _, w := range []int{2, 3, 4} {
			got := runOrder(seed, w, horizon)
			if got.gaps != want.gaps || got.gapSum != want.gapSum {
				t.Errorf("seed %d w=%d: HandoverGap %v sum=%d, w=1 %v sum=%d",
					seed, w, got.gaps, got.gapSum, want.gaps, want.gapSum)
				continue
			}
			gotSum := digest.New()
			hashPerNode(gotSum, got)
			if digest.Sum(gotSum) != digest.Sum(wantSum) {
				t.Errorf("seed %d w=%d: per-node executions differ from w=1", seed, w)
			}
		}
	}
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
