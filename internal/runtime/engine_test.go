package runtime

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"ssrmin/internal/core"
	"ssrmin/internal/evq"
	"ssrmin/internal/obs"
	"ssrmin/internal/statemodel"
)

func engineOpts(seed int64, workers int) Options[core.State] {
	return Options[core.State]{
		Delay:          10 * time.Millisecond,
		Jitter:         2 * time.Millisecond,
		Refresh:        50 * time.Millisecond,
		Seed:           seed,
		CoherentCaches: true,
		Workers:        workers,
	}
}

func newSSRminEngine(n, k int, opts Options[core.State]) (*core.Algorithm, *Engine[core.State]) {
	a := core.New(n, k)
	return a, NewEngine[core.State](a, a.InitialLegitimate(), opts)
}

// sampleCensus advances the engine epoch by epoch to horizon and records
// the census extremes at every boundary plus every holder seen.
func sampleCensus(e *Engine[core.State], horizon float64) (minC, maxC int, seen map[int]bool) {
	minC, maxC = 1<<30, -1
	seen = map[int]bool{}
	for e.Now() < horizon {
		e.RunUntil(e.Now() + 0.01)
		hs := e.Holders(core.HasToken)
		if len(hs) < minC {
			minC = len(hs)
		}
		if len(hs) > maxC {
			maxC = len(hs)
		}
		for _, h := range hs {
			seen[h] = true
		}
	}
	return minC, maxC, seen
}

// TestEngineEpochsAllocateNothing measures the epoch loop's 0 allocs/op
// at run time, on one worker and on two, bare and with an observer
// attached (which adds the handover replay at every epoch's end):
// allocgate reads the compiler's escape analysis, which cannot see a
// non-escaping map or slice that later grows on the heap.
func TestEngineEpochsAllocateNothing(t *testing.T) {
	for _, observed := range []bool{false, true} {
		for _, w := range []int{1, 2} {
			_, e := newSSRminEngine(64, 65, engineOpts(1, w))
			var emitted atomic.Int64
			if observed {
				e.SetObserver(obs.New(obs.Func(func(obs.Event) { emitted.Add(1) })), core.HasToken)
			}
			e.RunUntil(0.5) // the queues grow to the steady event population
			horizon := e.Now()
			if allocs := testing.AllocsPerRun(20, func() {
				horizon += 0.1
				e.RunUntil(horizon)
			}); allocs != 0 {
				t.Errorf("w=%d observed=%v: %v allocs per 0.1 s of virtual time, want 0", w, observed, allocs)
			}
			if observed && emitted.Load() == 0 {
				t.Errorf("w=%d: the observer saw no event", w)
			}
			e.Stop()
		}
	}
}

// TestEngineQueueCapSteady: each shard's queue is sized once, for three
// records per node (a frame per incoming link direction and the node's
// timer), and never grows: its capacity after warm-up and over 40 more
// epochs is the one it started with, at n=10k on one and two workers. A
// queue that appended where it should reuse a dispatched slot would grow
// here, and with it the engine's peak memory.
func TestEngineQueueCapSteady(t *testing.T) {
	for _, w := range []int{1, 2} {
		_, e := newSSRminEngine(10_000, 10_001, engineOpts(1, w))
		e.RunUntil(0) // carve the shards and size their queues
		caps := make([]int, len(e.shards))
		for i := range e.shards {
			sh := &e.shards[i]
			caps[i] = sh.q.Cap()
			if nodes := int(sh.hi - sh.lo); caps[i] < 3*nodes {
				t.Fatalf("w=%d shard %d: queue sized for %d records, want room for 3 per node (%d)", w, i, caps[i], 3*nodes)
			}
		}
		e.RunUntil(0.1)
		for ep := 0; ep < 40; ep++ {
			e.RunUntil(e.Now() + 0.01)
			for i := range e.shards {
				if c := e.shards[i].q.Cap(); c != caps[i] {
					t.Fatalf("w=%d shard %d, epoch %d after warm-up: queue capacity %d, sized at %d", w, i, ep, c, caps[i])
				}
			}
		}
		e.Stop()
	}
}

// TestEngineRecordSize pins the engine's event record at 40 bytes: the
// destination node and the kind ride in the record's Lane and Kind, in
// the padding after the key, beside a core.State body. A larger record
// costs memory and cache misses at 100k nodes.
func TestEngineRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(evq.Rec[core.State]{}); size != 40 {
		t.Errorf("engine event record is %d bytes, want 40", size)
	}
}

// TestEngineTickReadsAllocNothing: the soak live tier's per-tick sample
// of the engine — Now and TrackedCensus — and Stats allocate nothing.
func TestEngineTickReadsAllocNothing(t *testing.T) {
	_, e := newSSRminEngine(12, 13, engineOpts(1, 2))
	defer e.Stop()
	e.SetPrivilegeCallback(core.HasToken, nil)
	e.RunUntil(0.3)
	if allocs := testing.AllocsPerRun(20, func() {
		_ = e.Now()
		if _, ok := e.TrackedCensus(); !ok {
			t.Fatal("TrackedCensus untracked with a privilege predicate installed")
		}
		_ = e.Stats()
	}); allocs != 0 {
		t.Errorf("one tick sample: %v allocs, want 0", allocs)
	}
}

// TestEngineMutualInclusion checks the paper's core guarantee on the
// sharded engine: from a legitimate coherent start the virtual-time
// census never leaves [1, 2], and the privilege visits every node.
// Every epoch boundary is a true instantaneous cut of the execution.
func TestEngineMutualInclusion(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		a, e := newSSRminEngine(5, 6, engineOpts(1, w))
		minC, maxC, seen := sampleCensus(e, 10)
		if minC < 1 || maxC > 2 {
			t.Errorf("w=%d: census left [1,2]: min=%d max=%d", w, minC, maxC)
		}
		if len(seen) != a.N() {
			t.Errorf("w=%d: privilege visited %d/%d nodes", w, len(seen), a.N())
		}
		if e.RuleExecutions() == 0 {
			t.Errorf("w=%d: no rule executions", w)
		}
		e.Stop()
	}
}

// TestEngineMinimumRing is the n=3 edge: the smallest legal ring, with
// every worker count from degenerate to one-node-per-shard.
func TestEngineMinimumRing(t *testing.T) {
	for _, w := range []int{1, 2, 3} {
		_, e := newSSRminEngine(3, 4, engineOpts(2, w))
		if got := e.Workers(); got != w {
			t.Fatalf("Workers()=%d want %d", got, w)
		}
		minC, maxC, seen := sampleCensus(e, 10)
		if minC < 1 || maxC > 2 {
			t.Errorf("n=3 w=%d: census left [1,2]: min=%d max=%d", w, minC, maxC)
		}
		if len(seen) != 3 {
			t.Errorf("n=3 w=%d: privilege visited %d/3 nodes", w, len(seen))
		}
		e.Stop()
	}
}

// TestEngineUnevenShards exercises n not divisible by the worker count
// (arc sizes differ) and checks the shard arcs tile the ring exactly.
func TestEngineUnevenShards(t *testing.T) {
	_, e := newSSRminEngine(7, 8, engineOpts(3, 3))
	e.RunUntil(1)
	defer e.Stop()
	covered := 0
	for i := range e.shards {
		sh := &e.shards[i]
		if sh.lo != int32(covered) {
			t.Fatalf("shard %d starts at %d, want %d", i, sh.lo, covered)
		}
		covered = int(sh.hi)
		for j := sh.lo; j < sh.hi; j++ {
			if e.shardOf[j] != sh.id {
				t.Fatalf("node %d mapped to shard %d, not %d", j, e.shardOf[j], sh.id)
			}
		}
	}
	if covered != 7 {
		t.Fatalf("shards cover %d/7 nodes", covered)
	}
	if minC, maxC, _ := sampleCensus(e, 5); minC < 1 || maxC > 2 {
		t.Errorf("census left [1,2]: min=%d max=%d", minC, maxC)
	}
}

// TestEngineWorkerClamp: more workers than nodes collapses to n shards;
// zero workers resolves to GOMAXPROCS (at least 1).
func TestEngineWorkerClamp(t *testing.T) {
	_, e := newSSRminEngine(3, 4, engineOpts(1, 64))
	if got := e.Workers(); got != 3 {
		t.Errorf("Workers()=%d want clamp to n=3", got)
	}
	_, e2 := newSSRminEngine(5, 6, engineOpts(1, 0))
	if got := e2.Workers(); got < 1 {
		t.Errorf("Workers()=%d want >= 1", got)
	}
}

// TestEngineCrossShardBoundary pins the boundary-link routing at W=2,
// where a shard's left and right neighbor are the same shard and routing
// must go by direction, not by shard id. A ring of 4 with 2 shards makes
// every second link a boundary link.
func TestEngineCrossShardBoundary(t *testing.T) {
	_, e := newSSRminEngine(4, 5, engineOpts(4, 2))
	e.RunUntil(5)
	defer e.Stop()
	s := e.Stats()
	if s.Carried == 0 {
		t.Fatal("no frames crossed the ring")
	}
	// Both boundary directions must have carried traffic: nodes 0 and 3
	// (shard 0's ends at W=2 over n=4: arcs [0,2) and [2,4)) talk across.
	if minC, maxC, seen := sampleCensus(e, 10); minC < 1 || maxC > 2 || len(seen) != 4 {
		t.Errorf("boundary run: census [%d,%d], visited %d/4", minC, maxC, len(seen))
	}
}

// TestEngineInjectRecovers schedules transient faults and requires the
// census to return to [1,2] within the convergence budget.
func TestEngineInjectRecovers(t *testing.T) {
	for _, w := range []int{1, 3} {
		_, e := newSSRminEngine(5, 6, engineOpts(5, w))
		e.ScheduleInject(1.0, 2, core.State{X: 4, RTS: true, TRA: true})
		e.ScheduleInject(1.05, 4, core.State{X: 1})
		e.RunUntil(6) // » O(n²) rule executions at n=5
		if minC, maxC, _ := sampleCensus(e, 10); minC < 1 || maxC > 2 {
			t.Errorf("w=%d: census did not recover: [%d,%d]", w, minC, maxC)
		}
		e.Stop()
	}
}

// TestEngineIncoherentStartStabilizes starts from garbage states and
// incoherent caches over lossy links — the Theorem 4 regime — and
// requires convergence to the 1–2 band.
func TestEngineIncoherentStartStabilizes(t *testing.T) {
	a := core.New(5, 7)
	init := statemodel.Config[core.State]{
		{X: 3, RTS: true, TRA: true}, {X: 1}, {X: 6, TRA: true}, {X: 2, RTS: true}, {X: 2},
	}
	e := NewEngine[core.State](a, init, Options[core.State]{
		Delay:    10 * time.Millisecond,
		Jitter:   3 * time.Millisecond,
		LossProb: 0.05,
		Refresh:  50 * time.Millisecond,
		Seed:     6,
		Workers:  2,
		RandomState: func(rng *rand.Rand) core.State {
			return core.State{X: rng.Intn(7), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
		},
	})
	e.RunUntil(20) // settle
	defer e.Stop()
	if minC, maxC, _ := sampleCensus(e, 25); minC < 1 || maxC > 2 {
		t.Errorf("census out of [1,2] after settling: [%d,%d]", minC, maxC)
	}
}

// TestEngineObserver wires an observer and checks that the counters the
// engine publishes after every epoch agree exactly with its own stats
// (a static ring has no stale frames, so MsgDropped is all of Dropped).
func TestEngineObserver(t *testing.T) {
	o := obs.New(nil)
	_, e := newSSRminEngine(5, 6, engineOpts(7, 2))
	e.SetObserver(o, core.HasToken)
	e.RunUntil(5)
	defer e.Stop()
	s := e.Stats()
	if s.Rules == 0 || s.Sent == 0 || s.Carried == 0 {
		t.Fatalf("degenerate run: %+v", s)
	}
	if got := o.C.RuleFired.Load(); got != s.Rules {
		t.Errorf("observer rules %d != stats %d", got, s.Rules)
	}
	if got := o.C.MsgSent.Load(); got != s.Sent {
		t.Errorf("observer sent %d != stats %d", got, s.Sent)
	}
	if got := o.C.MsgRecv.Load(); got != s.Carried {
		t.Errorf("observer recv %d != stats %d", got, s.Carried)
	}
	if got := o.C.MsgDropped.Load(); got != s.Dropped {
		t.Errorf("observer dropped %d != stats %d", got, s.Dropped)
	}
	if o.C.Handovers.Load() == 0 {
		t.Error("no handovers observed")
	}
}

// TestEnginePrivilegeCallback: every node reports becoming privileged.
// Callbacks fire from worker loops, so the sinks are atomic.
func TestEnginePrivilegeCallback(t *testing.T) {
	a, e := newSSRminEngine(5, 6, engineOpts(8, 2))
	var became [5]atomic.Int64
	e.SetPrivilegeCallback(core.HasToken, func(id int, holds bool) {
		if holds {
			became[id].Add(1)
		}
	})
	e.RunUntil(10)
	defer e.Stop()
	for i := 0; i < a.N(); i++ {
		if became[i].Load() == 0 {
			t.Errorf("node %d never became privileged", i)
		}
	}
}

// TestEnginePaced drives the engine in wall-clock paced mode — the
// NewLiveRing deployment path: Start, live census sampling, a live
// Inject, Stop (idempotent).
func TestEnginePaced(t *testing.T) {
	_, e := newSSRminEngine(5, 6, Options[core.State]{
		Delay:          500 * time.Microsecond,
		Jitter:         200 * time.Microsecond,
		Refresh:        2 * time.Millisecond,
		Seed:           9,
		CoherentCaches: true,
		Workers:        2,
	})
	e.Start()
	stats := e.WatchCensus(core.HasToken, 200*time.Millisecond, 100*time.Microsecond)
	if stats.Samples < 50 {
		t.Fatalf("only %d samples", stats.Samples)
	}
	if stats.Min < 1 || stats.Max > 2 {
		t.Fatalf("paced census left [1,2]: %+v", stats)
	}
	if stats.DistinctHolders < 3 {
		t.Errorf("only %d distinct holders in 200ms", stats.DistinctHolders)
	}
	if !e.Inject(2, core.State{X: 4, RTS: true, TRA: true}) {
		t.Fatal("live inject refused")
	}
	time.Sleep(50 * time.Millisecond)
	post := e.WatchCensus(core.HasToken, 100*time.Millisecond, 100*time.Microsecond)
	if post.Min < 1 || post.Max > 2 {
		t.Fatalf("census did not recover after live inject: %+v", post)
	}
	if e.RuleExecutions() == 0 {
		t.Error("no rule executions")
	}
	e.Stop()
	e.Stop() // idempotent
}

// TestEnginePacedTracksWallClock: after 150ms of wall time the paced
// virtual clock should be within coarse scheduling slack of 150ms.
func TestEnginePacedTracksWallClock(t *testing.T) {
	_, e := newSSRminEngine(5, 6, engineOpts(10, 1))
	e.Start()
	defer e.Stop()
	time.Sleep(150 * time.Millisecond)
	if now := e.Now(); now < 0.05 || now > 1.0 {
		t.Errorf("virtual clock at %.3fs after 150ms wall", now)
	}
}

func TestEngineDoubleStartPanics(t *testing.T) {
	_, e := newSSRminEngine(5, 6, engineOpts(1, 1))
	e.Start()
	defer e.Stop()
	defer func() {
		if recover() == nil {
			t.Error("double Start accepted")
		}
	}()
	e.Start()
}

func TestEngineConfigAfterRunPanics(t *testing.T) {
	_, e := newSSRminEngine(5, 6, engineOpts(1, 1))
	e.RunUntil(0.1)
	for name, f := range map[string]func(){
		"SetObserver":          func() { e.SetObserver(obs.New(nil), nil) },
		"SetPrivilegeCallback": func() { e.SetPrivilegeCallback(core.HasToken, nil) },
		"EnableTaps":           func() { e.EnableTaps() },
		"ScheduleInject":       func() { e.ScheduleInject(1, 0, core.State{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after first run accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestEngineValidation(t *testing.T) {
	a := core.New(3, 4)
	cases := map[string]func(){
		"short init": func() {
			NewEngine[core.State](a, statemodel.Config[core.State]{{}, {}}, Options[core.State]{
				Delay: time.Millisecond, Refresh: time.Millisecond,
			})
		},
		"zero delay": func() {
			NewEngine[core.State](a, a.InitialLegitimate(), Options[core.State]{Refresh: time.Millisecond})
		},
		"zero refresh": func() {
			NewEngine[core.State](a, a.InitialLegitimate(), Options[core.State]{Delay: time.Millisecond})
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}
