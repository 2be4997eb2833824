package runtime

// The live deployment: the engine paced 1:1 against the wall clock
// (Start/Stop), the way NewLiveRing, cmd/ssrmin-live and the examples
// run it. Queries and injects travel through the pacer between epochs.

import (
	"sync/atomic"
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

func liveOpts(workers int) Options[core.State] {
	return Options[core.State]{
		Delay:          500 * time.Microsecond,
		Jitter:         200 * time.Microsecond,
		Refresh:        2 * time.Millisecond,
		Seed:           1,
		CoherentCaches: true,
		Workers:        workers,
	}
}

func TestStartStop(t *testing.T) {
	_, e := newSSRminEngine(5, 6, liveOpts(1))
	e.Start()
	time.Sleep(20 * time.Millisecond)
	e.Stop()
	if e.RuleExecutions() == 0 {
		t.Error("no rule executions in 20ms")
	}
	if e.Stats().Carried == 0 {
		t.Error("no message carried")
	}
}

// TestDoubleStartPanics: a paced engine starts once — a second Start is
// refused while it runs and after it stopped.
func TestDoubleStartPanics(t *testing.T) {
	_, e := newSSRminEngine(5, 6, liveOpts(1))
	e.Start()
	start := func(when string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Start %s accepted", when)
			}
		}()
		e.Start()
	}
	start("while running")
	e.Stop()
	start("after Stop")
}

// TestLiveCirculation checks that the privilege visits every node of a
// paced ring within a generous wall-clock budget.
func TestLiveCirculation(t *testing.T) {
	a, e := newSSRminEngine(5, 6, liveOpts(2))
	e.Start()
	defer e.Stop()
	visited := map[int]bool{}
	deadline := time.Now().Add(3 * time.Second)
	for len(visited) < a.N() && time.Now().Before(deadline) {
		for _, h := range e.Holders(core.HasToken) {
			visited[h] = true
		}
		time.Sleep(200 * time.Microsecond)
	}
	if len(visited) != a.N() {
		t.Fatalf("privilege visited %d/%d nodes: %v", len(visited), a.N(), visited)
	}
}

// TestLiveMutualInclusion samples the census of a paced single-worker
// ring started legitimate and coherent: it must stay within 1–2.
func TestLiveMutualInclusion(t *testing.T) {
	_, e := newSSRminEngine(5, 6, liveOpts(1))
	e.Start()
	defer e.Stop()
	stats := e.WatchCensus(core.HasToken, 300*time.Millisecond, 100*time.Microsecond)
	if stats.Samples < 100 {
		t.Fatalf("only %d samples", stats.Samples)
	}
	if stats.Min < 1 {
		t.Fatalf("census dipped to %d (zero-coverage instant observed): %+v", stats.Min, stats.At)
	}
	if stats.Max > 2 {
		t.Fatalf("census rose to %d: %+v", stats.Max, stats.At)
	}
}

// TestLiveDijkstraShowsGaps runs plain SSToken on the live tier: the
// census must hit zero — the demonstration of Figure 11 that
// cmd/ssrmin-live -alg sstoken and examples/handover show. Epoch
// boundaries are true instantaneous cuts, so the run is sampled in fast
// virtual time and the result is deterministic.
func TestLiveDijkstraShowsGaps(t *testing.T) {
	a := dijkstra.New(5, 6)
	for _, w := range []int{1, 2} {
		e := NewEngine[dijkstra.State](a, a.InitialLegitimate(), Options[dijkstra.State]{
			Delay:          500 * time.Microsecond,
			Jitter:         200 * time.Microsecond,
			Refresh:        2 * time.Millisecond,
			Seed:           2,
			CoherentCaches: true,
			Workers:        w,
		})
		zero, samples := 0, 0
		for e.Now() < 0.3 {
			e.RunUntil(e.Now() + 0.0005)
			samples++
			if e.Census(dijkstra.HasToken) == 0 {
				zero++
			}
		}
		e.Stop()
		if zero == 0 {
			t.Errorf("w=%d: no zero-token sample in %d for live SSToken", w, samples)
		}
	}
}

// TestLiveStabilizationFromArbitrary starts from garbage states and
// self-copied caches over lossy links and requires the paced ring to
// reach and hold the 1–2 regime.
func TestLiveStabilizationFromArbitrary(t *testing.T) {
	a := core.New(5, 7)
	init := statemodel.Config[core.State]{
		{X: 3, RTS: true, TRA: true}, {X: 1}, {X: 6, TRA: true}, {X: 2, RTS: true}, {X: 2},
	}
	e := NewEngine[core.State](a, init, Options[core.State]{
		Delay:    500 * time.Microsecond,
		Jitter:   300 * time.Microsecond,
		LossProb: 0.05,
		Refresh:  2 * time.Millisecond,
		Seed:     3,
	})
	e.Start()
	defer e.Stop()
	time.Sleep(500 * time.Millisecond) // settle: » O(n²) rule executions
	stats := e.WatchCensus(core.HasToken, 200*time.Millisecond, 100*time.Microsecond)
	if stats.Min < 1 || stats.Max > 2 {
		t.Fatalf("census out of [1,2] after settling: %+v", stats)
	}
}

// TestPrivilegeCallback exercises the application hook on the paced
// engine: every node must report becoming privileged. With two workers
// the callback fires from both worker loops, so the sinks are atomic.
func TestPrivilegeCallback(t *testing.T) {
	a, e := newSSRminEngine(5, 6, liveOpts(2))
	var became [5]atomic.Int64
	e.SetPrivilegeCallback(core.HasToken, func(id int, holds bool) {
		if holds {
			became[id].Add(1)
		}
	})
	e.Start()
	defer e.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for i := 0; i < a.N(); i++ {
			if became[i].Load() == 0 {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("not every node became privileged: %v", []int64{
		became[0].Load(), became[1].Load(), became[2].Load(), became[3].Load(), became[4].Load(),
	})
}

func TestSetPrivilegeCallbackAfterStartPanics(t *testing.T) {
	_, e := newSSRminEngine(5, 6, liveOpts(1))
	e.Start()
	defer e.Stop()
	defer func() {
		if recover() == nil {
			t.Error("SetPrivilegeCallback after Start accepted")
		}
	}()
	e.SetPrivilegeCallback(core.HasToken, nil)
}

func TestSnapshotsShape(t *testing.T) {
	_, e := newSSRminEngine(5, 6, liveOpts(1))
	snaps := e.Snapshots()
	if len(snaps) != 5 {
		t.Fatalf("%d snapshots", len(snaps))
	}
	// Before start, snapshot = init with coherent caches.
	if snaps[1].CachePred != (core.State{X: 0, TRA: true}) {
		t.Errorf("P1 cache of P0 = %v", snaps[1].CachePred)
	}
}

// TestLiveFaultInjectionRecovers hits a paced ring with repeated live
// soft errors and verifies the census returns to [1,2] each time.
func TestLiveFaultInjectionRecovers(t *testing.T) {
	a, e := newSSRminEngine(5, 6, liveOpts(2))
	e.Start()
	defer e.Stop()
	time.Sleep(20 * time.Millisecond)

	for round := 0; round < 3; round++ {
		if !e.Inject(round%a.N(), core.State{X: (round * 3) % 6, RTS: true, TRA: true}) {
			t.Fatal("injection dropped")
		}
		e.Inject((round+2)%a.N(), core.State{X: (round + 1) % 6})
		time.Sleep(150 * time.Millisecond) // » worst-case recovery at n=5
		stats := e.WatchCensus(core.HasToken, 100*time.Millisecond, 100*time.Microsecond)
		if stats.Min < 1 || stats.Max > 2 {
			t.Fatalf("round %d: census %+v after fault", round, stats)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	_, e := newSSRminEngine(5, 6, liveOpts(1))
	defer func() {
		if recover() == nil {
			t.Error("Inject out of range accepted")
		}
	}()
	e.Inject(99, core.State{})
}
