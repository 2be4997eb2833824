package runtime

// Stop/drain regression tests for the live tier: stopping the engine
// mid-handover — with frames in flight and injects landing — or
// cancelling its start context must drain every goroutine instead of
// leaking them, and Stop must be safe to call concurrently. Run under
// make test-race-core.

import (
	"context"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"ssrmin/internal/core"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want (GC/timer goroutines wind down asynchronously after Stop).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if goruntime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := goruntime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d\n%s", goruntime.NumGoroutine(), want, buf[:n])
}

// TestEngineStopDrainsWorkers: the sharded engine's pacer and worker
// loops must all exit on Stop, in both paced and fast-virtual use.
func TestEngineStopDrainsWorkers(t *testing.T) {
	before := goruntime.NumGoroutine()

	a := core.New(6, 7)
	e := NewEngine[core.State](a, a.InitialLegitimate(), Options[core.State]{
		Delay:          300 * time.Microsecond,
		Jitter:         100 * time.Microsecond,
		Refresh:        time.Millisecond,
		Seed:           1,
		CoherentCaches: true,
		Workers:        3,
	})
	e.Start()
	for i := 0; i < 6; i++ {
		e.Inject(i, core.State{X: i, RTS: i%2 == 0})
	}
	time.Sleep(2 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Stop()
		}()
	}
	wg.Wait()

	// Fast-virtual mode with workers up also drains on Stop.
	e2 := NewEngine[core.State](a, a.InitialLegitimate(), Options[core.State]{
		Delay:          time.Millisecond,
		Refresh:        5 * time.Millisecond,
		Seed:           2,
		CoherentCaches: true,
		Workers:        3,
	})
	e2.RunUntil(0.5)
	e2.Stop()
	e2.Stop() // idempotent

	waitGoroutines(t, before)
}

// TestContextCancelStopsRing: cancelling the start context, without
// calling Stop, must wind down the pacer and every worker loop; Stop
// afterwards still returns.
func TestContextCancelStopsRing(t *testing.T) {
	before := goruntime.NumGoroutine()
	a := core.New(6, 7)
	e := NewEngine[core.State](a, a.InitialLegitimate(), Options[core.State]{
		Delay:          300 * time.Microsecond,
		Refresh:        time.Millisecond,
		Seed:           3,
		CoherentCaches: true,
		Workers:        3,
	})
	ctx, cancel := context.WithCancel(context.Background())
	e.StartContext(ctx)
	time.Sleep(10 * time.Millisecond)
	cancel()
	waitGoroutines(t, before)
	e.Stop()
}

// TestEnginePacedConcurrentReads: while the pacer runs on two workers,
// four goroutines call every read and Inject in a loop and two others
// Stop the engine at once. Virtual time seen by a reader never goes
// back; after Stop every read still returns and virtual time stands
// still. Run under make test-race-core.
func TestEnginePacedConcurrentReads(t *testing.T) {
	before := goruntime.NumGoroutine()
	a := core.New(6, 7)
	e := NewEngine[core.State](a, a.InitialLegitimate(), Options[core.State]{
		Delay:          300 * time.Microsecond,
		Jitter:         100 * time.Microsecond,
		Refresh:        time.Millisecond,
		Seed:           5,
		CoherentCaches: true,
		Workers:        2,
	})
	e.EnableTaps()
	e.SetPrivilegeCallback(core.HasToken, nil)
	e.Start()

	readAll := func(node, i int) float64 {
		now := e.Now()
		_ = e.Snapshots()
		if _, ok := e.TrackedCensus(); !ok {
			t.Error("TrackedCensus untracked with a privilege predicate installed")
		}
		_ = e.Holders(core.HasToken)
		_ = e.Members()
		_ = e.Stats()
		_ = e.Taps()
		e.Inject(node, core.State{X: i % 7, RTS: i%2 == 0})
		return now
	}

	stopped := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			last := 0.0
			for i := 0; ; i++ {
				now := readAll((g+i)%6, i)
				if now < last {
					t.Errorf("reader %d: Now went back from %v to %v", g, last, now)
					return
				}
				last = now
				select {
				case <-stopped:
					readAll(g, i) // once more on the stopped engine
					return
				default:
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	var stoppers sync.WaitGroup
	for i := 0; i < 2; i++ {
		stoppers.Add(1)
		go func() {
			defer stoppers.Done()
			e.Stop()
		}()
	}
	stoppers.Wait()
	close(stopped)
	readers.Wait()

	now := readAll(0, 0)
	time.Sleep(5 * time.Millisecond)
	if later := e.Now(); later != now {
		t.Errorf("Now moved after Stop: %v then %v", now, later)
	}
	waitGoroutines(t, before)
}
