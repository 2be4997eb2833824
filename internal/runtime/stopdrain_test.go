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
