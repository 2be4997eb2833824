package parsweep

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	got := Map(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapSequentialFallback(t *testing.T) {
	got := Map(5, 1, func(i int) int { return i })
	if len(got) != 5 || got[4] != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestMapZeroAndDefaults(t *testing.T) {
	if got := Map(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("n=0 gave %v", got)
	}
	// workers <= 0 uses GOMAXPROCS; just verify it completes.
	got := Map(10, 0, func(i int) int { return i })
	if len(got) != 10 {
		t.Fatal("default workers failed")
	}
}

func TestMapConcurrencyBounded(t *testing.T) {
	var active, peak atomic.Int64
	Map(64, 4, func(i int) int {
		cur := active.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer active.Add(-1)
		// Busy-yield to encourage overlap.
		for j := 0; j < 100; j++ {
			runtime.Gosched()
		}
		return i
	})
	if peak.Load() > 4 {
		t.Fatalf("peak concurrency %d > 4", peak.Load())
	}
	if peak.Load() < 2 {
		t.Logf("note: peak concurrency only %d (scheduler-dependent)", peak.Load())
	}
}

func TestMapDeterministicWithSeeds(t *testing.T) {
	run := func() []float64 {
		return Map(50, 8, func(i int) float64 {
			rng := rand.New(rand.NewSource(int64(i)))
			return rng.Float64()
		})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parallel sweep not deterministic under per-index seeding")
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic not propagated")
		}
	}()
	Map(10, 4, func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	})
}

// TestMapManyPanicsReturn: with many trials panicking on every worker,
// each recover path must release the panic lock, or the sweep deadlocks
// instead of re-raising.
func TestMapManyPanicsReturn(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Map(64, 4, func(i int) int {
			if i%2 == 0 {
				panic("boom")
			}
			return i
		})
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("panic not propagated")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep with many panicking trials never returned")
	}
}

// TestMapChunkedGrabRunsEachItemOnce: a sweep long enough to be handed
// out in chunks runs every item exactly once, on every worker count.
func TestMapChunkedGrabRunsEachItemOnce(t *testing.T) {
	const n = 20000
	for _, workers := range []int{2, 3, 16} {
		runs := make([]atomic.Int32, n)
		got := Map(n, workers, func(i int) int {
			runs[i].Add(1)
			return 3 * i
		})
		for i := range runs {
			if c := runs[i].Load(); c != 1 || got[i] != 3*i {
				t.Fatalf("workers=%d: item %d ran %d times, result %d", workers, i, c, got[i])
			}
		}
	}
}

// TestMapChunkedPanicNamesTrial: inside a chunk, a panicking item is
// recovered on its own, names its own index, and the rest of the chunk
// still runs.
func TestMapChunkedPanicNamesTrial(t *testing.T) {
	const n, bad = 20000, 7777
	var ran atomic.Int64
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, fmt.Sprintf("trial %d panicked: boom", bad)) {
			t.Fatalf("recovered %v, want trial %d's panic", r, bad)
		}
		if got := ran.Load(); got != n-1 {
			t.Fatalf("%d items completed, want %d", got, n-1)
		}
	}()
	Map(n, 2, func(i int) int {
		if i == bad {
			panic("boom")
		}
		ran.Add(1)
		return i
	})
}

// TestGrabSizeKeepsShortSweepsSingle: sweeps of at most 64 items per
// worker (a 100-scenario soak sweep on 2 workers, the checker's 4 chunks
// per worker) take one item per grab; a long sweep takes chunks that
// shrink to single items for its last 64 per worker.
func TestGrabSizeKeepsShortSweepsSingle(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{100, 2}, {8, 2}, {64, 16}, {128, 2}} {
		for r := c.n; r > 0; r-- {
			if g := grabSize(r, c.workers); g != 1 {
				t.Fatalf("n=%d workers=%d: grab of %d with %d left", c.n, c.workers, g, r)
			}
		}
	}
	if g := grabSize(1<<14, 4); g != 512 {
		t.Fatalf("first grab of 16384 items on 4 workers = %d, want 512", g)
	}
	if g := grabSize(257, 4); g != 8 {
		t.Fatalf("grab with 257 left on 4 workers = %d, want 8", g)
	}
}

func TestMapNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative n accepted")
		}
	}()
	Map(-1, 1, func(i int) int { return i })
}

func TestSum(t *testing.T) {
	if got := Sum(10, 4, func(i int) float64 { return float64(i) }); got != 45 {
		t.Fatalf("Sum = %v", got)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4, 4, func(r, c int) int { return 10*r + c })
	if len(g) != 3 || len(g[0]) != 4 {
		t.Fatalf("shape %dx%d", len(g), len(g[0]))
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if g[r][c] != 10*r+c {
				t.Fatalf("g[%d][%d] = %d", r, c, g[r][c])
			}
		}
	}
}
