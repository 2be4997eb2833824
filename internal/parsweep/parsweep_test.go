package parsweep

import (
	"math/rand"
	"runtime"
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
