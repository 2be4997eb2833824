// Package parsweep runs embarrassingly parallel parameter sweeps — the
// Monte Carlo convergence experiments and benchmark grids — across a
// bounded worker pool while keeping results deterministic: every trial
// receives its own index-derived seed, and results come back in input
// order regardless of scheduling.
package parsweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs f(i) for i in [0, n) on up to workers goroutines and returns
// the results in index order. workers ≤ 0 selects GOMAXPROCS. Panics in f
// are propagated to the caller (first one wins).
func Map[R any](n, workers int, f func(i int) R) []R {
	if n < 0 {
		panic("parsweep: negative trial count")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]R, n)
	if n == 0 {
		return out
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}

	if pv := runWorkers(n, workers, func(w, i int) { out[i] = f(i) }); pv != nil {
		panic(pv)
	}
	return out
}

// runWorkers executes f(w, i) for every i in [0, n) across `workers`
// goroutines; w identifies the executing worker (0 ≤ w < workers), which
// is what lets MapWith pin one pooled resource per worker. The work
// distribution is a lock-free guided grab: one Add hands a worker the
// next chunk of indices, sized by grabSize. Panics in f are recovered
// item by item and returned (first one wins) so callers can release
// worker resources before re-raising.
func runWorkers(n, workers int, f func(w, i int)) any {
	var (
		wg       sync.WaitGroup
		next     atomic.Int64 // lock-free work-index grab: one Add per chunk
		panicVal any
		panicMu  sync.Mutex
	)
	item := func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicVal == nil {
					panicVal = fmt.Sprintf("parsweep: trial %d panicked: %v", i, r)
				}
				panicMu.Unlock()
			}
		}()
		f(w, i)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				size := grabSize(n-int(next.Load()), workers)
				end := int(next.Add(int64(size)))
				start := end - size
				if start >= n {
					return
				}
				for i := start; i < min(end, n); i++ {
					item(w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	return panicVal
}

// grabSize is the chunk size of a grab when remaining items are left.
// While more than 64 items per worker remain, a grab takes an eighth of
// one worker's share (guided scheduling), so a sweep of tiny items pays
// one atomic Add per chunk instead of one per item. The last 64 items
// per worker, and so every item of a sweep no longer than that (a
// 100-scenario soak sweep, the checker's 4 chunks per worker), go out
// one at a time to balance the tail.
func grabSize(remaining, workers int) int {
	if remaining <= 64*workers {
		return 1
	}
	return remaining / (8 * workers)
}

// Sum runs f(i) in parallel and folds the float64 results.
func Sum(n, workers int, f func(i int) float64) float64 {
	total := 0.0
	for _, v := range Map(n, workers, f) {
		total += v
	}
	return total
}

// Grid is a two-axis sweep: for every (row, col) pair it computes one
// cell, in parallel, and returns the row-major matrix.
func Grid[R any](rows, cols, workers int, f func(r, c int) R) [][]R {
	flat := Map(rows*cols, workers, func(i int) R { return f(i/cols, i%cols) })
	out := make([][]R, rows)
	for r := 0; r < rows; r++ {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out
}
