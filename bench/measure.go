package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest percentile with at least ten samples
// beyond it: 1 − 10/n, or 0 when there are fewer than 20 samples.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0
	}
	return 1 - 10/float64(n)
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// timeRep runs one repetition after a forced collection, so garbage left
// by the previous repetition is not collected on this one's clock.
func timeRep(f func()) float64 {
	runtime.GC()
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// repeatFor runs rep until budget is spent: at least minReps times, then
// only while the median repetition so far still fits in the remaining
// budget. It returns each repetition's wall time in seconds.
func repeatFor(budget time.Duration, minReps int, rep func() float64) []float64 {
	start := time.Now()
	var times []float64
	for {
		if len(times) >= minReps {
			left := budget - time.Since(start)
			if left <= 0 || time.Duration(median(times)*float64(time.Second)) > left {
				return times
			}
		}
		times = append(times, rep())
	}
}

// sweepClock times the items of one parallel sweep from outside: each
// item's start and end, and the sweep's wall interval. From them come the
// busy ratio (Σ item time ÷ workers × wall) and the tail (wall time after
// the first worker went idle).
type sweepClock struct {
	workers int
	begin   time.Time
	wall    time.Duration

	mu    sync.Mutex
	items []itemTime
}

type itemTime struct {
	index      int
	start, end time.Duration
}

func newSweepClock(workers int) *sweepClock {
	return &sweepClock{workers: workers, begin: time.Now()}
}

// item records item i as running from start until now.
func (c *sweepClock) item(i int, start time.Time) {
	it := itemTime{index: i, start: start.Sub(c.begin), end: time.Since(c.begin)}
	c.mu.Lock()
	c.items = append(c.items, it)
	c.mu.Unlock()
}

// done closes the sweep's wall interval.
func (c *sweepClock) done() { c.wall = time.Since(c.begin) }

// busy returns Σ item time and workers × wall, in seconds.
func (c *sweepClock) busy() (itemSum, capacity float64) {
	for _, it := range c.items {
		itemSum += (it.end - it.start).Seconds()
	}
	w := c.workers
	if w > len(c.items) {
		w = len(c.items)
	}
	return itemSum, float64(w) * c.wall.Seconds()
}

// tail returns the wall time after the first worker went idle. Workers
// take items in index order, so every index has been taken once the last
// item starts; the first item to end after that moment frees a worker
// that finds nothing left to do.
func (c *sweepClock) tail() float64 {
	if len(c.items) == 0 {
		return 0
	}
	last := c.items[0]
	for _, it := range c.items {
		if it.index > last.index {
			last = it
		}
	}
	firstIdle := c.wall
	for _, it := range c.items {
		if it.end > last.start && it.end < firstIdle {
			firstIdle = it.end
		}
	}
	return (c.wall - firstIdle).Seconds()
}
