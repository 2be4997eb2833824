package obs

import (
	"math/bits"
	"sync/atomic"
)

// Buckets is the number of histogram buckets. Bucket i counts samples v
// with upper bound 2^i − 1 (bucket 0 holds v ≤ 0, the last bucket is a
// catch-all), so 40 buckets cover half a trillion — enough for step
// counts of any checkable instance and microsecond latencies of any
// realistic run.
const Buckets = 40

// Histogram is a fixed-bucket power-of-two histogram over int64 samples.
// Observe is one atomic add per sample plus two for the running count and
// sum; all methods are safe for concurrent use. The zero value is ready.
type Histogram struct {
	buckets [Buckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketOf maps a sample to its bucket index: 0 for v ≤ 0, otherwise
// bits.Len64(v) capped at the last bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= Buckets {
		return Buckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound of bucket i (2^i − 1).
func BucketBound(i int) int64 {
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1<<uint(i) - 1
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// merge adds src's samples to h.
func (h *Histogram) merge(src *Histogram) {
	for i := range h.buckets {
		Add(&h.buckets[i], src.buckets[i].Load())
	}
	Add(&h.count, src.count.Load())
	Add(&h.sum, src.sum.Load())
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot returns the per-bucket counts. The snapshot is not an atomic
// cut across buckets — concurrent Observes may straddle it — but each
// bucket value is itself consistent, which is all a monitoring scrape
// needs.
func (h *Histogram) Snapshot() [Buckets]int64 {
	var out [Buckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}
