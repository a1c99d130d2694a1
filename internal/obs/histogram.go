package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket, lock-free histogram: bucket counts are
// atomic counters, so Observe is wait-free apart from one CAS loop on the
// running sum, allocates nothing, and is safe for concurrent use. Two
// histograms with identical bounds merge by adding counts, which makes
// per-shard recording + scrape-time merging exact (merging is associative
// and commutative; the property tests pin this).
//
// All methods are nil-receiver-safe: a nil Histogram discards
// observations and reports zeros, so uninstrumented call sites pay one
// branch.
type Histogram struct {
	// bounds are the ascending inclusive upper bounds of the finite
	// buckets; an implicit +Inf bucket catches the rest.
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, accumulated via CAS
}

// newHistogram builds a histogram over the given ascending upper bounds.
// The bounds slice is not copied; callers hand over ownership.
func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// latencyBounds is the default latency bucket table: 1µs to 30s in a
// roughly 1-2.5-5 progression (seconds).
func latencyBounds() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30,
	}
}

// sizeBounds is the default message-size bucket table: 64 B to 256 MiB in
// powers of four (bytes).
func sizeBounds() []float64 {
	b := make([]float64, 0, 12)
	for v := 64.0; v <= 256*1024*1024; v *= 4 {
		b = append(b, v)
	}
	return b
}

// bucketOf returns the index of the bucket v falls in (binary search over
// the upper bounds; the last index is the +Inf bucket).
func (h *Histogram) bucketOf(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one value. Safe for concurrent use; never allocates.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// total returns the sum of all observed values.
func (h *Histogram) total() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramSnapshot is a point-in-time copy of a histogram for export.
type HistogramSnapshot struct {
	Bounds []float64 // finite upper bounds
	Counts []uint64  // per-bucket counts; last entry is the +Inf bucket
	Count  uint64
	Sum    float64
}

// snapshot copies the histogram state. The counters are loaded
// individually, so a snapshot taken concurrently with Observe is
// internally consistent only up to per-counter atomicity — fine for
// scrapes, which tolerate a sample of skew.
func (h *Histogram) snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.total(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
