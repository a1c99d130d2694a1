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

// NewHistogram builds a histogram over the given ascending upper bounds.
// The bounds slice is not copied; callers hand over ownership.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// LatencyBounds is the default latency bucket table: 1µs to 30s in a
// roughly 1-2.5-5 progression (seconds).
func LatencyBounds() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30,
	}
}

// SizeBounds is the default message-size bucket table: 64 B to 256 MiB in
// powers of four (bytes).
func SizeBounds() []float64 {
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

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Merge adds o's counts into h. Both histograms must share identical
// bounds (the canonical use is merging shards built from the same bucket
// table). Merging is associative: (a+b)+c == a+(b+c) exactly, because
// bucket counts are integers.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	if len(h.counts) != len(o.counts) {
		panic("obs: merging histograms with different bucket tables")
	}
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + o.Sum())
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the bucket where the cumulative count crosses q·N. The estimate
// is always within the bounds of the bucket holding the exact quantile,
// which is the guarantee the property tests assert. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				// +Inf bucket: the upper edge is unbounded; report its
				// lower edge (the largest finite bound).
				return lo
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is a point-in-time copy of a histogram for export.
type HistogramSnapshot struct {
	Bounds []float64 // finite upper bounds
	Counts []uint64  // per-bucket counts; last entry is the +Inf bucket
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram state. The counters are loaded
// individually, so a snapshot taken concurrently with Observe is
// internally consistent only up to per-counter atomicity — fine for
// scrapes, which tolerate a sample of skew.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
