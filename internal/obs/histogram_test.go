package obs

import (
	"testing"

	"repro/internal/testutil"
)

// TestHistogramBasics covers count/sum and the empty-histogram zeros.
func TestHistogramBasics(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if h.Count() != 0 || !testutil.Close(h.total(), 0) {
		t.Fatal("fresh histogram not zeroed")
	}
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if !testutil.Close(h.total(), 105) {
		t.Fatalf("Sum = %v, want 105", h.total())
	}
	s := h.snapshot()
	want := []uint64{1, 1, 1, 1} // one per bucket incl. +Inf
	for i, c := range want {
		if s.Counts[i] != c {
			t.Fatalf("bucket %d count = %d, want %d", i, s.Counts[i], c)
		}
	}
}

// TestHistogramNilSafe pins the one-branch contract for uninstrumented
// call sites.
func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(3)
	if h.Count() != 0 || !testutil.Close(h.total(), 0) {
		t.Fatal("nil histogram reported non-zero")
	}
	if s := h.snapshot(); s.Count != 0 || len(s.Counts) != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

// TestHistogramConstructorRejectsUnsortedBounds pins the precondition
// panic.
func TestHistogramConstructorRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram accepted non-ascending bounds")
		}
	}()
	newHistogram([]float64{1, 1})
}

// TestDefaultBoundsAreAscending guards the literal tables feeding every
// handle histogram.
func TestDefaultBoundsAreAscending(t *testing.T) {
	for name, b := range map[string][]float64{"latency": latencyBounds(), "size": sizeBounds()} {
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("%s bounds not ascending at %d: %v <= %v", name, i, b[i], b[i-1])
			}
		}
	}
}
