package tensor

import (
	"math/rand"
	"testing"
)

// argTopK returns ArgTopKInto's selection of the k largest values of v.
func argTopK(v []float64, k int) []int {
	idx := make([]int, k)
	ArgTopKInto(idx, v)
	return idx
}

// argTopKRescan is the pre-engine O(k·n) reference implementation,
// preserved verbatim as the oracle for the single-pass version: for every
// input the two must agree exactly, including the lower-index tie-break.
func argTopKRescan(v []float64, k int) []int {
	idx := make([]int, 0, k)
	used := make([]bool, len(v))
	for n := 0; n < k; n++ {
		best := -1
		for i, x := range v {
			if used[i] {
				continue
			}
			if best < 0 || x > v[best] {
				best = i
			}
		}
		used[best] = true
		idx = append(idx, best)
	}
	return idx
}

// TestArgTopKMatchesRescanReference is the property test for the
// single-pass ArgTopK: random vectors drawn from a tiny value set (so
// ties are everywhere) must produce exactly the reference ordering for
// every k from 0 to len(v).
func TestArgTopKMatchesRescanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		v := make([]float64, n)
		for i := range v {
			// Values in {0,1,2,3}: with n up to 24 nearly every trial has
			// repeated values, exercising the tie-break on both the heap
			// insert and the equal-to-minimum skip.
			v[i] = float64(rng.Intn(4))
		}
		for k := 0; k <= n; k++ {
			want := argTopKRescan(v, k)
			got := argTopK(v, k)
			if len(got) != len(want) {
				t.Fatalf("argTopK(%v, %d) = %v, want %v", v, k, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("argTopK(%v, %d) = %v, want %v (diverges at %d)", v, k, got, want, i)
				}
			}
		}
	}
}

// TestArgTopKEdgeCases pins k=0 (empty, non-nil semantics not required —
// just zero length), full-length selection, and the out-of-range panic.
func TestArgTopKEdgeCases(t *testing.T) {
	if got := argTopK([]float64{3, 1, 2}, 0); len(got) != 0 {
		t.Fatalf("argTopK(k=0) = %v, want empty", got)
	}
	got := argTopK([]float64{3, 1, 2}, 3)
	want := []int{0, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgTopK full = %v, want %v", got, want)
		}
	}
	// All-ties: lower indices must win in order.
	got = argTopK([]float64{5, 5, 5, 5}, 2)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("ArgTopK ties = %v, want [0 1]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ArgTopK with k > len(v) did not panic")
		}
	}()
	argTopK([]float64{1}, 2)
}
