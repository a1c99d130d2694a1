package tensor

import (
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// TestGEMMPackedBitIdentical: GEMM given a Panels reads the panels it
// packs per call without one, for B as it lies and transposed, so it
// produces the packing path's bits on the row-packed path's edges, at degrees 1/2/3,
// into a dirty destination — whether this call packed the panels or an
// earlier one did — with every tile body the CPU can run, on single,
// paired and odd-count panels.
func TestGEMMPackedBitIdentical(t *testing.T) {
	forceParallel(t, 1)
	forEachTile(func(body tileBody) { checkPacked(t, body) })
}

func checkPacked(t *testing.T, body tileBody) {
	for _, f := range gemmFills {
		for _, n := range []int{1, 3, 4, 5, 32} {
			for _, k := range []int{1, 8, 352} {
				for _, m := range []int{1, 7, 8, 9, 16, 17, 24, 128} {
					rng := rand.New(rand.NewSource(int64(n*1_000_003 + k*1_009 + m)))
					a, b, bt := Zeros(n, k), Zeros(k, m), Zeros(m, k)
					for _, x := range []*Tensor{a, b, bt} {
						f.fill(rng, x)
					}
					SetParallelism(1)
					wantMM, wantMT := mm(a, b, false, false), mm(a, bt, false, true)
					var pk, pkT Panels
					got := Zeros(n, m)
					for _, degree := range []int{1, 2, 3} {
						SetParallelism(degree)
						fillNaN(got)
						if GEMM(got, a, b, false, false, 1, false, &pk); !testutil.BitEqualSlices(wantMM.Data, got.Data) {
							t.Errorf("packed b %dx%dx%d %s, %s body at degree %d: not the packing path's bits", n, k, m, f.name, body, degree)
						}
						fillNaN(got)
						if GEMM(got, a, bt, false, true, 1, false, &pkT); !testutil.BitEqualSlices(wantMT.Data, got.Data) {
							t.Errorf("packed btᵀ %dx%dx%d %s, %s body at degree %d: not the packing path's bits", n, k, m, f.name, body, degree)
						}
					}
				}
			}
		}
	}
}

// TestPanelsRepackForAnotherOperand: one Panels handed another tensor, or
// the same square tensor in the other orientation, repacks instead of
// serving stale panels.
func TestPanelsRepackForAnotherOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, w1, w2 := Randn(rng, 1, 6, 16), Randn(rng, 1, 16, 16), Randn(rng, 1, 16, 16)
	var pk Panels
	got := Zeros(6, 16)
	for _, c := range []struct {
		name string
		want *Tensor
		run  func()
	}{
		{"w1", mm(a, w1, false, false), func() { GEMM(got, a, w1, false, false, 1, false, &pk) }},
		{"w2", mm(a, w2, false, false), func() { GEMM(got, a, w2, false, false, 1, false, &pk) }},
		{"w2ᵀ", mm(a, w2, false, true), func() { GEMM(got, a, w2, false, true, 1, false, &pk) }},
		{"w2 again", mm(a, w2, false, false), func() { GEMM(got, a, w2, false, false, 1, false, &pk) }},
	} {
		c.run()
		assertBits(t, c.name, c.want.Data, got.Data)
	}
}
