package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// TestGEMMPackedBitIdentical: MatMulPackedInto and MatMulTPackedInto read
// the panels MatMulInto and MatMulTInto pack per call, so they produce the
// packing path's bits on the row-packed path's edges, at degrees 1/2/3,
// into a dirty destination — whether this call packed the panels or an
// earlier one did. Run under -tags purego it proves the same of the
// portable body.
func TestGEMMPackedBitIdentical(t *testing.T) {
	forceParallel(t, 1)
	for _, f := range gemmFills {
		for _, n := range []int{1, 3, 4, 5, 32} {
			for _, k := range []int{1, 8, 352} {
				for _, m := range []int{1, 7, 8, 9, 128} {
					rng := rand.New(rand.NewSource(int64(n*1_000_003 + k*1_009 + m)))
					a, b, bt := Zeros(n, k), Zeros(k, m), Zeros(m, k)
					for _, x := range []*Tensor{a, b, bt} {
						f.fill(rng, x)
					}
					SetParallelism(1)
					wantMM, wantMT := a.MatMul(b), a.MatMulT(bt)
					var pk, pkT Panels
					got := Zeros(n, m)
					for _, degree := range []int{1, 2, 3} {
						SetParallelism(degree)
						got.Fill(math.NaN())
						if a.MatMulPackedInto(b, &pk, got); !testutil.BitEqualSlices(wantMM.Data, got.Data) {
							t.Errorf("MatMulPacked %dx%dx%d %s at degree %d: not the packing path's bits", n, k, m, f.name, degree)
						}
						got.Fill(math.NaN())
						if a.MatMulTPackedInto(bt, &pkT, got); !testutil.BitEqualSlices(wantMT.Data, got.Data) {
							t.Errorf("MatMulTPacked %dx%dx%d %s at degree %d: not the packing path's bits", n, k, m, f.name, degree)
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
		{"w1", a.MatMul(w1), func() { a.MatMulPackedInto(w1, &pk, got) }},
		{"w2", a.MatMul(w2), func() { a.MatMulPackedInto(w2, &pk, got) }},
		{"w2ᵀ", a.MatMulT(w2), func() { a.MatMulTPackedInto(w2, &pk, got) }},
		{"w2 again", a.MatMul(w2), func() { a.MatMulPackedInto(w2, &pk, got) }},
	} {
		c.run()
		assertBits(t, c.name, c.want.Data, got.Data)
	}
}
