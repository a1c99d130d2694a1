package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// product is op(a)·op(b) into a fresh tensor, op transposing an operand
// whose flag is set.
func product(a, b *tensor.Tensor, aT, bT bool) *tensor.Tensor {
	n, m := a.Rows(), b.Cols()
	if aT {
		n = a.Cols()
	}
	if bT {
		m = b.Rows()
	}
	return tensor.GEMM(tensor.Zeros(n, m), a, b, aT, bT, 1, false, nil)
}

// twoPassForward is Linear.Forward as it was before its adapter products
// landed in place: every adapter term is a product into scratch and then
// a second pass over it (axpy). It is the reference the in-place
// products must match bit for bit. It returns y and the cached x·A.
func twoPassForward(l *Linear, x *tensor.Tensor) (y, xa *tensor.Tensor) {
	y = product(x, l.W.Value, false, false)
	if l.Bias != nil {
		y.AddRowInPlace(l.Bias.Value)
	}
	lr := l.LoRA
	xa = product(x, lr.A.Value, false, false)
	axpy(y, lr.Scale, product(xa, lr.B.Value, false, false))
	return y, xa
}

// axpy is the second pass, c[i] += alpha*s[i]: the GEMM epilogue's
// accumulate expression token for token. It returns c.
func axpy(c *tensor.Tensor, alpha float64, s *tensor.Tensor) *tensor.Tensor {
	for i := range c.Data {
		c.Data[i] += alpha * s.Data[i]
	}
	return c
}

// twoPassBackward is Linear.Backward in the same two-pass form: the
// gradients accumulate through AddInPlace and axpy, d(xa) is
// scaled by ScaleInPlace, and dx is dy·Wᵀ plus d(xa)·Aᵀ in that order.
func twoPassBackward(l *Linear, x, xa, dy *tensor.Tensor) (dx *tensor.Tensor) {
	if l.W.Trainable {
		l.W.Grad.AddInPlace(product(x, dy, true, false))
	}
	if l.Bias != nil && l.Bias.Trainable {
		dy.SumRowsInto(l.Bias.Grad)
	}
	lr := l.LoRA
	dxa := product(dy, lr.B.Value, false, true).ScaleInPlace(lr.Scale)
	axpy(lr.B.Grad, lr.Scale, product(xa, dy, true, false))
	lr.A.Grad.AddInPlace(product(x, dxa, true, false))
	dx = product(dy, l.W.Value, false, true)
	return dx.AddInPlace(product(dxa, lr.A.Value, false, true))
}

// mismatches counts the elements of got whose bits differ from want's.
func mismatches(want, got []float64) int {
	n := 0
	for i := range want {
		if !testutil.BitEqual(want[i], got[i]) {
			n++
		}
	}
	return n
}

// TestAdapterMatchesTwoPassSequence: the adapter's products land y, dx,
// A.Grad and B.Grad bit for bit as the two-pass sequence does, over two
// accumulating forward/backward passes, at every geometry the GEMM
// driver treats apart — fewer rows than a tile, ragged last row tiles,
// ranks below and at a panel's eight columns (r ∈ {1, 3, 8}), ragged and
// paired panels, B read in place and packed — with every tile body, at
// parallelism 1 and 2 with every kernel forced to split. At r = 3 the
// base weight is trainable and has a bias, so W.Grad accumulates too; its
// scale 16/3 rounds the epilogue's multiply, so a fused epilogue shows.
func TestAdapterMatchesTwoPassSequence(t *testing.T) {
	rowsSet, dims := []int{1, 3, 4, 5, 8, 17, 32, 33}, []int{8, 12, 128, 352}
	if testing.Short() || testutil.RaceEnabled {
		rowsSet, dims = []int{1, 5, 32}, []int{8, 12, 128}
	}
	oldDeg, oldThr := tensor.Parallelism(), tensor.ParallelThreshold()
	t.Cleanup(func() {
		tensor.SetParallelism(oldDeg)
		tensor.SetParallelThreshold(oldThr)
	})
	tensor.SetParallelThreshold(1)
	tensor.ForEachTileBody(func(body string) {
		for _, degree := range []int{1, 2} {
			tensor.SetParallelism(degree)
			for _, r := range []int{1, 3, 8} {
				for _, in := range dims {
					for _, out := range dims {
						for _, rows := range rowsSet {
							name := fmt.Sprintf("%s body, degree %d, r=%d, %dx%d→%d", body, degree, r, rows, in, out)
							checkAdapter(t, name, rows, in, out, r)
						}
					}
				}
			}
		}
	})
}

func checkAdapter(t *testing.T, name string, rows, in, out, r int) {
	t.Helper()
	build := func() *Linear {
		rng := rand.New(rand.NewSource(int64(rows*7919 + in*31 + out + r)))
		l := NewLinear("l", rng, in, out, r == 3, true)
		l.AttachLoRA(rng, r, 16)
		l.LoRA.B.Value = tensor.Randn(rng, 0.5, r, out)
		if r == 3 {
			l.W.Trainable, l.W.Grad = true, tensor.Zeros(in, out)
			l.Bias.Value = tensor.Randn(rng, 1, out)
		}
		return l
	}
	l, ref := build(), build()
	rng := rand.New(rand.NewSource(int64(rows)))
	for pass := 0; pass < 2; pass++ {
		x, dy := tensor.Randn(rng, 1, rows, in), tensor.Randn(rng, 1, rows, out)
		y := l.Forward(x).Clone()
		dx := l.Backward(dy)
		wy, xa := twoPassForward(ref, x)
		wdx := twoPassBackward(ref, x, xa, dy)
		for _, c := range []struct {
			what      string
			want, got *tensor.Tensor
		}{
			{"y", wy, y}, {"dx", wdx, dx},
			{"A.Grad", ref.LoRA.A.Grad, l.LoRA.A.Grad}, {"B.Grad", ref.LoRA.B.Grad, l.LoRA.B.Grad},
			{"W.Grad", ref.W.Grad, l.W.Grad},
		} {
			if c.want == nil {
				continue
			}
			if n := mismatches(c.want.Data, c.got.Data); n > 0 {
				t.Errorf("%s, pass %d: %s has %d of %d elements off the two-pass sequence's bits", name, pass, c.what, n, len(c.want.Data))
			}
		}
	}
}
