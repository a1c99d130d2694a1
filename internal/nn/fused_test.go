package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// crossEntropyFresh is CrossEntropy as it was before its buffers became
// step-persistent: a fresh zeroed gradient and probability row per call,
// the loss accumulated row by row. The reference for
// TestLossMatchesFreshBuffers.
func crossEntropyFresh(logits *tensor.Tensor, targets []int) (loss float64, dlogits *tensor.Tensor) {
	n, v := logits.Rows(), logits.Cols()
	dlogits = tensor.Zeros(n, v)
	probs := make([]float64, v)
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		tensor.SoftmaxInto(probs, logits.Row(i))
		tgt := targets[i]
		p := probs[tgt]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p) * inv
		dr := dlogits.Row(i)
		for j := 0; j < v; j++ {
			dr[j] = probs[j] * inv
		}
		dr[tgt] -= inv
	}
	return loss, dlogits
}

// forEachDegree runs f at parallelism 1 and 2 with every row pass forced
// onto the team.
func forEachDegree(t *testing.T, f func(degree int)) {
	oldDeg, oldThr := tensor.Parallelism(), tensor.ParallelThreshold()
	t.Cleanup(func() {
		tensor.SetParallelism(oldDeg)
		tensor.SetParallelThreshold(oldThr)
	})
	tensor.SetParallelThreshold(1)
	for _, degree := range []int{1, 2} {
		tensor.SetParallelism(degree)
		f(degree)
	}
}

// TestLossMatchesFreshBuffers: Loss.CrossEntropy, its rows side by side
// into reused buffers, gives the fresh-buffer loss and gradient bit for
// bit, through shapes that shrink and grow the buffers and a logit row so
// negative that its target's probability is clamped.
func TestLossMatchesFreshBuffers(t *testing.T) {
	forEachDegree(t, func(degree int) {
		l := NewLoss()
		rng := rand.New(rand.NewSource(5))
		for _, shape := range [][2]int{{128, 96}, {5, 96}, {33, 7}, {1, 3}, {130, 96}} {
			n, v := shape[0], shape[1]
			logits := tensor.Randn(rng, 4, n, v)
			targets := make([]int, n)
			for i := range targets {
				targets[i] = rng.Intn(v)
			}
			logits.Set(-1e4, 0, targets[0])
			want, wd := crossEntropyFresh(logits, targets)
			got, gd := l.CrossEntropy(logits, targets)
			if !testutil.BitEqual(want, got) || !testutil.BitEqualSlices(wd.Data, gd.Data) {
				t.Errorf("degree %d, %d×%d: loss %v (gradient equal: %v), fresh buffers give %v",
					degree, n, v, got, testutil.BitEqualSlices(wd.Data, gd.Data), want)
			}
		}
	})
}

// TestAddForwardMatchesAddThenNorm: RMSNorm.AddForward writes the sum
// a.AddInto(b, sum) writes and returns what Forward(sum) returns; its
// Backward — reading the cached sum — gives the same input and gain
// gradients; and BackwardAdd lands acc.AddInPlace(Backward(dy)), bit for
// bit.
func TestAddForwardMatchesAddThenNorm(t *testing.T) {
	forEachDegree(t, func(degree int) {
		for _, shape := range [][2]int{{1, 8}, {5, 16}, {128, 128}} {
			rows, d := shape[0], shape[1]
			rng := rand.New(rand.NewSource(int64(rows + d)))
			build := func() *RMSNorm {
				n := NewRMSNorm("n", d, true)
				n.Gain.Value = tensor.Randn(rand.New(rand.NewSource(int64(d))), 1, d)
				return n
			}
			fused, ref := build(), build()
			for pass := 0; pass < 2; pass++ {
				a, b, dy := tensor.Randn(rng, 1, rows, d), tensor.Randn(rng, 1, rows, d), tensor.Randn(rng, 1, rows, d)
				sum, wsum := tensor.Zeros(rows, d), a.Clone().AddInPlace(b)
				y := fused.AddForward(a, b, sum).Clone()
				wy := ref.Forward(wsum)
				var dx, wdx *tensor.Tensor
				if pass == 0 {
					dx, wdx = fused.Backward(dy).Clone(), ref.Backward(dy)
				} else {
					acc := tensor.Randn(rng, 1, rows, d)
					wdx = acc.Clone().AddInPlace(ref.Backward(dy))
					dx = fused.BackwardAdd(dy, acc)
				}
				name := fmt.Sprintf("degree %d, %d×%d, pass %d", degree, rows, d, pass)
				for _, c := range []struct {
					what      string
					want, got *tensor.Tensor
				}{{"sum", wsum, sum}, {"y", wy, y}, {"dx", wdx, dx}, {"gain grad", ref.Gain.Grad, fused.Gain.Grad}} {
					if n := mismatches(c.want.Data, c.got.Data); n > 0 {
						t.Errorf("%s: %s has %d of %d elements off the add-then-norm bits", name, c.what, n, len(c.want.Data))
					}
				}
			}
		}
	})
}
