package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// TestLayersBitIdenticalUnderParallelism is the nn-level integration
// check of the engine's determinism guarantee (run under -race in CI):
// with every kernel forced onto the team, and attention's (b, h) grid
// fanned out, full layer forward+backward must reproduce the serial
// results — outputs, input gradients and weight gradients — bit for bit
// at every degree.
func TestLayersBitIdenticalUnderParallelism(t *testing.T) {
	const batch, seqLen = 2, 32
	run := func(degree int) map[string]*tensor.Tensor {
		old := tensor.Parallelism()
		oldThr := tensor.ParallelThreshold()
		tensor.SetParallelism(degree)
		tensor.SetParallelThreshold(1)
		defer func() {
			tensor.SetParallelism(old)
			tensor.SetParallelThreshold(oldThr)
		}()
		rng := rand.New(rand.NewSource(11))
		l := NewLinear("l", rng, 48, 48, true, true)
		s := NewSwiGLU("s", rng, 48, 96, true)
		a := NewAttention("a", rng, 48, 4, true)
		x := tensor.Randn(rng, 1, batch*seqLen, 48)
		dy := tensor.Randn(rng, 1, batch*seqLen, 48)
		out := map[string]*tensor.Tensor{
			"Linear.Forward":     l.Forward(x).Clone(),
			"Linear.Backward":    l.Backward(dy).Clone(),
			"SwiGLU.Forward":     s.Forward(x).Clone(),
			"SwiGLU.Backward":    s.Backward(dy).Clone(),
			"Attention.Forward":  a.Forward(x, batch, seqLen).Clone(),
			"Attention.Backward": a.Backward(dy).Clone(),
		}
		for _, p := range a.Params() {
			out["Attention grad "+p.Name] = p.Grad.Clone()
		}
		return out
	}

	want := run(1)
	for _, degree := range []int{2, 3, 8} {
		for name, got := range run(degree) {
			if !testutil.BitEqualSlices(want[name].Data, got.Data) {
				t.Errorf("%s: degree-%d result is not bit-identical to serial", name, degree)
			}
		}
	}
}
