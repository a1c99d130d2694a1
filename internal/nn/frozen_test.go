package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// TestFrozenLinearPanelsFollowTrainability: a Linear packs its frozen W
// once per orientation and drops the panels when a Forward finds W
// trainable. Freeze, unfreeze and take an optimizer step, refreeze: every
// output and gradient must equal a fresh Linear's holding the same values.
func TestFrozenLinearPanelsFollowTrainability(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLinear("l", rng, 24, 40, false, true)
	l.AttachLoRA(rng, 4, 8)
	for i := range l.LoRA.B.Value.Data {
		l.LoRA.B.Value.Data[i] = 0.3 * rng.NormFloat64()
	}
	x, dy := tensor.Randn(rng, 1, 9, 24), tensor.Randn(rng, 1, 9, 40)
	check := func(stage string) {
		t.Helper()
		want := NewLinear("w", nil, 24, 40, false, true)
		want.AttachLoRA(nil, 4, 8)
		for i, p := range l.Params() {
			copy(want.Params()[i].Value.Data, p.Value.Data)
		}
		ZeroGrads(l.Params())
		y, dx := l.Forward(x).Clone(), l.Backward(dy).Clone()
		wy, wdx := want.Forward(x), want.Backward(dy)
		if !testutil.BitEqualSlices(wy.Data, y.Data) || !testutil.BitEqualSlices(wdx.Data, dx.Data) {
			t.Fatalf("%s: output or input gradient differs from a fresh Linear's", stage)
		}
		for _, pair := range [][2]*Param{{l.LoRA.A, want.LoRA.A}, {l.LoRA.B, want.LoRA.B}} {
			if !testutil.BitEqualSlices(pair[1].Grad.Data, pair[0].Grad.Data) {
				t.Fatalf("%s: %s gradient differs from a fresh Linear's", stage, pair[0].Name)
			}
		}
	}
	check("frozen, panels packed")
	check("frozen, panels reused")
	l.W.Trainable, l.W.Grad = true, tensor.Zeros(24, 40)
	l.Forward(x)
	l.Backward(dy)
	NewSGD([]*Param{l.W}, 0.1).Step()
	l.W.Freeze()
	check("refrozen after a step")
}

// TestSwiGLUReusesForwardSigmoid: Backward reads the σ(h1) its Forward
// kept; outputs, input gradients and LoRA gradients equal those of a copy
// that computes σ afresh in the backward, bit for bit, over two steps.
func TestSwiGLUReusesForwardSigmoid(t *testing.T) {
	build := func() *SwiGLU {
		rng := rand.New(rand.NewSource(13))
		s := NewSwiGLU("s", rng, 16, 40, false)
		for _, l := range s.Linears() {
			l.AttachLoRA(rng, 4, 8)
			for i := range l.LoRA.B.Value.Data {
				l.LoRA.B.Value.Data[i] = 0.1 * rng.NormFloat64()
			}
		}
		return s
	}
	s, ref := build(), build()
	rng := rand.New(rand.NewSource(14))
	for step := 0; step < 2; step++ {
		x, dy := tensor.Randn(rng, 1, 11, 16), tensor.Randn(rng, 1, 11, 16)
		ZeroGrads(s.Params())
		ZeroGrads(ref.Params())
		y, dx := s.Forward(x).Clone(), s.Backward(dy).Clone()
		wy, wdx := swigluRecomputingSigmoid(ref, x, dy)
		if !testutil.BitEqualSlices(wy.Data, y.Data) || !testutil.BitEqualSlices(wdx.Data, dx.Data) {
			t.Fatalf("step %d: output or input gradient differs from the recomputing copy", step)
		}
		for i, p := range s.Params() {
			if p.Trainable && !testutil.BitEqualSlices(ref.Params()[i].Grad.Data, p.Grad.Data) {
				t.Fatalf("step %d: %s gradient differs from the recomputing copy", step, p.Name)
			}
		}
	}
}

// sigmoid is σ as SwiGLU defines it, one element at a time.
func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// swigluRecomputingSigmoid is SwiGLU's forward and backward through s's
// projections with σ(h1) computed afresh in the backward.
func swigluRecomputingSigmoid(s *SwiGLU, x, dy *tensor.Tensor) (y, dx *tensor.Tensor) {
	h1, h3 := s.W1.Forward(x), s.W3.Forward(x)
	u := tensor.Zeros(h1.Rows(), h1.Cols())
	for i, z := range h1.Data {
		u.Data[i] = z * sigmoid(z) * h3.Data[i]
	}
	y = s.W2.Forward(u).Clone()
	du := s.W2.Backward(dy)
	d1, d3 := tensor.Zeros(h1.Rows(), h1.Cols()), tensor.Zeros(h1.Rows(), h1.Cols())
	for i, z := range h1.Data {
		sg := sigmoid(z)
		silu, dsilu := z*sg, sg*(1+z*(1-sg))
		d3.Data[i] = du.Data[i] * silu
		d1.Data[i] = du.Data[i] * h3.Data[i] * dsilu
	}
	dx = s.W1.Backward(d1)
	dx.AddInPlace(s.W3.Backward(d3))
	return y, dx.Clone()
}

// TestBackwardParamsMatchesBackward: Linear.BackwardParams and
// Attention.BackwardParams accumulate every parameter gradient that
// Backward does, bit for bit — trainable and frozen base weights, with
// and without a bias and an adapter, over two steps so the frozen panels
// are both packed and reused.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	withLoRA := func(rng *rand.Rand, ls ...*Linear) {
		for _, l := range ls {
			l.AttachLoRA(rng, 4, 8)
			for i := range l.LoRA.B.Value.Data {
				l.LoRA.B.Value.Data[i] = 0.3 * rng.NormFloat64()
			}
		}
	}
	linear := func(bias, lora, trainable bool) func() Module {
		return func() Module {
			rng := rand.New(rand.NewSource(15))
			l := NewLinear("l", rng, 24, 40, bias, trainable)
			if lora {
				withLoRA(rng, l)
			}
			return l
		}
	}
	attention := func(lora bool) func() Module {
		return func() Module {
			rng := rand.New(rand.NewSource(16))
			a := NewAttention("a", rng, 24, 3, true)
			if lora {
				withLoRA(rng, a.Linears()...)
			}
			return a
		}
	}
	// step runs a Forward on x (two sequences of four tokens) and then
	// Backward, or BackwardParams, on dy.
	step := func(m Module, x, dy *tensor.Tensor, paramsOnly bool) {
		switch m := m.(type) {
		case *Linear:
			m.Forward(x)
			if paramsOnly {
				m.BackwardParams(dy)
			} else {
				m.Backward(dy)
			}
		case *Attention:
			m.Forward(x, 2, 4)
			if paramsOnly {
				m.BackwardParams(dy)
			} else {
				m.Backward(dy)
			}
		}
	}
	for _, c := range []struct {
		name  string
		out   int
		build func() Module
	}{
		{"linear", 40, linear(false, false, true)},
		{"linear+bias", 40, linear(true, false, true)},
		{"linear+lora", 40, linear(false, true, false)},
		{"linear+bias+lora", 40, linear(true, true, false)},
		{"attention", 24, attention(false)},
		{"attention+lora", 24, attention(true)},
	} {
		full, params := c.build(), c.build()
		rng := rand.New(rand.NewSource(17))
		for s := 0; s < 2; s++ {
			x, dy := tensor.Randn(rng, 1, 8, 24), tensor.Randn(rng, 1, 8, c.out)
			ZeroGrads(full.Params())
			ZeroGrads(params.Params())
			step(full, x, dy, false)
			step(params, x, dy, true)
			for i, p := range params.Params() {
				if p.Trainable && !testutil.BitEqualSlices(full.Params()[i].Grad.Data, p.Grad.Data) {
					t.Fatalf("%s, step %d: %s gradient differs from Backward's", c.name, s, p.Name)
				}
			}
		}
	}
}
