package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// SwiGLU is the gated feed-forward network used as the expert architecture
// in Mistral-family MoE models:
//
//	y = W2( silu(W1·x) ⊙ (W3·x) )
//
// with W1, W3 ∈ R^{d×hidden} and W2 ∈ R^{hidden×d}. All three projections
// are Linear layers so LoRA adapters can be attached per the fine-tuning
// configuration.
type SwiGLU struct {
	Name string
	W1   *Linear // gate projection
	W3   *Linear // up projection
	W2   *Linear // down projection

	h1, h3, u *tensor.Tensor
	// sg is σ(h1) from the last Forward, which Backward reads instead of
	// computing it again. It is arena scratch that Backward overwrites in
	// place with the gradient of h1, so it costs no buffer the backward
	// did not already take.
	sg *tensor.Tensor
	// du and dh3 are the gradients of u and h3 while Backward's gate pass
	// runs.
	du, dh3 *tensor.Tensor

	// gateJob and gateBackJob are the gate's forward and backward passes
	// over s's buffers, bound once so a step hands the team no fresh
	// closure.
	gateJob, gateBackJob func(lo, hi int)
}

// NewSwiGLU builds a SwiGLU FFN with the given model width and hidden
// width.
func NewSwiGLU(name string, rng *rand.Rand, d, hidden int, trainable bool) *SwiGLU {
	s := &SwiGLU{
		Name: name,
		W1:   NewLinear(name+".w1", rng, d, hidden, false, trainable),
		W3:   NewLinear(name+".w3", rng, d, hidden, false, trainable),
		W2:   NewLinear(name+".w2", rng, hidden, d, false, trainable),
	}
	s.gateJob = func(lo, hi int) { siluGateRange(s.u.Data, s.sg.Data, s.h1.Data, s.h3.Data, lo, hi) }
	s.gateBackJob = func(lo, hi int) { siluGateBackRange(s.sg.Data, s.dh3.Data, s.du.Data, s.h1.Data, s.h3.Data, lo, hi) }
	return s
}

// Params implements Module.
func (s *SwiGLU) Params() []*Param {
	var ps []*Param
	for _, l := range []*Linear{s.W1, s.W3, s.W2} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Linears returns the three projections, for LoRA attachment.
func (s *SwiGLU) Linears() []*Linear { return []*Linear{s.W1, s.W3, s.W2} }

// Forward computes the SwiGLU transform for x of shape [n, d].
func (s *SwiGLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	s.h1 = s.W1.Forward(x)
	s.h3 = s.W3.Forward(x)
	u := tensor.Ensure(&s.u, s.h1.Rows(), s.h1.Cols())
	tensor.Put(s.sg) // left by a Forward that no Backward followed
	s.sg = tensor.GetDirty(s.h1.Rows(), s.h1.Cols())
	tensor.ParallelRange(len(u.Data), s.gateJob)
	return s.W2.Forward(u)
}

// siluGateRange writes sg[i] = σ(h1[i]) = 1/(1+math.Exp(−h1[i])) and
// u[i] = silu(h1[i]) · h3[i] for i in [lo, hi). tensor.Sigmoid computes σ
// eight lanes at a time where it can, bit for bit the scalar expression.
func siluGateRange(u, sg, h1, h3 []float64, lo, hi int) {
	tensor.Sigmoid(sg[lo:hi], h1[lo:hi])
	for i := lo; i < hi; i++ {
		u[i] = h1[i] * sg[i] * h3[i]
	}
}

// Backward propagates dy and returns dx, accumulating gradients in the
// three projections.
func (s *SwiGLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if s.h1 == nil {
		panic("nn: SwiGLU Backward called before Forward")
	}
	s.du = s.W2.Backward(dy)
	// σ(h1) in s.sg is overwritten with the gradient of h1.
	dh1, dh3 := s.sg, tensor.GetDirty(s.h3.Rows(), s.h3.Cols())
	s.dh3 = dh3
	tensor.ParallelRange(len(s.du.Data), s.gateBackJob)
	s.sg, s.du, s.dh3 = nil, nil, nil
	dx := s.W1.Backward(dh1)
	dx.AddInPlace(s.W3.Backward(dh3))
	tensor.Put(dh1)
	tensor.Put(dh3)
	// s.u stays: it is step-persistent scratch (tensor.Ensure), and
	// nil-ing it here would force Forward to reallocate it every step.
	s.h1, s.h3 = nil, nil
	return dx
}

// siluGateBackRange writes the gate gradients for i in [lo, hi):
// d3[i] = du[i]·silu(h1[i]) and d1[i] = du[i]·h3[i]·silu'(h1[i]),
// with d silu/dz = σ(z)·(1 + z·(1−σ(z))). On entry d1[i] holds the
// forward's σ(h1[i]).
func siluGateBackRange(d1, d3, du, h1, h3 []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		z, sg := h1[i], d1[i]
		silu := z * sg
		dsilu := sg * (1 + z*(1-sg))
		d3[i] = du[i] * silu
		d1[i] = du[i] * h3[i] * dsilu
	}
}
