package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// LoRA is a low-rank adapter (Hu et al., 2021) attached to a Linear layer:
// the effective weight becomes W + (α/r)·A·B with A ∈ R^{in×r},
// B ∈ R^{r×out}. Only A and B are trainable; B starts at zero so the
// adapter is a no-op at initialization, exactly as in the paper's LoRA
// fine-tuning setup (r=8, α=16).
type LoRA struct {
	A     *Param
	B     *Param
	Scale float64 // α/r

	xa *tensor.Tensor // cached x@A from the last Forward
}

// Linear is a dense layer y = x@W (+ bias) with an optional LoRA adapter.
// When the adapter is present the base weight W is typically frozen and
// only A/B receive gradients — the parameter-efficient fine-tuning regime
// the paper evaluates.
type Linear struct {
	Name string
	W    *Param // [in, out]
	Bias *Param // [out] or nil
	LoRA *LoRA  // nil when no adapter is attached

	in, out int
	x       *tensor.Tensor // cached input from the last Forward

	// Step-persistent scratch: the output and input-gradient buffers are
	// reused across steps (tensor.Ensure), so a steady-state
	// Forward+Backward pass allocates nothing. Callers that need a result
	// to survive this layer's next Forward/Backward must Clone it.
	y, dx *tensor.Tensor

	// The packed panels of a frozen W, one per orientation: x·W for
	// Forward, dy·Wᵀ for Backward. Each is built by the first product that
	// needs it and dropped by any Forward that finds W trainable, so they
	// rely on Param.Trainable's contract that a frozen value does not
	// change while frozen.
	wPanels, wTPanels tensor.Panels
}

// initWeight draws an [in, cols] matrix from N(0, 1/in), or — under a nil
// rng, for a caller about to load the values — draws nothing and leaves
// it zero.
func initWeight(rng *rand.Rand, in, cols int) *tensor.Tensor {
	if rng == nil {
		return tensor.Zeros(in, cols)
	}
	return tensor.Randn(rng, 1/math.Sqrt(float64(in)), in, cols)
}

// NewLinear constructs a Linear layer with Kaiming-style N(0, 1/in)
// initialization (see initWeight for a nil rng). bias controls whether an
// additive bias is allocated.
func NewLinear(name string, rng *rand.Rand, in, out int, bias, trainable bool) *Linear {
	l := &Linear{
		Name: name,
		W:    NewParam(name+".W", initWeight(rng, in, out), trainable),
		in:   in,
		out:  out,
	}
	if bias {
		l.Bias = NewParam(name+".bias", tensor.Zeros(out), trainable)
	}
	return l
}

// In returns the input feature size.
func (l *Linear) In() int { return l.in }

// Out returns the output feature size.
func (l *Linear) Out() int { return l.out }

// AttachLoRA adds a rank-r adapter with scaling α/r. A is initialized from
// N(0, 1/in) (see initWeight for a nil rng) and B from zero, so the
// initial adapter output is zero. It freezes the base weight (and bias),
// matching the fine-tuning setup.
func (l *Linear) AttachLoRA(rng *rand.Rand, r int, alpha float64) {
	if r <= 0 {
		panic(fmt.Sprintf("nn: LoRA rank must be positive, got %d", r))
	}
	l.LoRA = &LoRA{
		A:     NewParam(l.Name+".lora.A", initWeight(rng, l.in, r), true),
		B:     NewParam(l.Name+".lora.B", tensor.Zeros(r, l.out), true),
		Scale: alpha / float64(r),
	}
	l.W.Freeze()
	if l.Bias != nil {
		l.Bias.Freeze()
	}
}

// Params implements Module.
func (l *Linear) Params() []*Param {
	ps := []*Param{l.W}
	if l.Bias != nil {
		ps = append(ps, l.Bias)
	}
	if l.LoRA != nil {
		ps = append(ps, l.LoRA.A, l.LoRA.B)
	}
	return ps
}

// Forward computes y = x@W (+ bias) (+ LoRA path) for x of shape [n, in].
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Cols() != l.in {
		panic(fmt.Sprintf("nn: %s expects %d input features, got %d", l.Name, l.in, x.Cols()))
	}
	l.x = x
	n := x.Rows()
	y := tensor.Ensure(&l.y, n, l.out)
	if l.W.Trainable {
		l.wPanels.Reset()
		l.wTPanels.Reset()
		x.MatMulInto(l.W.Value, y)
	} else {
		x.MatMulPackedInto(l.W.Value, &l.wPanels, y)
	}
	if l.Bias != nil {
		y.AddRowInPlace(l.Bias.Value)
	}
	if l.LoRA != nil {
		lr := l.LoRA
		xa := tensor.Ensure(&lr.xa, n, lr.A.Value.Cols())
		x.MatMulInto(lr.A.Value, xa)
		t := tensor.GetDirty(n, l.out)
		xa.MatMulInto(lr.B.Value, t)
		y.AxpyInPlace(lr.Scale, t)
		tensor.Put(t)
	}
	return y
}

// Backward accumulates parameter gradients given dy = ∂loss/∂y and returns
// dx = ∂loss/∂x. It must follow a Forward call.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dxa := l.backwardParams(dy)
	dx := tensor.Ensure(&l.dx, dy.Rows(), l.in)
	if !l.W.Trainable {
		dy.MatMulTPackedInto(l.W.Value, &l.wTPanels, dx)
	} else {
		dy.MatMulTInto(l.W.Value, dx)
	}
	if dxa != nil {
		// dx += d(xa) @ Aᵀ.
		t := tensor.GetDirty(dy.Rows(), l.in)
		dxa.MatMulTInto(l.LoRA.A.Value, t)
		dx.AddInPlace(t)
		tensor.Put(t)
		tensor.Put(dxa)
	}
	return dx
}

// BackwardParams is Backward for a layer whose input gradient nothing
// reads: it accumulates the same parameter gradients, bit for bit, and
// skips the products only dx needs — dy·Wᵀ and the adapter's d(xa)·Aᵀ.
// It must follow a Forward call.
func (l *Linear) BackwardParams(dy *tensor.Tensor) {
	tensor.Put(l.backwardParams(dy))
}

// backwardParams accumulates the parameter gradients given dy. With an
// adapter it returns d(xa) = scale · dy @ Bᵀ, arena scratch the caller
// Puts; without one, nil.
func (l *Linear) backwardParams(dy *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic(fmt.Sprintf("nn: %s Backward called before Forward", l.Name))
	}
	x := l.x
	l.x = nil
	if l.W.Trainable {
		g := tensor.GetDirty(l.in, l.out)
		x.TMatMulInto(dy, g)
		l.W.Grad.AddInPlace(g)
		tensor.Put(g)
	}
	if l.Bias != nil && l.Bias.Trainable {
		dy.SumRowsInto(l.Bias.Grad)
	}
	if l.LoRA == nil {
		return nil
	}
	lr := l.LoRA
	r := lr.A.Value.Cols()
	// d(xa) = scale · dy @ Bᵀ ; dB = scale · xaᵀ @ dy ; dA = xᵀ @ d(xa).
	dxa := tensor.GetDirty(dy.Rows(), r)
	dy.MatMulTInto(lr.B.Value, dxa)
	dxa.ScaleInPlace(lr.Scale)
	if lr.B.Trainable {
		g := tensor.GetDirty(r, l.out)
		lr.xa.TMatMulInto(dy, g)
		lr.B.Grad.AxpyInPlace(lr.Scale, g)
		tensor.Put(g)
	}
	if lr.A.Trainable {
		g := tensor.GetDirty(l.in, r)
		x.TMatMulInto(dxa, g)
		lr.A.Grad.AddInPlace(g)
		tensor.Put(g)
	}
	return dxa
}

// EffectiveWeight returns W + scale·A·B as a fresh tensor, i.e. the weight
// a merged (LoRA-folded) layer would use. Used by equivalence tests.
func (l *Linear) EffectiveWeight() *tensor.Tensor {
	w := l.W.Value.Clone()
	if l.LoRA != nil {
		w.AxpyInPlace(l.LoRA.Scale, l.LoRA.A.Value.MatMul(l.LoRA.B.Value))
	}
	return w
}
