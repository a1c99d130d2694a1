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
		W:    newParam(name+".W", initWeight(rng, in, out), trainable),
		in:   in,
		out:  out,
	}
	if bias {
		l.Bias = newParam(name+".bias", tensor.Zeros(out), trainable)
	}
	return l
}

// AttachLoRA adds a rank-r adapter with scaling α/r. A is initialized from
// N(0, 1/in) (see initWeight for a nil rng) and B from zero, so the
// initial adapter output is zero. It freezes the base weight (and bias),
// matching the fine-tuning setup.
func (l *Linear) AttachLoRA(rng *rand.Rand, r int, alpha float64) {
	if r <= 0 {
		panic(fmt.Sprintf("nn: LoRA rank must be positive, got %d", r))
	}
	l.LoRA = &LoRA{
		A:     newParam(l.Name+".lora.A", initWeight(rng, l.in, r), true),
		B:     newParam(l.Name+".lora.B", tensor.Zeros(r, l.out), true),
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
		tensor.GEMM(y, x, l.W.Value, false, false, 1, false, nil)
	} else {
		tensor.GEMM(y, x, l.W.Value, false, false, 1, false, &l.wPanels)
	}
	if l.Bias != nil {
		y.AddRowInPlace(l.Bias.Value)
	}
	if l.LoRA != nil {
		lr := l.LoRA
		xa := tensor.Ensure(&lr.xa, n, lr.A.Value.Cols())
		tensor.GEMM(xa, x, lr.A.Value, false, false, 1, false, nil)
		// y += scale · xa @ B, landed in place.
		tensor.GEMM(y, xa, lr.B.Value, false, false, lr.Scale, true, nil)
	}
	return y
}

// Backward accumulates parameter gradients given dy = ∂loss/∂y and returns
// dx = ∂loss/∂x. It must follow a Forward call.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dxa := l.backwardParams(dy)
	dx := tensor.Ensure(&l.dx, dy.Rows(), l.in)
	if !l.W.Trainable {
		tensor.GEMM(dx, dy, l.W.Value, false, true, 1, false, &l.wTPanels)
	} else {
		tensor.GEMM(dx, dy, l.W.Value, false, true, 1, false, nil)
	}
	if dxa != nil {
		// dx += d(xa) @ Aᵀ, after dy @ Wᵀ.
		tensor.GEMM(dx, dxa, l.LoRA.A.Value, false, true, 1, true, nil)
		tensor.Put(dxa)
	}
	return dx
}

// backwardGrads is Backward for a layer whose input gradient nothing
// reads: it accumulates the same parameter gradients, bit for bit, and
// skips the products only dx needs — dy·Wᵀ and the adapter's d(xa)·Aᵀ.
// It must follow a Forward call.
func (l *Linear) backwardGrads(dy *tensor.Tensor) {
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
		tensor.GEMM(l.W.Grad, x, dy, true, false, 1, true, nil)
	}
	if l.Bias != nil && l.Bias.Trainable {
		dy.SumRowsInto(l.Bias.Grad)
	}
	if l.LoRA == nil {
		return nil
	}
	lr := l.LoRA
	r := lr.A.Value.Cols()
	// d(xa) = scale · dy @ Bᵀ ; dB += scale · xaᵀ @ dy ; dA += xᵀ @ d(xa),
	// each landed by the product itself.
	dxa := tensor.GEMM(tensor.GetDirty(dy.Rows(), r), dy, lr.B.Value, false, true, lr.Scale, false, nil)
	if lr.B.Trainable {
		tensor.GEMM(lr.B.Grad, lr.xa, dy, true, false, lr.Scale, true, nil)
	}
	if lr.A.Trainable {
		tensor.GEMM(lr.A.Grad, x, dxa, true, false, 1, true, nil)
	}
	return dxa
}
