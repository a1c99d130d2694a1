// Package nn implements the neural-network substrate of the VELA
// reproduction: layers with explicit, hand-written forward and backward
// passes (Linear with optional LoRA adapters, RMSNorm, Embedding, causal
// multi-head Attention, SwiGLU feed-forward), the AdamW optimizer, and a
// cross-entropy loss.
//
// Every layer follows the same contract: Forward caches whatever
// activations its Backward needs, and Backward must be called exactly once
// after each Forward, with gradients accumulated into the layer's trainable
// parameters. This mirrors the single forward/backward per fine-tuning step
// of the paper's training loop.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a single learnable (or frozen) parameter tensor with its
// gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	// Grad accumulates ∂loss/∂Value. A frozen parameter has none (nil),
	// and every reader treats a nil Grad as zero.
	Grad *tensor.Tensor
	// Trainable controls whether optimizers update this parameter and
	// whether layers bother accumulating its gradient. A frozen value does
	// not change while frozen: layers keep what they derive from it (a
	// Linear's packed panels) until they next find it trainable.
	Trainable bool
}

// newParam allocates a parameter wrapping v; a trainable one gets a
// zeroed gradient.
func newParam(name string, v *tensor.Tensor, trainable bool) *Param {
	p := &Param{Name: name, Value: v, Trainable: trainable}
	if trainable {
		p.Grad = tensor.Zeros(v.Shape()...)
	}
	return p
}

// Freeze makes p non-trainable and drops its gradient buffer.
func (p *Param) Freeze() { p.Trainable, p.Grad = false, nil }

// zeroGrad clears the accumulated gradient, if p has one.
func (p *Param) zeroGrad() {
	if p.Grad != nil {
		p.Grad.Zero()
	}
}

// Module is anything that owns parameters.
type Module interface {
	// Params returns all parameters of the module, including frozen ones.
	Params() []*Param
}

// CollectTrainable filters params down to the trainable subset.
func CollectTrainable(params []*Param) []*Param {
	var out []*Param
	for _, p := range params {
		if p.Trainable {
			out = append(out, p)
		}
	}
	return out
}

// ZeroGrads clears the gradients of every parameter in the slice.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.zeroGrad()
	}
}

func mustShape(t *tensor.Tensor, want ...int) {
	got := t.Shape()
	ok := len(got) == len(want)
	if ok {
		for i := range want {
			if got[i] != want[i] {
				ok = false
				break
			}
		}
	}
	if !ok {
		panic(fmt.Sprintf("nn: shape %v, want %v", got, want))
	}
}
