// Package nn exercises allocbound's hot-path rule: allocating tensor ops
// inside functions named Forward/Backward/Step/runExpert, the loss, the
// fused add-norm and the MoE block's row passes are findings;
// Into/in-place variants, non-hot function names, non-tensor receivers,
// and annotated escapes are not.
package nn

import "fix/tensor"

// Layer is a minimal layer with reusable buffers.
type Layer struct {
	W, y, dx *tensor.Tensor
}

// Forward uses allocating variants and is flagged on each.
func (l *Layer) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := x.SoftmaxRows()   // want "allocating tensor op SoftmaxRows in per-step hot path Forward"
	y = y.SoftmaxRows()    // want "allocating tensor op SoftmaxRows in per-step hot path Forward"
	return y.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path Forward"
}

// Backward is flagged even when the call sits inside a closure.
func (l *Layer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	f := func() *tensor.Tensor {
		return dy.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path Backward"
	}
	return f()
}

// Step on a free function is flagged too.
func Step(g *tensor.Tensor) {
	_ = g.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path Step"
}

// runExpert is the fourth hot-path name.
func runExpert(x *tensor.Tensor) *tensor.Tensor {
	return x.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path runExpert"
}

// CrossEntropy is the per-step loss: flagged.
func CrossEntropy(logits *tensor.Tensor) *tensor.Tensor {
	return logits.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path CrossEntropy"
}

// AddForward is the residual add fused into a norm: flagged.
func (l *Layer) AddForward(a, b *tensor.Tensor) *tensor.Tensor {
	return a.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path AddForward"
}

// BackwardAdd is the residual add fused into a norm's backward: flagged.
func (l *Layer) BackwardAdd(dy *tensor.Tensor) *tensor.Tensor {
	return dy.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path BackwardAdd"
}

// dispatchRows is a block's routed-row copy: flagged.
func (l *Layer) dispatchRows(x *tensor.Tensor) *tensor.Tensor {
	return x.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path dispatchRows"
}

// combineRows is a block's weighted combine: flagged.
func (l *Layer) combineRows(out *tensor.Tensor) *tensor.Tensor {
	return out.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path combineRows"
}

// scatterRows is a block's output-gradient scatter: flagged.
func (l *Layer) scatterRows(dy *tensor.Tensor) *tensor.Tensor {
	return dy.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path scatterRows"
}

// gatherRows is a block's input-gradient gather: flagged.
func (l *Layer) gatherRows(dx *tensor.Tensor) *tensor.Tensor {
	return dx.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path gatherRows"
}

// cleanForward shows the approved shapes: destination passing and
// in-place mutation allocate nothing.
type cleanLayer struct {
	W, y *tensor.Tensor
}

// Forward stays clean on the Into/in-place API.
func (l *cleanLayer) Forward(x *tensor.Tensor) *tensor.Tensor {
	tensor.GEMM(l.y, x, l.W)
	l.y.AddInPlace(l.W)
	l.y.ScaleInPlace(2)
	return l.y
}

// escape is a deliberate, annotated allocation in a hot path.
type escape struct {
	W *tensor.Tensor
}

// Forward returns a result that outlives the step, so the allocation is
// annotated rather than removed.
func (e *escape) Forward(x *tensor.Tensor) *tensor.Tensor {
	//lint:ignore allocbound result escapes to a caller that holds it across steps
	return x.SoftmaxRows()
}

// notHot is not a hot-path name: allocating ops are fine here.
func notHot(x *tensor.Tensor) *tensor.Tensor {
	return x.SoftmaxRows().SoftmaxRows()
}

// otherReceiver proves the check is type-directed: a same-named method on
// a non-tensor type is ignored.
type otherReceiver struct{}

func (otherReceiver) SoftmaxRows(x int) int { return x }

// Forward calls SoftmaxRows on a non-tensor receiver — clean.
func Forward(o otherReceiver) int { return o.SoftmaxRows(3) }
