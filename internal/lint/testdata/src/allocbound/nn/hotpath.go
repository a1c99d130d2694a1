// Package nn exercises allocbound's hot-path rule: allocating tensor ops
// inside functions named Forward/Backward/Step/runExpert are findings;
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
	y := x.MatMul(l.W)     // want "allocating tensor op MatMul in per-step hot path Forward"
	y = y.Add(l.W)         // want "allocating tensor op Add in per-step hot path Forward"
	return y.SoftmaxRows() // want "allocating tensor op SoftmaxRows in per-step hot path Forward"
}

// Backward is flagged even when the call sits inside a closure.
func (l *Layer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	f := func() *tensor.Tensor {
		return dy.Scale(2) // want "allocating tensor op Scale in per-step hot path Backward"
	}
	return f()
}

// Step on a free function is flagged too.
func Step(g *tensor.Tensor) {
	_ = g.Scale(0.5) // want "allocating tensor op Scale in per-step hot path Step"
}

// runExpert is the fourth hot-path name.
func runExpert(x *tensor.Tensor) *tensor.Tensor {
	return x.MatMul(x) // want "allocating tensor op MatMul in per-step hot path runExpert"
}

// cleanForward shows the approved shapes: destination passing and
// in-place mutation allocate nothing.
type cleanLayer struct {
	W, y *tensor.Tensor
}

// Forward stays clean on the Into/in-place API.
func (l *cleanLayer) Forward(x *tensor.Tensor) *tensor.Tensor {
	x.MatMulInto(l.W, l.y)
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
	return x.MatMul(e.W)
}

// notHot is not a hot-path name: allocating ops are fine here.
func notHot(x *tensor.Tensor) *tensor.Tensor {
	return x.MatMul(x).Add(x)
}

// otherReceiver proves the check is type-directed: a same-named method on
// a non-tensor type is ignored.
type otherReceiver struct{}

func (otherReceiver) MatMul(x int) int { return x }

// Forward calls MatMul on a non-tensor receiver — clean.
func Forward(o otherReceiver) int { return o.MatMul(3) }
