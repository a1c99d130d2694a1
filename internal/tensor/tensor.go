// Package tensor provides the dense numeric substrate used by every layer
// of the VELA reproduction: row-major float64 tensors with the small set of
// operations a transformer forward/backward pass needs (matmul, softmax,
// elementwise arithmetic, reductions) plus deterministic random
// initialization.
//
// The package is deliberately minimal: it is not a general ndarray library.
// Shapes are validated eagerly and violations panic, because a shape
// mismatch is always a programming error in this codebase, never an input
// error.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float64 tensor. The zero value is an empty
// tensor; use New, Zeros or Randn to construct useful ones.
type Tensor struct {
	// Data holds the elements in row-major order. Length equals the
	// product of Shape.
	Data []float64

	shape []int
}

// New wraps data in a tensor of the given shape. The data slice is used
// directly (not copied); it must have exactly prod(shape) elements.
func New(data []float64, shape ...int) *Tensor {
	n := numel(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (=%d)", len(data), shape, n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// Zeros returns a zero-filled tensor of the given shape.
func Zeros(shape ...int) *Tensor {
	return &Tensor{Data: make([]float64, numel(shape)), shape: append([]int(nil), shape...)}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Randn returns a tensor with elements drawn i.i.d. from N(0, std²) using
// the supplied source, so results are reproducible.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rows returns the first dimension of a 2-D tensor.
func (t *Tensor) Rows() int { t.must2D(); return t.shape[0] }

// Cols returns the second dimension of a 2-D tensor.
func (t *Tensor) Cols() int { t.must2D(); return t.shape[1] }

func (t *Tensor) must2D() {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: expected 2-D tensor, got shape %v", t.shape))
	}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Row returns a view (not a copy) of row r of a 2-D tensor.
func (t *Tensor) Row(r int) []float64 {
	t.must2D()
	c := t.shape[1]
	return t.Data[r*c : (r+1)*c]
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := Zeros(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element of t to zero in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) mustSameShape(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, o.shape))
	}
}

// AddInPlace adds o to t elementwise, returning t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o)
	td, od := t.Data, o.Data
	if Serial(len(td), len(td)) {
		axpyRange(td, od, 1, 0, len(td))
		return t
	}
	p := newTask(axpyBody)
	p.c, p.a, p.alpha = td, od, 1
	p.split(len(td))
	return t
}

func axpyBody(p *task, lo, hi int) { axpyRange(p.c, p.a, p.alpha, lo, hi) }

// axpyRange accumulates r[i] += alpha * a[i] for i in [lo, hi).
func axpyRange(r, a []float64, alpha float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		r[i] += alpha * a[i]
	}
}

// ScaleInPlace multiplies every element of t by alpha, returning t.
func (t *Tensor) ScaleInPlace(alpha float64) *Tensor {
	td := t.Data
	if Serial(len(td), len(td)) {
		scaleRange(td, td, alpha, 0, len(td))
		return t
	}
	p := newTask(scaleBody)
	p.c, p.a, p.alpha = td, td, alpha
	p.split(len(td))
	return t
}

// SoftmaxRows applies a numerically stable softmax to each row of a 2-D
// tensor and returns the result as a new tensor.
func (t *Tensor) SoftmaxRows() *Tensor {
	t.must2D()
	return t.softmaxRowsInto(Zeros(t.shape...))
}

// SoftmaxInto writes softmax(src) into dst. dst and src may alias.
func SoftmaxInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: softmax length mismatch")
	}
	maxv := math.Inf(-1)
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	// The exponentials go eight lanes at a time (expInto); the sum stays
	// one chain in index order.
	for i, v := range src {
		dst[i] = v - maxv
	}
	expInto(dst, dst)
	var sum float64
	for _, e := range dst {
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// AddRowInPlace adds the 1-D tensor row to every row of the 2-D tensor t
// (row broadcast), returning t. Used for bias additions.
func (t *Tensor) AddRowInPlace(row *Tensor) *Tensor {
	t.must2D()
	n, m := t.shape[0], t.shape[1]
	if row.Len() != m {
		panic(fmt.Sprintf("tensor: row broadcast length %d does not match shape %v", row.Len(), t.shape))
	}
	rd := row.Data
	if Serial(n, n*m) {
		addRowRange(t.Data, rd, m, 0, n)
		return t
	}
	p := newTask(addRowBody)
	p.c, p.a, p.m = t.Data, rd, m
	p.split(n)
	return t
}

func addRowBody(p *task, lo, hi int) { addRowRange(p.c, p.a, p.m, lo, hi) }

// addRowRange adds the length-m vector r to rows [lo, hi) of the
// row-major [_, m] buffer a.
func addRowRange(a, r []float64, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a[i*m : (i+1)*m]
		for j := range ai {
			ai[j] += r[j]
		}
	}
}

// SumRowsInto accumulates the column sums of the 2-D tensor t into the
// 1-D tensor dst (dst[j] += Σ_i t[i,j]), returning dst. Used for
// bias-gradient reductions, hence accumulate rather than overwrite.
// Serial: the destination is shared across all rows, so partitioning by
// input row would break the single-owner determinism rule.
func (t *Tensor) SumRowsInto(dst *Tensor) *Tensor {
	t.must2D()
	n, m := t.shape[0], t.shape[1]
	if dst.Len() != m {
		panic(fmt.Sprintf("tensor: column-sum destination length %d does not match shape %v", dst.Len(), t.shape))
	}
	dd := dst.Data
	for i := 0; i < n; i++ {
		ti := t.Data[i*m : (i+1)*m]
		for j := range ti {
			dd[j] += ti[j]
		}
	}
	return dst
}

// ArgTopKInto writes the indices of the len(idx) largest values of v into
// idx in descending value order: the gate's expert selection. Ties are
// broken by lower index to keep routing deterministic.
//
// Single pass with a bounded insertion list: each element is compared
// against the current k-th value and, if it belongs, shift-inserted into
// the sorted prefix. No allocation, no rescans.
func ArgTopKInto(idx []int, v []float64) {
	k := len(idx)
	if k > len(v) {
		panic(fmt.Sprintf("tensor: topk k=%d exceeds length %d", k, len(v)))
	}
	if k == 0 {
		return
	}
	n := 0 // length of the sorted prefix idx[:n]
	for i, x := range v {
		if n == k {
			// List is full: only a strictly larger value displaces the
			// current minimum — an equal one keeps the earlier index,
			// which is already in the list.
			if x <= v[idx[k-1]] {
				continue
			}
			n = k - 1
		}
		// Insertion point: stop at >=, so an equal earlier index stays
		// ahead of the new one.
		p := n
		for p > 0 && v[idx[p-1]] < x {
			p--
		}
		copy(idx[p+1:n+1], idx[p:n])
		idx[p] = i
		n++
	}
}

// String renders a compact description of the tensor, suitable for
// debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
