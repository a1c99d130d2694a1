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

// Reshape returns a view of t with a new shape of equal element count.
// The underlying data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if numel(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{Data: t.Data, shape: append([]int(nil), shape...)}
}

// Zero sets every element of t to zero in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element of t to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
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

// Add returns t + o elementwise as a new tensor. Hot paths should prefer
// AddInto or AddInPlace.
func (t *Tensor) Add(o *Tensor) *Tensor {
	return t.AddInto(o, Zeros(t.shape...))
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

// AxpyInPlace adds alpha*o to t elementwise, returning t.
func (t *Tensor) AxpyInPlace(alpha float64, o *Tensor) *Tensor {
	t.mustSameShape(o)
	td, od := t.Data, o.Data
	if Serial(len(td), len(td)) {
		axpyRange(td, od, alpha, 0, len(td))
		return t
	}
	p := newTask(axpyBody)
	p.c, p.a, p.alpha = td, od, alpha
	p.split(len(td))
	return t
}

// Sub returns t - o elementwise as a new tensor.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	t.mustSameShape(o)
	r := Zeros(t.shape...)
	for i := range t.Data {
		r.Data[i] = t.Data[i] - o.Data[i]
	}
	return r
}

// Mul returns the elementwise (Hadamard) product t ⊙ o as a new tensor.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	t.mustSameShape(o)
	r := Zeros(t.shape...)
	for i := range t.Data {
		r.Data[i] = t.Data[i] * o.Data[i]
	}
	return r
}

// Scale returns alpha*t as a new tensor. Hot paths should prefer
// ScaleInto or ScaleInPlace.
func (t *Tensor) Scale(alpha float64) *Tensor {
	return t.ScaleInto(alpha, Zeros(t.shape...))
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

// MatMul returns the matrix product t @ o for 2-D tensors
// ([n,k] @ [k,m] -> [n,m]) as a new tensor. Hot paths should prefer
// MatMulInto with a reused destination; see parallel.go for the kernels.
func (t *Tensor) MatMul(o *Tensor) *Tensor {
	t.must2D()
	o.must2D()
	return t.MatMulInto(o, Zeros(t.shape[0], o.shape[1]))
}

// MatMulT returns t @ oᵀ for 2-D tensors ([n,k] @ [m,k]ᵀ -> [n,m]) as a
// new tensor. Hot paths should prefer MatMulTInto.
func (t *Tensor) MatMulT(o *Tensor) *Tensor {
	t.must2D()
	o.must2D()
	return t.MatMulTInto(o, Zeros(t.shape[0], o.shape[0]))
}

// TMatMul returns tᵀ @ o for 2-D tensors ([k,n]ᵀ @ [k,m] -> [n,m]) as a
// new tensor. Hot paths should prefer TMatMulInto.
func (t *Tensor) TMatMul(o *Tensor) *Tensor {
	t.must2D()
	o.must2D()
	return t.TMatMulInto(o, Zeros(t.shape[1], o.shape[1]))
}

// Transpose returns a new tensor holding tᵀ for a 2-D tensor.
func (t *Tensor) Transpose() *Tensor {
	t.must2D()
	return t.TransposeInto(Zeros(t.shape[1], t.shape[0]))
}

// SoftmaxRows applies a numerically stable softmax to each row of a 2-D
// tensor and returns the result as a new tensor. Hot paths should prefer
// SoftmaxRowsInto.
func (t *Tensor) SoftmaxRows() *Tensor {
	t.must2D()
	return t.SoftmaxRowsInto(Zeros(t.shape...))
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
	var sum float64
	for i, v := range src {
		e := math.Exp(v - maxv)
		dst[i] = e
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

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Dot returns the inner product of two equal-shaped tensors.
func (t *Tensor) Dot(o *Tensor) float64 {
	t.mustSameShape(o)
	var s float64
	for i := range t.Data {
		s += t.Data[i] * o.Data[i]
	}
	return s
}

// Norm returns the L2 norm of all elements.
func (t *Tensor) Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// tensor.
func (t *Tensor) MaxAbs() float64 {
	var m float64
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// ArgTopK returns the indices of the k largest values of v in descending
// value order. It is used by the gate to select experts. Ties are broken by
// lower index to keep routing deterministic.
//
// Single pass with a bounded insertion list: each element is compared
// against the current k-th value and, if it belongs, shift-inserted into
// the sorted prefix. One allocation (the result), no rescans.
func ArgTopK(v []float64, k int) []int {
	if k > len(v) {
		panic(fmt.Sprintf("tensor: topk k=%d exceeds length %d", k, len(v)))
	}
	idx := make([]int, 0, k)
	if k == 0 {
		return idx
	}
	for i, x := range v {
		if len(idx) == k {
			// List is full: only a strictly larger value displaces the
			// current minimum — an equal one keeps the earlier index,
			// which is already in the list.
			if x <= v[idx[k-1]] {
				continue
			}
			idx = idx[:k-1]
		}
		// Insertion point: stop at >=, so an equal earlier index stays
		// ahead of the new one.
		p := len(idx)
		for p > 0 && v[idx[p-1]] < x {
			p--
		}
		idx = append(idx, 0)
		copy(idx[p+1:], idx[p:])
		idx[p] = i
	}
	return idx
}

// String renders a compact description of the tensor, suitable for
// debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
