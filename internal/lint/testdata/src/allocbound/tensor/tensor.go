// Package tensor is a fixture stand-in for the real tensor package: the
// allocbound hot-path check matches the Tensor type by name plus the
// "tensor" import-path component, so these stubs exercise it without
// importing the repo.
package tensor

// Tensor mirrors the real dense tensor.
type Tensor struct {
	Data []float64
}

// SoftmaxRows is an allocating op (flagged in hot paths).
func (t *Tensor) SoftmaxRows() *Tensor { return &Tensor{} }

// GEMM is the destination-passing product (allowed).
func GEMM(c, a, b *Tensor) *Tensor { return c }

// AddInPlace is the in-place variant (allowed).
func (t *Tensor) AddInPlace(o *Tensor) *Tensor { return t }

// ScaleInPlace is the in-place variant (allowed).
func (t *Tensor) ScaleInPlace(a float64) *Tensor { return t }
