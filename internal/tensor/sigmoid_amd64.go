//go:build !purego

package tensor

import "repro/internal/cpu"

// useSigmoidAVX512 selects the AVX-512 body, once, at init. It may run
// only where math.Exp itself takes its fused-multiply-add branch
// (cpu.HasFMA is that branch's own test), since that is the branch the
// body replays.
var useSigmoidAVX512 = cpu.HasAVX512 && cpu.HasFMA

//go:noescape
func sigmoidAVX512(dst, z *float64, n int) int

// sigmoidVec computes σ over the longest prefix of z made of whole groups
// of eight that math.Exp would evaluate on its main path, and returns its
// length: 0 without the AVX-512 body.
func sigmoidVec(dst, z []float64) int {
	n := len(z) &^ 7
	if !useSigmoidAVX512 || n == 0 {
		return 0
	}
	// The assembly indexes unchecked; touch the last element of each
	// operand here so a caller bug panics instead of corrupting memory.
	_ = z[n-1]
	_ = dst[n-1]
	return sigmoidAVX512(&dst[0], &z[0], n)
}

//go:noescape
func expAVX512(dst, x *float64, n int) int

// expVec computes math.Exp over the longest prefix of x made of whole
// groups of eight on math.Exp's main path, like sigmoidVec, and returns
// its length: 0 without the AVX-512 body.
func expVec(dst, x []float64) int {
	n := len(x) &^ 7
	if !useSigmoidAVX512 || n == 0 {
		return 0
	}
	_ = x[n-1]
	_ = dst[n-1]
	return expAVX512(&dst[0], &x[0], n)
}
