//go:build !purego

package wire

import "repro/internal/cpu"

// useF16C selects the assembly body, once, at init.
var useF16C = cpu.HasF16C

//go:noescape
func encodeHalvesF16C(dst *byte, src *float64, n int)

//go:noescape
func decodeHalvesF16C(dst *float64, src *byte, n int)

// encodeHalfVec converts the longest prefix of src whose length is a
// multiple of eight into dst with the F16C body and returns its length;
// 0 when the CPU lacks F16C.
func encodeHalfVec(dst []byte, src []float64) int {
	n := len(src) &^ 7
	if !useF16C || n == 0 {
		return 0
	}
	// The assembly indexes unchecked; touch the last element of each
	// operand here so a caller bug panics instead of corrupting memory.
	_ = src[n-1]
	_ = dst[2*n-1]
	encodeHalvesF16C(&dst[0], &src[0], n)
	return n
}

// decodeHalfVec is encodeHalfVec's inverse: it decodes the longest
// multiple-of-eight prefix of dst from src and returns its length.
func decodeHalfVec(dst []float64, src []byte) int {
	n := len(dst) &^ 7
	if !useF16C || n == 0 {
		return 0
	}
	_ = dst[n-1]
	_ = src[2*n-1]
	decodeHalvesF16C(&dst[0], &src[0], n)
	return n
}
