// Package cpu reports the x86 vector extensions that the assembly bodies
// in internal/tensor (the AVX2 GEMM tile) and internal/wire (the F16C
// binary16 codec) may use. The probe runs once, at package
// initialisation; every flag is false off amd64 and under the purego
// build tag, so those builds select the portable bodies.
package cpu

// HasAVX2 gates the GEMM tile body (gemm_amd64.s); HasF16C gates the
// binary16 codec body (half_amd64.s): AVX plus the F16C conversions
// VCVTPS2PH and VCVTPH2PS. Each is true only when the CPU reports the
// extension and the OS saves the YMM registers (XCR0 bits 1 and 2).
var HasAVX2, HasF16C = probe()
