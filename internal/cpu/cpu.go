// Package cpu reports the x86 vector extensions that the assembly bodies
// in internal/tensor (the AVX2 and AVX-512 GEMM tiles, the AVX-512
// sigmoid), internal/nn (the AVX-512 AdamW update) and internal/wire (the
// F16C binary16 codec) may use. The probe
// runs once, at package initialisation; every flag is false off amd64 and
// under the purego build tag, so those builds select the portable bodies.
package cpu

// Each flag is true only when the CPU reports the extension and the OS
// saves the registers it needs.
//
// HasAVX2 and HasFMA together gate the AVX2 GEMM tile (gemm_amd64.s),
// whose every term is a VFMADD231PD: AVX2 alone does not select it.
// HasF16C gates the binary16 codec body (half_amd64.s): AVX plus the F16C
// conversions VCVTPS2PH and VCVTPH2PS. All three need the YMM state (XCR0
// bits 1 and 2).
//
// HasFMA is AVX plus FMA3 with the YMM state: exactly the test Go's math
// package makes (useFMA) before math.Exp takes its fused-multiply-add
// branch on amd64, which the AVX-512 sigmoid replays.
//
// HasAVX512 is AVX-512F with the opmask and ZMM state (XCR0 bits 1, 2
// and 5–7). It gates the AVX-512 GEMM tiles, sigmoid and AdamW update;
// it is set only when HasAVX2 and HasFMA are, so a body that needs
// AVX-512 may assume both.
var HasAVX2, HasF16C, HasFMA, HasAVX512 = probe()
