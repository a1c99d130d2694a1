//go:build !purego

#include "textflag.h"

// SPLAT16 fills all eight 16-bit lanes of x with the constant c (AVX
// only: VPBROADCASTW would need AVX2).
#define SPLAT16(c, x) \
	MOVL $(c<<16|c), AX; \
	VMOVD AX, x;         \
	VPSHUFD $0, x, x

// func encodeHalvesF16C(dst *byte, src *float64, n int)
//
// The F16C body of the binary16 contract in half.go, eight values per
// iteration; n is a positive multiple of 8. VCVTPD2PS rounds to float32
// under MXCSR (round-to-nearest-even, no FTZ/DAZ in Go programs), as
// float32(v) does; VCVTPS2PH's immediate 0 rounds to nearest even on its
// own. Where the result is a NaN (|h| > 0x7C00) its payload is replaced
// by the canonical sign|0x7E00.
TEXT ·encodeHalvesF16C(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SPLAT16(0x7FFF, X8)
	SPLAT16(0x7C00, X9)
	SPLAT16(0x8000, X10)
	SPLAT16(0x7E00, X11)
loop:
	VCVTPD2PSY (SI), X0
	VCVTPD2PSY 32(SI), X1
	VINSERTF128 $1, X1, Y0, Y0
	VCVTPS2PH $0, Y0, X0
	VPAND X8, X0, X1          // |h|
	VPCMPGTW X9, X1, X1       // NaN lanes: |h| > 0x7C00
	VPAND X10, X0, X2
	VPOR X11, X2, X2          // sign|0x7E00
	VPBLENDVB X1, X2, X0, X0
	VMOVDQU X0, (DI)
	ADDQ $64, SI
	ADDQ $16, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET

// func decodeHalvesF16C(dst *float64, src *byte, n int)
//
// Eight halves per iteration: VCVTPH2PS, then VCVTPS2PD on each half of
// the YMM. Both widenings are exact; a NaN leaves quiet, as the portable
// body's float32 → float64 step leaves it. n is a positive multiple of 8.
TEXT ·decodeHalvesF16C(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
loop:
	VCVTPH2PS (SI), Y0
	VCVTPS2PD X0, Y1
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD X2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $16, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET
