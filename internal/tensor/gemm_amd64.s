//go:build !purego

#include "textflag.h"

// ROW multiplies the broadcast A element in Y10 by the two halves of the
// B row (Y8, Y9) and adds the products into the row's two accumulators.
// VMULPD then VADDPD, never VFMADD: the product is rounded before the
// add, as in the scalar c += a*b the tile replaces.
#define ROW(lo, hi) \
	VMULPD Y8, Y10, Y11; \
	VADDPD Y11, lo, lo;  \
	VMULPD Y9, Y10, Y12; \
	VADDPD Y12, hi, hi

// func gemmTileAVX2(k int, a *float64, sa0, sa1 int, bp, c *float64, ldc int)
//
// The AVX2 body of the tile contract in gemm.go: eight YMM accumulators
// (row i in Y(2i), Y(2i+1)) zeroed, then for p = 0..k-1 ascending one
// packed B row against four broadcast A elements. Strides are in elements.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ sa0+16(FP), R8
	MOVQ sa1+24(FP), R9
	MOVQ bp+32(FP), DX
	MOVQ c+40(FP), DI
	MOVQ ldc+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R11
	ADDQ SI, R11            // row 3 of A; rows 1, 2 are (SI)(R8*1), (SI)(R8*2)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ    store
loop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI), Y10
	ROW(Y0, Y1)
	VBROADCASTSD (SI)(R8*1), Y10
	ROW(Y2, Y3)
	VBROADCASTSD (SI)(R8*2), Y10
	ROW(Y4, Y5)
	VBROADCASTSD (R11), Y10
	ROW(Y6, Y7)
	ADDQ $64, DX
	ADDQ R9, SI
	ADDQ R9, R11
	DECQ CX
	JNZ  loop
store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R10, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R10, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R10, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET
