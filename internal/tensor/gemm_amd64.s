//go:build !purego

#include "textflag.h"

// ROW adds the broadcast A element in Y10 times the two halves of the B
// row (Y8, Y9) into the row's two accumulators, one fused multiply-add
// each: acc = fma(a, b, acc), rounded once, as the contract in gemm.go
// says.
#define ROW(lo, hi) \
	VFMADD231PD Y8, Y10, lo; \
	VFMADD231PD Y9, Y10, hi

// func gemmTileAVX2(k int, a *float64, sa0, sa1 int, bp, c *float64, ldc int)
//
// The AVX2 body of the tile contract in gemm.go: eight YMM accumulators
// (row i in Y(2i), Y(2i+1)), eight independent chains, zeroed, then for
// p = 0..k-1 ascending one packed B row against four broadcast A
// elements. Strides are in elements.
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

// func gemmTileAVX512(k int, a *float64, sa0, sa1 int, bp, c *float64, ldc int)
//
// The AVX-512 body's single tile, for an odd or ragged last panel: the
// AVX2 body's chains with one ZMM accumulator per row (row i in Zi), so a
// packed B row is one load and each broadcast A element one fused
// multiply-add. VPXORQ zeroes, since VXORPD on ZMM needs AVX-512DQ.
TEXT ·gemmTileAVX512(SB), NOSPLIT, $0-56
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
	ADDQ SI, R11
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	TESTQ CX, CX
	JZ    zstore
zloop:
	VMOVUPD (DX), Z8
	VBROADCASTSD (SI), Z10
	VFMADD231PD Z8, Z10, Z0
	VBROADCASTSD (SI)(R8*1), Z11
	VFMADD231PD Z8, Z11, Z1
	VBROADCASTSD (SI)(R8*2), Z12
	VFMADD231PD Z8, Z12, Z2
	VBROADCASTSD (R11), Z13
	VFMADD231PD Z8, Z13, Z3
	ADDQ $64, DX
	ADDQ R9, SI
	ADDQ R9, R11
	DECQ CX
	JNZ  zloop
zstore:
	VMOVUPD Z0, (DI)
	ADDQ    R10, DI
	VMOVUPD Z1, (DI)
	ADDQ    R10, DI
	VMOVUPD Z2, (DI)
	ADDQ    R10, DI
	VMOVUPD Z3, (DI)
	VZEROUPPER
	RET

// PAIR adds the broadcast A element in bc times the two panels' B rows
// (Z8, Z9) into the row's two accumulators.
#define PAIR(bc, lo, hi) \
	VFMADD231PD Z8, bc, lo; \
	VFMADD231PD Z9, bc, hi

// func gemmTile2AVX512(k int, a *float64, sa0, sa1 int, bp, c *float64, ldc int)
//
// The AVX-512 body's pair: the tiles of two adjacent packed panels, the
// second 8k elements after the first, as one 4×16 block. Row i of the
// first panel accumulates in Zi, of the second in Z(i+4): eight
// independent chains, enough to keep both FMA ports busy across the
// multiply-add latency, where the single tile's four leave half of them
// idle. Each element's chain is the single tile's, so pairing is
// invisible in the bits.
TEXT ·gemmTile2AVX512(SB), NOSPLIT, $0-56
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
	ADDQ SI, R11
	MOVQ CX, R12
	SHLQ $6, R12            // 8k elements: the second panel is (DX)(R12*1)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	TESTQ CX, CX
	JZ    pstore
ploop:
	VMOVUPD (DX), Z8
	VMOVUPD (DX)(R12*1), Z9
	VBROADCASTSD (SI), Z10
	PAIR(Z10, Z0, Z4)
	VBROADCASTSD (SI)(R8*1), Z11
	PAIR(Z11, Z1, Z5)
	VBROADCASTSD (SI)(R8*2), Z12
	PAIR(Z12, Z2, Z6)
	VBROADCASTSD (R11), Z13
	PAIR(Z13, Z3, Z7)
	ADDQ $64, DX
	ADDQ R9, SI
	ADDQ R9, R11
	DECQ CX
	JNZ  ploop
pstore:
	VMOVUPD Z0, (DI)
	VMOVUPD Z4, 64(DI)
	ADDQ    R10, DI
	VMOVUPD Z1, (DI)
	VMOVUPD Z5, 64(DI)
	ADDQ    R10, DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z6, 64(DI)
	ADDQ    R10, DI
	VMOVUPD Z3, (DI)
	VMOVUPD Z7, 64(DI)
	VZEROUPPER
	RET
