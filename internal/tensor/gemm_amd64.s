//go:build !purego

#include "textflag.h"

// The strips below share one frame layout and one shape. Each runs
// tiles ≥ 1 row tiles of k ≥ 1 (gemmStrip and gemm see to both): per row
// tile it zeroes its accumulators, runs p = 0..k-1 ascending — one B row
// (row p of the panel, ldb elements after row p−1) against broadcast A
// elements, one fused multiply-add per accumulator, acc = fma(a, b, acc)
// rounded once, as the contract in gemm.go says — and then lands the
// accumulators under the epilogue: VMULPD by the broadcast α, then, to
// accumulate, VADDPD of the destination, then the store. A's row 0 walks
// down by sa1 per p; after the chain it is rewound by k·sa1 and stepped
// on to the next row tile. R8 holds sa0 and R13 3·sa0, so rows 0–3 are
// (SI), (SI)(R8*1), (SI)(R8*2) and (SI)(R13*1). Strides are in
// elements, scaled to bytes on entry.

// ROW adds the broadcast A element in Y10 times the two halves of the B
// row (Y8, Y9) into the row's two accumulators.
#define ROW(lo, hi) \
	VFMADD231PD Y8, Y10, lo; \
	VFMADD231PD Y9, Y10, hi

// STOREY and ACCY land one AVX2 tile row (lo, hi) at DI and step DI to
// the next row of C.
#define STOREY(lo, hi) \
	VMULPD  Y14, lo, lo; \
	VMULPD  Y14, hi, hi; \
	VMOVUPD lo, (DI); \
	VMOVUPD hi, 32(DI); \
	ADDQ    R10, DI

#define ACCY(lo, hi) \
	VMULPD  Y14, lo, lo; \
	VMULPD  Y14, hi, hi; \
	VADDPD  (DI), lo, lo; \
	VADDPD  32(DI), hi, hi; \
	VMOVUPD lo, (DI); \
	VMOVUPD hi, 32(DI); \
	ADDQ    R10, DI

// func gemmStripAVX2(k, tiles int, a *float64, sa0, sa1 int, b *float64, ldb int, c *float64, ldc int, alpha float64, acc bool)
//
// The AVX2 body: 4×8 tiles of one panel, eight YMM accumulators (row i
// in Y(2i), Y(2i+1)), eight independent chains.
TEXT ·gemmStripAVX2(SB), NOSPLIT, $0-81
	MOVQ tiles+8(FP), AX
	MOVQ a+16(FP), SI
	MOVQ sa0+24(FP), R8
	MOVQ sa1+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R12
	MOVQ c+56(FP), DI
	MOVQ ldc+64(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R12
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R13
	VBROADCASTSD alpha+72(FP), Y14
ytile:
	MOVQ k+0(FP), CX
	MOVQ BX, DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
yloop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI), Y10
	ROW(Y0, Y1)
	VBROADCASTSD (SI)(R8*1), Y10
	ROW(Y2, Y3)
	VBROADCASTSD (SI)(R8*2), Y10
	ROW(Y4, Y5)
	VBROADCASTSD (SI)(R13*1), Y10
	ROW(Y6, Y7)
	ADDQ R12, DX
	ADDQ R9, SI
	DECQ CX
	JNZ  yloop
	MOVQ  k+0(FP), CX
	IMULQ R9, CX
	SUBQ  CX, SI
	LEAQ  (SI)(R8*4), SI
	CMPB  acc+80(FP), $0
	JNE   yacc
	STOREY(Y0, Y1)
	STOREY(Y2, Y3)
	STOREY(Y4, Y5)
	STOREY(Y6, Y7)
	JMP   ynext
yacc:
	ACCY(Y0, Y1)
	ACCY(Y2, Y3)
	ACCY(Y4, Y5)
	ACCY(Y6, Y7)
ynext:
	DECQ AX
	JNZ  ytile
	VZEROUPPER
	RET

// STOREZ and ACCZ land one ZMM accumulator, a row of one panel, at DI
// and step DI to the next row of C.
#define STOREZ(z) \
	VMULPD  Z14, z, z; \
	VMOVUPD z, (DI); \
	ADDQ    R10, DI

#define ACCZ(z) \
	VMULPD  Z14, z, z; \
	VADDPD  (DI), z, z; \
	VMOVUPD z, (DI); \
	ADDQ    R10, DI

// func gemmStripAVX512(k, tiles int, a *float64, sa0, sa1 int, b *float64, ldb int, c *float64, ldc int, alpha float64, acc bool)
//
// The AVX-512 body over one panel — an odd or ragged last panel, or the
// rank-r side of an adapter product: one ZMM accumulator per row, two
// row tiles (eight rows, eight chains) at a time, so the multiply-add
// latency stays hidden as in the pair; a last odd row tile runs alone.
// Rows 4–7 are addressed from R11 = row 1 as well as SI: (SI)(R8*4),
// (R11)(R8*4), (SI)(R13*2) and (R11)(R13*2). VPXORQ zeroes, since VXORPD
// on ZMM needs AVX-512DQ.
TEXT ·gemmStripAVX512(SB), NOSPLIT, $0-81
	MOVQ tiles+8(FP), AX
	MOVQ a+16(FP), SI
	MOVQ sa0+24(FP), R8
	MOVQ sa1+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R12
	MOVQ c+56(FP), DI
	MOVQ ldc+64(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R12
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R13
	VBROADCASTSD alpha+72(FP), Z14
	CMPQ AX, $2
	JLT  zquad
zoct:
	MOVQ k+0(FP), CX
	MOVQ BX, DX
	LEAQ (SI)(R8*1), R11
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
zoloop:
	VMOVUPD (DX), Z8
	VBROADCASTSD (SI), Z9
	VFMADD231PD Z8, Z9, Z0
	VBROADCASTSD (R11), Z10
	VFMADD231PD Z8, Z10, Z1
	VBROADCASTSD (SI)(R8*2), Z11
	VFMADD231PD Z8, Z11, Z2
	VBROADCASTSD (SI)(R13*1), Z12
	VFMADD231PD Z8, Z12, Z3
	VBROADCASTSD (SI)(R8*4), Z13
	VFMADD231PD Z8, Z13, Z4
	VBROADCASTSD (R11)(R8*4), Z15
	VFMADD231PD Z8, Z15, Z5
	VBROADCASTSD (SI)(R13*2), Z16
	VFMADD231PD Z8, Z16, Z6
	VBROADCASTSD (R11)(R13*2), Z17
	VFMADD231PD Z8, Z17, Z7
	ADDQ R12, DX
	ADDQ R9, SI
	ADDQ R9, R11
	DECQ CX
	JNZ  zoloop
	MOVQ  k+0(FP), CX
	IMULQ R9, CX
	SUBQ  CX, SI
	LEAQ  (SI)(R8*8), SI
	CMPB  acc+80(FP), $0
	JNE   zoacc
	STOREZ(Z0)
	STOREZ(Z1)
	STOREZ(Z2)
	STOREZ(Z3)
	STOREZ(Z4)
	STOREZ(Z5)
	STOREZ(Z6)
	STOREZ(Z7)
	JMP   zonext
zoacc:
	ACCZ(Z0)
	ACCZ(Z1)
	ACCZ(Z2)
	ACCZ(Z3)
	ACCZ(Z4)
	ACCZ(Z5)
	ACCZ(Z6)
	ACCZ(Z7)
zonext:
	SUBQ $2, AX
	CMPQ AX, $2
	JGE  zoct
zquad:
	TESTQ AX, AX
	JZ    zdone
	MOVQ  k+0(FP), CX
	MOVQ  BX, DX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
zqloop:
	VMOVUPD (DX), Z8
	VBROADCASTSD (SI), Z10
	VFMADD231PD Z8, Z10, Z0
	VBROADCASTSD (SI)(R8*1), Z11
	VFMADD231PD Z8, Z11, Z1
	VBROADCASTSD (SI)(R8*2), Z12
	VFMADD231PD Z8, Z12, Z2
	VBROADCASTSD (SI)(R13*1), Z13
	VFMADD231PD Z8, Z13, Z3
	ADDQ R12, DX
	ADDQ R9, SI
	DECQ CX
	JNZ  zqloop
	CMPB acc+80(FP), $0
	JNE  zqacc
	STOREZ(Z0)
	STOREZ(Z1)
	STOREZ(Z2)
	STOREZ(Z3)
	JMP  zdone
zqacc:
	ACCZ(Z0)
	ACCZ(Z1)
	ACCZ(Z2)
	ACCZ(Z3)
zdone:
	VZEROUPPER
	RET

// PAIR adds the broadcast A element in bc times the two panels' B rows
// (Z8, Z9) into the row's two accumulators.
#define PAIR(bc, lo, hi) \
	VFMADD231PD Z8, bc, lo; \
	VFMADD231PD Z9, bc, hi

// STORE2Z and ACC2Z land one row of a pair (lo, hi) at DI and step DI to
// the next row of C.
#define STORE2Z(lo, hi) \
	VMULPD  Z14, lo, lo; \
	VMULPD  Z14, hi, hi; \
	VMOVUPD lo, (DI); \
	VMOVUPD hi, 64(DI); \
	ADDQ    R10, DI

#define ACC2Z(lo, hi) \
	VMULPD  Z14, lo, lo; \
	VMULPD  Z14, hi, hi; \
	VADDPD  (DI), lo, lo; \
	VADDPD  64(DI), hi, hi; \
	VMOVUPD lo, (DI); \
	VMOVUPD hi, 64(DI); \
	ADDQ    R10, DI

// func gemmStrip2AVX512(k, tiles int, a *float64, sa0, sa1 int, b *float64, ldb, bstep int, c *float64, ldc int, alpha float64, acc bool)
//
// The AVX-512 body's pair: the tiles of two adjacent panels, the second
// bstep elements after the first, as 4×16 blocks. Row i of the first
// panel accumulates in Zi, of the second in Z(i+4): eight independent
// chains, enough to keep both FMA ports busy across the multiply-add
// latency. Each element's chain is the single panel's, so pairing is
// invisible in the bits.
TEXT ·gemmStrip2AVX512(SB), NOSPLIT, $0-89
	MOVQ tiles+8(FP), AX
	MOVQ a+16(FP), SI
	MOVQ sa0+24(FP), R8
	MOVQ sa1+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R12
	MOVQ bstep+56(FP), R11
	MOVQ c+64(FP), DI
	MOVQ ldc+72(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R12
	SHLQ $3, R11
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R13
	VBROADCASTSD alpha+80(FP), Z14
ptile:
	MOVQ k+0(FP), CX
	MOVQ BX, DX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
ploop:
	VMOVUPD (DX), Z8
	VMOVUPD (DX)(R11*1), Z9
	VBROADCASTSD (SI), Z10
	PAIR(Z10, Z0, Z4)
	VBROADCASTSD (SI)(R8*1), Z11
	PAIR(Z11, Z1, Z5)
	VBROADCASTSD (SI)(R8*2), Z12
	PAIR(Z12, Z2, Z6)
	VBROADCASTSD (SI)(R13*1), Z13
	PAIR(Z13, Z3, Z7)
	ADDQ R12, DX
	ADDQ R9, SI
	DECQ CX
	JNZ  ploop
	MOVQ  k+0(FP), CX
	IMULQ R9, CX
	SUBQ  CX, SI
	LEAQ  (SI)(R8*4), SI
	CMPB  acc+88(FP), $0
	JNE   pacc
	STORE2Z(Z0, Z4)
	STORE2Z(Z1, Z5)
	STORE2Z(Z2, Z6)
	STORE2Z(Z3, Z7)
	JMP   pnext
pacc:
	ACC2Z(Z0, Z4)
	ACC2Z(Z1, Z5)
	ACC2Z(Z2, Z6)
	ACC2Z(Z3, Z7)
pnext:
	DECQ AX
	JNZ  ptile
	VZEROUPPER
	RET
