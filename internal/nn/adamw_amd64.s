//go:build !purego

#include "textflag.h"

// func adamwAVX512(w, grad, m, v *float64, n int, k *adamwCoef)
//
// The AVX-512 body of the AdamW update, eight lanes per iteration; n is a
// positive multiple of 8. Each lane does adamwRange's operations in its
// order, every one rounded on its own — a multiply, add, subtract, divide
// or square root, never a fused multiply-add and never a reciprocal — so
// each lane is bit for bit the scalar loop (the expression each step
// computes is named on the right). Rounding is MXCSR's round-to-nearest-
// even, as in the scalar code.
TEXT ·adamwAVX512(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), DX
	XORQ AX, AX
	VBROADCASTSD 0(DX), Z16  // β1
	VBROADCASTSD 8(DX), Z17  // 1−β1
	VBROADCASTSD 16(DX), Z18 // β2
	VBROADCASTSD 24(DX), Z19 // 1−β2
	VBROADCASTSD 32(DX), Z20 // bc1
	VBROADCASTSD 40(DX), Z21 // bc2
	VBROADCASTSD 48(DX), Z22 // lr
	VBROADCASTSD 56(DX), Z23 // ε
	VBROADCASTSD 64(DX), Z24 // wd
loop:
	VMOVUPD (SI)(AX*8), Z0   // g
	VMOVUPD (R8)(AX*8), Z1
	VMULPD  Z16, Z1, Z1      // β1·m
	VMULPD  Z17, Z0, Z2      // (1−β1)·g
	VADDPD  Z2, Z1, Z1       // m = β1·m + (1−β1)·g
	VMOVUPD Z1, (R8)(AX*8)
	VMOVUPD (R9)(AX*8), Z3
	VMULPD  Z18, Z3, Z3      // β2·v
	VMULPD  Z19, Z0, Z4      // (1−β2)·g
	VMULPD  Z0, Z4, Z4       // ((1−β2)·g)·g
	VADDPD  Z4, Z3, Z3       // v = β2·v + ((1−β2)·g)·g
	VMOVUPD Z3, (R9)(AX*8)
	VDIVPD  Z20, Z1, Z1      // mh = m/bc1
	VDIVPD  Z21, Z3, Z3      // vh = v/bc2
	VSQRTPD Z3, Z3           // √vh
	VADDPD  Z23, Z3, Z3      // √vh + ε
	VDIVPD  Z3, Z1, Z1       // mh/(√vh+ε)
	VMOVUPD (DI)(AX*8), Z5   // w
	VMULPD  Z24, Z5, Z6      // wd·w
	VADDPD  Z6, Z1, Z1       // mh/(√vh+ε) + wd·w
	VMULPD  Z22, Z1, Z1      // lr·(…)
	VSUBPD  Z1, Z5, Z5       // w = w − lr·(…)
	VMOVUPD Z5, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
	VZEROUPPER
	RET
