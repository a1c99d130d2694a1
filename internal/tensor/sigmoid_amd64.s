//go:build !purego

#include "textflag.h"

// The constants of math.Exp's amd64 body (math/exp_amd64.s), written with
// the same literals so they assemble to the same bits.
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12
#define Overflow 7.09782712893384e+02

DATA sigmoiddata<>+0(SB)/8, $0x8000000000000000
DATA sigmoiddata<>+8(SB)/8, $Overflow
DATA sigmoiddata<>+16(SB)/8, $LOG2E
DATA sigmoiddata<>+24(SB)/8, $LN2U
DATA sigmoiddata<>+32(SB)/8, $LN2L
DATA sigmoiddata<>+40(SB)/8, $0.0625
DATA sigmoiddata<>+48(SB)/8, $2.4801587301587301587e-5
DATA sigmoiddata<>+56(SB)/8, $1.9841269841269841270e-4
DATA sigmoiddata<>+64(SB)/8, $1.3888888888888888889e-3
DATA sigmoiddata<>+72(SB)/8, $8.3333333333333333333e-3
DATA sigmoiddata<>+80(SB)/8, $4.1666666666666666667e-2
DATA sigmoiddata<>+88(SB)/8, $1.6666666666666666667e-1
DATA sigmoiddata<>+96(SB)/8, $0.5
DATA sigmoiddata<>+104(SB)/8, $1.0
DATA sigmoiddata<>+112(SB)/8, $2.0
DATA sigmoiddata<>+120(SB)/8, $1023
DATA sigmoiddata<>+128(SB)/8, $2047
GLOBL sigmoiddata<>+0(SB), RODATA, $136

// func sigmoidAVX512(dst, z *float64, n int) int
//
// The AVX-512 body of Sigmoid, eight lanes per iteration; n is a positive
// multiple of 8. Each lane computes 1/(1+e) with e = math.Exp(x), x = −z,
// by the operations of math.Exp's FMA branch in its order (the
// instruction each step mirrors is named on the right). Rounding is
// MXCSR's round-to-nearest-even, as in the scalar code.
//
// math.Exp leaves that branch for x not finite, for x > Overflow, and
// where the exponent bx+1023 of its 2^bx scale leaves [1, 2046] (its
// overflow, denormal and underflow paths). The body tests every lane for
// all of these and, on the first group with such a lane, stops and
// returns the number of elements it wrote, a multiple of 8; the caller
// computes that group with the scalar expression. Otherwise it returns n.
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ z+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VBROADCASTSD sigmoiddata<>+0(SB), Z16   // sign bit
	VBROADCASTSD sigmoiddata<>+8(SB), Z17   // Overflow
	VBROADCASTSD sigmoiddata<>+16(SB), Z18  // LOG2E
	VBROADCASTSD sigmoiddata<>+24(SB), Z19  // LN2U
	VBROADCASTSD sigmoiddata<>+32(SB), Z20  // LN2L
	VBROADCASTSD sigmoiddata<>+40(SB), Z21  // 0.0625
	VBROADCASTSD sigmoiddata<>+48(SB), Z22  // Taylor coefficients 1/8! …
	VBROADCASTSD sigmoiddata<>+56(SB), Z23
	VBROADCASTSD sigmoiddata<>+64(SB), Z24
	VBROADCASTSD sigmoiddata<>+72(SB), Z25
	VBROADCASTSD sigmoiddata<>+80(SB), Z26
	VBROADCASTSD sigmoiddata<>+88(SB), Z27  // … 1/3!
	VBROADCASTSD sigmoiddata<>+96(SB), Z28  // 0.5
	VBROADCASTSD sigmoiddata<>+104(SB), Z29 // 1.0
	VBROADCASTSD sigmoiddata<>+112(SB), Z30 // 2.0
	VBROADCASTSD sigmoiddata<>+120(SB), Z31 // int64 1023
	VBROADCASTSD sigmoiddata<>+128(SB), Z14 // int64 2047
	VPXORQ       Z15, Z15, Z15              // int64 0
loop:
	VMOVUPD (SI)(AX*8), Z0
	VPXORQ  Z16, Z0, Z0              // x = −z: Go's negation flips the sign bit
	VCMPPD  $0x16, Z17, Z0, K1       // !(x <= Overflow): not finite or overflow (COMISD; JA)
	VMULPD  Z18, Z0, Z1              // LOG2E·x                  MULSD X0, X1
	VCVTPD2DQ Z1, Y2                 // bx                       CVTSD2SL X1, BX
	VCVTDQ2PD Y2, Z1                 //                          CVTSL2SD BX, X1
	VFNMADD231PD Z19, Z1, Z0         // x −= bx·LN2U, fused      VFNMADD231SD
	VFNMADD231PD Z20, Z1, Z0         // x −= bx·LN2L, fused      VFNMADD231SD
	VMULPD  Z21, Z0, Z0              // x·0.0625                 MULSD $0.0625, X0
	VMOVAPD Z22, Z1                  // p = 1/8!, then p = p·x + c, fused, through 0.5 and 1
	VFMADD213PD Z23, Z0, Z1
	VFMADD213PD Z24, Z0, Z1
	VFMADD213PD Z25, Z0, Z1
	VFMADD213PD Z26, Z0, Z1
	VFMADD213PD Z27, Z0, Z1
	VFMADD213PD Z28, Z0, Z1
	VFMADD213PD Z29, Z0, Z1
	VMULPD  Z1, Z0, Z0               // x = x·p                  MULSD X1, X0
	VADDPD  Z30, Z0, Z1              // three rounds of x = (x+2)·x
	VMULPD  Z1, Z0, Z0
	VADDPD  Z30, Z0, Z1
	VMULPD  Z1, Z0, Z0
	VADDPD  Z30, Z0, Z1
	VMULPD  Z1, Z0, Z0
	VADDPD  Z30, Z0, Z1              // x = (x+2)·x + 1, fused   VFMADD213SD
	VFMADD213PD Z29, Z1, Z0
	VPMOVSXDQ Y2, Z3
	VPADDQ  Z31, Z3, Z3              // bx + 1023                ADDL $0x3FF, BX
	VPCMPQ  $2, Z15, Z3, K2          // <= 0: denormal, underflow (JLE denormal)
	VPCMPQ  $5, Z14, Z3, K3          // >= 2047: overflow        (JGE overflow)
	KORW    K1, K2, K1
	KORW    K1, K3, K1
	KORTESTW K1, K1
	JNZ     done
	VPSLLQ  $52, Z3, Z3              // 2^bx                     SHLQ $52, BX
	VMULPD  Z3, Z0, Z0               // e = x·2^bx               MULSD X1, X0
	VADDPD  Z29, Z0, Z0              // 1 + e
	VDIVPD  Z0, Z29, Z0              // 1 / (1 + e)
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     loop
done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
