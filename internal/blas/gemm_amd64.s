// AVX2+FMA micro-kernel for the packed GEMM path, plus the CPUID probe
// that gates it. The kernel contracts one packed mr×kc A micropanel (6 rows)
// against one packed kc×nr B micropanel (8 columns) and adds the 6×8
// product into the C micro-tile. The twelve accumulators Y0..Y11 hold the
// tile, two ymm registers per C row; each k step loads the B row once (two
// loads) and broadcasts the six A values, 8 loads for 12 FMAs. Each C
// element keeps one accumulation chain over k — no split into partial
// sums — so its rounding depends only on (i, j, k). Edge tiles come here
// too: the caller points ct at a zeroed 6×8 stack tile (ldc = 8) and adds
// the valid part into C itself.

#include "textflag.h"

// func cpuHasAVXFMA() bool
TEXT ·cpuHasAVXFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, BX
	ANDL $0x18001000, BX // FMA (bit 12) | OSXSAVE (27) | AVX (28)
	CMPL BX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // XCR0: xmm (bit 1) and ymm (bit 2) state enabled
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// STEP multiplies the B row at boff(DI) by the A column at aoff(SI) into
// the accumulators.
#define STEP(aoff, boff) \
	VMOVUPD      boff(DI), Y12; \
	VMOVUPD      boff+32(DI), Y13; \
	VBROADCASTSD aoff(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y0; \
	VFMADD231PD  Y13, Y14, Y1; \
	VBROADCASTSD aoff+8(SI), Y15; \
	VFMADD231PD  Y12, Y15, Y2; \
	VFMADD231PD  Y13, Y15, Y3; \
	VBROADCASTSD aoff+16(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y4; \
	VFMADD231PD  Y13, Y14, Y5; \
	VBROADCASTSD aoff+24(SI), Y15; \
	VFMADD231PD  Y12, Y15, Y6; \
	VFMADD231PD  Y13, Y15, Y7; \
	VBROADCASTSD aoff+32(SI), Y14; \
	VFMADD231PD  Y12, Y14, Y8; \
	VFMADD231PD  Y13, Y14, Y9; \
	VBROADCASTSD aoff+40(SI), Y15; \
	VFMADD231PD  Y12, Y15, Y10; \
	VFMADD231PD  Y13, Y15, Y11

// ADDROW adds the accumulator pair lo, hi into the C row at DX and steps
// DX to the next row.
#define ADDROW(lo, hi) \
	VADDPD  (DX), lo, lo; \
	VMOVUPD lo, (DX); \
	VADDPD  32(DX), hi, hi; \
	VMOVUPD hi, 32(DX); \
	ADDQ    R8, DX

// func kernelFMA(kc int, ap, bp, ct *float64, ldc int)
TEXT ·kernelFMA(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ ct+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8          // C row stride in bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	CMPQ CX, $4
	JL   tail

loop4:
	STEP(0, 0)
	STEP(48, 64)
	STEP(96, 128)
	STEP(144, 192)
	ADDQ $192, SI        // 4 k steps of 6 A values
	ADDQ $256, DI        // 4 k steps of 8 B values
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  loop4

tail:
	TESTQ CX, CX
	JZ    store
	STEP(0, 0)
	ADDQ  $48, SI
	ADDQ  $64, DI
	DECQ  CX
	JMP   tail

store:
	ADDROW(Y0, Y1)
	ADDROW(Y2, Y3)
	ADDROW(Y4, Y5)
	ADDROW(Y6, Y7)
	ADDROW(Y8, Y9)
	ADDROW(Y10, Y11)
	VZEROUPPER
	RET
