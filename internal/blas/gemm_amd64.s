// AVX2+FMA and AVX-512 micro-kernels for the packed GEMM path, plus the
// CPUID probes that gate them. The AVX2 kernel runs down a column of C
// tiles: for each of `tiles` tiles it contracts one packed mr×kc A
// micro-panel (6 rows; the next tile's is apStride elements on) against
// the same packed kc×nr B strip (8 columns) and adds the 6×8 product into
// the C tile, the next tile being 6 rows further down C. The twelve accumulators Y0..Y11 hold
// the tile, two ymm registers per C row; each k step loads the B row once
// (two loads) and broadcasts the six A values, 8 loads for 12 FMAs. Each
// C element keeps one accumulation chain over k — no split into partial
// sums — so its rounding depends only on (i, j, k). At each tile's entry
// the kernel prefetches the tile's six C rows, which it reads only after
// the kc steps. Edge tiles come here too, one at a time: the caller points
// ct at a zeroed 6×8 stack tile (ldc = 8) and adds the valid part into C
// itself. kernelFMA512, at the end of the file, is the same walk on 6×16
// tiles over two adjacent B strips; it takes only full tiles.

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

// PFROW prefetches both cache lines the 8-element C row at DX can span and
// steps DX to the next row.
#define PFROW \
	PREFETCHT0 (DX); \
	PREFETCHT0 56(DX); \
	ADDQ       R8, DX

// func kernelFMA(kc int, ap, bp, ct *float64, ldc, tiles, apStride int)
TEXT ·kernelFMA(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), BX
	MOVQ ap+8(FP), R11   // A micro-panel of the current tile
	MOVQ bp+16(FP), R12
	MOVQ ct+24(FP), R13  // top-left corner of the current C tile
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8          // C row stride in bytes
	MOVQ tiles+40(FP), R9
	MOVQ apStride+48(FP), R10
	SHLQ $3, R10         // A micro-panel stride in bytes

tile:
	MOVQ R13, DX
	PFROW
	PFROW
	PFROW
	PFROW
	PFROW
	PFROW
	MOVQ R13, DX
	MOVQ R11, SI
	MOVQ R12, DI
	MOVQ BX, CX

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
	MOVQ DX, R13         // the next tile starts on the row below
	ADDQ R10, R11
	DECQ R9
	JNZ  tile
	VZEROUPPER
	RET

// func cpuHasAVX512() bool
//
// AVX512F (CPUID leaf 7 EBX bit 16) with the OS saving opmask and zmm
// state (XCR0 bits 5–7) on top of xmm and ymm (bits 1–2). XGETBV needs
// OSXSAVE, which cpuHasAVXFMA checks: call this only where it holds.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID                // leaf 0: AX = highest basic leaf
	CMPL AX, $7
	JL   no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// ZSTEP multiplies the row of the two B strips at boff(DI) and
// boff(DI)(AX*1) by the A column at aoff(SI) into the accumulators: Z(2r)
// holds C row r's columns 0–7, against the first strip, Z(2r+1) its
// columns 8–15, against the second.
#define ZSTEP(aoff, boff) \
	VMOVUPD      boff(DI), Z12; \
	VMOVUPD      boff(DI)(AX*1), Z13; \
	VBROADCASTSD aoff(SI), Z14; \
	VFMADD231PD  Z12, Z14, Z0; \
	VFMADD231PD  Z13, Z14, Z1; \
	VBROADCASTSD aoff+8(SI), Z15; \
	VFMADD231PD  Z12, Z15, Z2; \
	VFMADD231PD  Z13, Z15, Z3; \
	VBROADCASTSD aoff+16(SI), Z14; \
	VFMADD231PD  Z12, Z14, Z4; \
	VFMADD231PD  Z13, Z14, Z5; \
	VBROADCASTSD aoff+24(SI), Z15; \
	VFMADD231PD  Z12, Z15, Z6; \
	VFMADD231PD  Z13, Z15, Z7; \
	VBROADCASTSD aoff+32(SI), Z14; \
	VFMADD231PD  Z12, Z14, Z8; \
	VFMADD231PD  Z13, Z14, Z9; \
	VBROADCASTSD aoff+40(SI), Z15; \
	VFMADD231PD  Z12, Z15, Z10; \
	VFMADD231PD  Z13, Z15, Z11

// ZADDROW adds the accumulator pair lo, hi into the 16-element C row at DX
// and steps DX to the next row.
#define ZADDROW(lo, hi) \
	VADDPD  (DX), lo, lo; \
	VMOVUPD lo, (DX); \
	VADDPD  64(DX), hi, hi; \
	VMOVUPD hi, 64(DX); \
	ADDQ    R8, DX

// ZPFROW prefetches the three cache lines the 16-element C row at DX can
// span and steps DX to the next row.
#define ZPFROW \
	PREFETCHT0 (DX); \
	PREFETCHT0 64(DX); \
	PREFETCHT0 120(DX); \
	ADDQ       R8, DX

// func kernelFMA512(kc int, ap, bp, ct *float64, ldc, tiles, apStride, bStride int)
//
// kernelFMA on a 6×16 tile: the same column walk, the same packed A
// micro-panels, and two adjacent packed nr=8 B strips, the second bStride
// elements after the first. Each zmm lane runs the chain the AVX2 kernel's
// ymm lane runs for the same C element — zeroed, one FMA per k in
// ascending order, added into C once — so the products are bit-identical.
TEXT ·kernelFMA512(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), BX
	MOVQ ap+8(FP), R11   // A micro-panel of the current tile
	MOVQ bp+16(FP), R12
	MOVQ ct+24(FP), R13  // top-left corner of the current C tile
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8          // C row stride in bytes
	MOVQ tiles+40(FP), R9
	MOVQ apStride+48(FP), R10
	SHLQ $3, R10         // A micro-panel stride in bytes
	MOVQ bStride+56(FP), AX
	SHLQ $3, AX          // second B strip's offset in bytes

tile:
	MOVQ R13, DX
	ZPFROW
	ZPFROW
	ZPFROW
	ZPFROW
	ZPFROW
	ZPFROW
	MOVQ R13, DX
	MOVQ R11, SI
	MOVQ R12, DI
	MOVQ BX, CX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11

	CMPQ CX, $4
	JL   tail

loop4:
	ZSTEP(0, 0)
	ZSTEP(48, 64)
	ZSTEP(96, 128)
	ZSTEP(144, 192)
	ADDQ $192, SI        // 4 k steps of 6 A values
	ADDQ $256, DI        // 4 k steps of 8 B values per strip
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  loop4

tail:
	TESTQ CX, CX
	JZ    store
	ZSTEP(0, 0)
	ADDQ  $48, SI
	ADDQ  $64, DI
	DECQ  CX
	JMP   tail

store:
	ZADDROW(Z0, Z1)
	ZADDROW(Z2, Z3)
	ZADDROW(Z4, Z5)
	ZADDROW(Z6, Z7)
	ZADDROW(Z8, Z9)
	ZADDROW(Z10, Z11)
	MOVQ DX, R13         // the next tile starts on the row below
	ADDQ R10, R11
	DECQ R9
	JNZ  tile
	VZEROUPPER
	RET
