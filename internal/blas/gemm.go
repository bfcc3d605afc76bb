// Package blas provides the dense floating-point kernels that stand in for
// the vendor BLAS libraries (Intel MKL on Grid'5000, IBM ESSL on BlueGene/P)
// used by the paper for all sequential computation. The central routine is
// Gemm, a packed, register-tiled matrix-matrix multiply in the GotoBLAS
// blocking scheme, with optional goroutine parallelism over write-disjoint
// C row bands (ParallelGemm — the intra-rank analog of the paper's OpenMP
// threads inside each MPI process); Naive is the O(n³) reference all other
// kernels are validated against.
//
// Every C element is computed the same way wherever it sits: one
// accumulation chain over its kc block's k terms in ascending order,
// started from zero and added into C once per block. Edge tiles run the
// same micro-kernel into a zeroed stack tile and add its valid part into C,
// so a product's bits depend only on (i, j, k) — never on the element's
// position in a register tile, a row band or a batched multi-RHS operand.
package blas

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/matrix"
)

// Register-tile and cache-block sizes for the packed kernel. The micro-tile
// is mr×nr entries of C held in register accumulators for a full kc-long
// contraction; mc×kc panels of A and kc×nc panels of B are packed into
// contiguous pooled buffers so the micro-kernel streams them with unit
// stride regardless of the caller's layout. mr, nr, mc and nc only affect
// speed, never results; kc sets where each element's chain restarts.
const (
	mr = 6 // micro-tile rows of C per kernel invocation
	nr = 8 // micro-tile cols of C per kernel invocation (two ymm registers)

	mcBlock = 144  // A panel rows resident in L2 while B micropanels stream; a multiple of mr
	kcBlock = 256  // contraction depth packed per panel pair
	ncBlock = 2048 // B panel cols packed per outer iteration
)

// checkGemmShapes panics unless C += A·B is well-formed.
func checkGemmShapes(c, a, b *matrix.Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("blas: gemm shape mismatch C(%dx%d) += A(%dx%d)*B(%dx%d)",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Naive computes C += A·B with three plain loops. It is the correctness
// oracle for every other kernel and for the distributed algorithms.
func Naive(c, a, b *matrix.Dense) {
	checkGemmShapes(c, a, b)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		crow := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Data[k*b.Stride : k*b.Stride+b.Cols]
			for j, bkj := range brow {
				crow[j] += aik * bkj
			}
		}
	}
}

// packPool recycles packing buffers across calls: a resident serving rank
// multiplies the same panel shapes millions of times, and the pool makes
// the steady state allocation-free.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

func packBuf(n int) *[]float64 {
	p := packPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func roundUp(v, q int) int { return (v + q - 1) / q * q }

// packA copies the A block [i0,i0+mcb)×[k0,k0+kcb) into mr-row micropanels:
// micropanel i/mr holds element (i,k) at offset k*mr + i%mr, so the kernel
// reads one mr-wide column slice per k step with unit stride. Rows past mcb
// in the last micropanel are zero-filled; their products land in rows of
// the edge path's stack tile that are never added into C, so padding never
// changes results.
func packA(ap []float64, a *matrix.Dense, i0, mcb, k0, kcb int) {
	for i := 0; i < mcb; i += mr {
		dst := ap[(i/mr)*kcb*mr : (i/mr+1)*kcb*mr]
		rows := min(mr, mcb-i)
		for r := 0; r < rows; r++ {
			src := a.Data[(i0+i+r)*a.Stride+k0 : (i0+i+r)*a.Stride+k0+kcb]
			for k, v := range src {
				dst[k*mr+r] = v
			}
		}
		for r := rows; r < mr; r++ {
			for k := 0; k < kcb; k++ {
				dst[k*mr+r] = 0
			}
		}
	}
}

// packB copies the B block [k0,k0+kcb)×[j0,j0+ncb) into nr-column
// micropanels: micropanel j/nr holds element (k,j) at offset k*nr + j%nr —
// effectively a transpose into contiguous kc×nr strips. Columns past ncb in
// the last micropanel are zero-filled.
func packB(bp []float64, b *matrix.Dense, k0, kcb, j0, ncb int) {
	for j := 0; j < ncb; j += nr {
		dst := bp[(j/nr)*kcb*nr : (j/nr+1)*kcb*nr]
		cols := min(nr, ncb-j)
		for k := 0; k < kcb; k++ {
			d := dst[k*nr : k*nr+nr]
			copy(d, b.Data[(k0+k)*b.Stride+j0+j:(k0+k)*b.Stride+j0+j+cols])
			clear(d[cols:])
		}
	}
}

// microKernel adds the product of one packed A micropanel and one packed B
// micropanel over depth kc into the mr×nr tile whose top-left corner is
// ct[0] (row stride ldc). On FMA hosts the assembly kernel runs, elsewhere
// the portable one; both keep one chain per C element.
func microKernel(kc int, ap, bp, ct []float64, ldc int) {
	if useFMAKernel {
		kernelFMA(kc, &ap[0], &bp[0], &ct[0], ldc)
		return
	}
	kernelGo(kc, ap, bp, ct, ldc)
}

// kernelGo is the portable micro-kernel. It walks the mr×nr tile in 2×4
// sub-blocks of eight scalar accumulators — few enough that the compiler
// keeps every chain in a register — so C is loaded and stored once per kc
// block instead of once per k step, and the independent chains expose
// instruction-level parallelism the single-accumulator scalar loop cannot.
func kernelGo(kc int, ap, bp, ct []float64, ldc int) {
	ap = ap[: kc*mr : kc*mr]
	bp = bp[: kc*nr : kc*nr]
	for i := 0; i < mr; i += 2 {
		for j := 0; j < nr; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			for ka, kb := i, j; kb < len(bp); ka, kb = ka+mr, kb+nr {
				b, a := bp[kb:kb+4:kb+4], ap[ka:ka+2:ka+2]
				c00 += a[0] * b[0]
				c01 += a[0] * b[1]
				c02 += a[0] * b[2]
				c03 += a[0] * b[3]
				c10 += a[1] * b[0]
				c11 += a[1] * b[1]
				c12 += a[1] * b[2]
				c13 += a[1] * b[3]
			}
			r0 := ct[i*ldc+j : i*ldc+j+4 : i*ldc+j+4]
			r1 := ct[(i+1)*ldc+j : (i+1)*ldc+j+4 : (i+1)*ldc+j+4]
			r0[0] += c00
			r0[1] += c01
			r0[2] += c02
			r0[3] += c03
			r1[0] += c10
			r1[1] += c11
			r1[2] += c12
			r1[3] += c13
		}
	}
}

// Gemm computes C += A·B with the packed register-tiled kernel. It accepts
// views (non-tight strides) for all operands. Results are deterministic:
// every C entry accumulates its k-terms in ascending order (register
// accumulation within each kc block, blocks applied in order), so repeated
// runs are bit-identical and an element's bits do not depend on its
// position (see the package comment) — though the float association
// differs from Naive's by the per-block partial sums.
func Gemm(c, a, b *matrix.Dense) {
	checkGemmShapes(c, a, b)
	gemmRows(c, a, b, 0, a.Rows)
}

// gemmRows runs the packed path over C rows [i0,i1). Splitting on C rows
// keeps parallel workers write-disjoint; each band packs its own panels,
// so bands share nothing but the read-only inputs.
func gemmRows(c, a, b *matrix.Dense, i0, i1 int) {
	n, kdim := b.Cols, a.Cols
	if i1 <= i0 || n == 0 || kdim == 0 {
		return
	}
	kcMax := min(kcBlock, kdim)
	apBuf := packBuf(roundUp(min(mcBlock, i1-i0), mr) * kcMax)
	bpBuf := packBuf(roundUp(min(ncBlock, n), nr) * kcMax)
	for jc := 0; jc < n; jc += ncBlock {
		ncb := min(ncBlock, n-jc)
		for pc := 0; pc < kdim; pc += kcBlock {
			kcb := min(kcBlock, kdim-pc)
			bp := (*bpBuf)[:roundUp(ncb, nr)*kcb]
			packB(bp, b, pc, kcb, jc, ncb)
			for ic := i0; ic < i1; ic += mcBlock {
				mcb := min(mcBlock, i1-ic)
				ap := (*apBuf)[:roundUp(mcb, mr)*kcb]
				packA(ap, a, ic, mcb, pc, kcb)
				for jr := 0; jr < ncb; jr += nr {
					bpj := bp[(jr/nr)*kcb*nr:]
					ncols := min(nr, ncb-jr)
					for ir := 0; ir < mcb; ir += mr {
						apo := ap[(ir/mr)*kcb*mr:]
						mrows := min(mr, mcb-ir)
						ct := c.Data[(ic+ir)*c.Stride+jc+jr:]
						if mrows == mr && ncols == nr {
							microKernel(kcb, apo, bpj, ct, c.Stride)
							continue
						}
						// Edge tile: the same kernel into a zeroed tile, whose
						// valid part then goes into C — C + acc, as above.
						var tile [mr * nr]float64
						microKernel(kcb, apo, bpj, tile[:], nr)
						for i := 0; i < mrows; i++ {
							ci := ct[i*c.Stride : i*c.Stride+ncols]
							for j := range ci {
								ci[j] += tile[i*nr+j]
							}
						}
					}
				}
			}
		}
	}
	packPool.Put(apBuf)
	packPool.Put(bpBuf)
}

// ParallelGemm computes C += A·B splitting C's rows across up to workers
// goroutines (GOMAXPROCS when workers <= 0). Workers own disjoint row bands
// of C, so no synchronisation beyond the final join is needed, and the band
// partition depends only on (rows, workers) — repeated runs at a fixed
// worker count are bit-identical. Band boundaries land on multiples of the
// mc packing block so a worker never starts mid-panel: a straddled mc panel
// would be packed twice, once by each neighbour.
func ParallelGemm(c, a, b *matrix.Dense, workers int) {
	checkGemmShapes(c, a, b)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rows := a.Rows
	// Partition whole mc blocks, not rows: worker w takes blocks
	// [w·blocks/workers, (w+1)·blocks/workers), the same balanced split as
	// before but quantised to the packing granularity.
	blocks := (rows + mcBlock - 1) / mcBlock
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 || rows*b.Cols*a.Cols < 32*32*32 {
		gemmRows(c, a, b, 0, rows)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		i0 := w * blocks / workers * mcBlock
		i1 := (w + 1) * blocks / workers * mcBlock
		if i1 > rows {
			i1 = rows
		}
		if i0 >= i1 {
			continue
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			gemmRows(c, a, b, i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}

// FlopsGemm returns the floating-point operation count of an m×k by k×n
// multiply-accumulate, using the conventional 2mnk (one multiply + one add
// per term), the same accounting the paper's 2n³/p computation cost uses.
func FlopsGemm(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}

// HasFMAKernel reports whether the AVX2+FMA assembly microkernel is active
// on this host (amd64 with AVX2, FMA and OS-enabled YMM state); otherwise
// the portable register-tiled Go kernel runs. Exposed for benchmarks and
// diagnostics — both paths satisfy the same accuracy contract.
func HasFMAKernel() bool { return useFMAKernel }
