// Package blas provides the dense floating-point kernels that stand in for
// the vendor BLAS libraries (Intel MKL on Grid'5000, IBM ESSL on BlueGene/P)
// used by the paper for all sequential computation. The central routine is
// Gemm, a packed, register-tiled matrix-matrix multiply in the GotoBLAS
// blocking scheme, with optional goroutine parallelism over write-disjoint
// C row bands (ParallelGemm — the intra-rank analog of the paper's OpenMP
// threads inside each MPI process); GemmPanels is the same loop on
// operands already in the kernel's packed layout, the live transport's
// panels; Naive is the O(n³) reference all other kernels are validated
// against.
//
// Every C element is computed the same way wherever it sits: one
// accumulation chain over its kc block's k terms in ascending order,
// started from zero and added into C once per block. Edge tiles run the
// same micro-kernel into a zeroed stack tile and add its valid part into C,
// so a product's bits depend only on (i, j, k) — never on the element's
// position in a register tile, a row band or a batched multi-RHS operand.
//
// CPUID picks the kernel once per process: a portable Go 6×8 kernel, the
// AVX2+FMA 6×8 assembly kernel, and on AVX-512 hosts a 6×16 zmm kernel
// that takes the full tiles over each pair of adjacent B strips while the
// AVX2 kernel keeps the rest. The two assembly kernels run the same FMA
// chain per element, so their products are bit-identical; the packed
// layout and block sizes are the same under all three.
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
// contiguous pooled buffers (or read in place from packed panels) so the
// micro-kernel streams them with unit stride regardless of the caller's
// layout. mr, nr, mc and nc only affect
// speed, never results; kc sets where each element's chain restarts.
const (
	mr = 6 // micro-tile rows of C per kernel invocation
	nr = 8 // micro-tile cols of C per B strip (two ymm registers; the AVX-512 tile spans two strips)

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

// packPool recycles packing buffers across calls: a serving process
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

// # Packed layout
//
// The kernel reads both operands packed. An LHS panel — the rows×k left
// operand of C += A·B — is a column of mr-row micro-panels, each k-major:
// the one starting at row i begins at offset i·k and holds element
// (i+r, p) at p·w + r, w being its width. An RHS panel (k×cols) is a row
// of nr-column strips laid out the same way: the strip starting at column
// j begins at j·k and holds (p, j+s) at p·w + s. Every micro-panel is mr
// wide and every strip nr wide except the last, which is compact — only
// as wide as the rows (columns) left — so a panel holds exactly its
// rows·cols elements, and a window of it along k is one contiguous run per
// micro-panel or strip. The macro loop reads packed panels in place; Gemm
// packs its row-major operands into the same layout one block at a time.

// PackLHS packs the rows×k matrix a into dst, which must hold rows·k
// elements, as an LHS panel.
func PackLHS(dst []float64, a *matrix.Dense) {
	packA(dst[:a.Rows*a.Cols], a, 0, a.Rows, 0, a.Cols)
}

// PackRHS packs the k×cols matrix b into dst, which must hold k·cols
// elements, as an RHS panel.
func PackRHS(dst []float64, b *matrix.Dense) {
	packB(dst[:b.Rows*b.Cols], b, 0, b.Rows, 0, b.Cols)
}

// WindowLHS fills dst, a packed rows×w LHS panel (w = len(dst)/rows), with
// columns [off, off+w) of src, a packed rows×k one.
func WindowLHS(dst, src []float64, rows, k, off int) { window(dst, src, rows, mr, k, off) }

// WindowRHS fills dst, a packed w×cols RHS panel (w = len(dst)/cols), with
// rows [off, off+w) of src, a packed k×cols one.
func WindowRHS(dst, src []float64, cols, k, off int) { window(dst, src, cols, nr, k, off) }

// window copies the k-window [off, off+w) of a packed panel whose n rows
// (columns) form groups of g: one run per micro-panel or strip.
func window(dst, src []float64, n, g, k, off int) {
	if n == 0 {
		return
	}
	w := len(dst) / n
	for i := 0; i < n; i += g {
		gw := min(g, n-i)
		copy(dst[i*w:i*w+gw*w], src[i*k+off*gw:i*k+(off+w)*gw])
	}
}

// packA packs the A block [i0,i0+rows)×[k0,k0+kc) as an LHS panel of
// depth kc, interleaving six rows per k step.
func packA(ap []float64, a *matrix.Dense, i0, rows, k0, kc int) {
	i := 0
	for ; i+mr <= rows; i += mr {
		at := (i0+i)*a.Stride + k0
		r0 := a.Data[at : at+kc]
		r1 := a.Data[at+a.Stride:][:len(r0)]
		r2 := a.Data[at+2*a.Stride:][:len(r0)]
		r3 := a.Data[at+3*a.Stride:][:len(r0)]
		r4 := a.Data[at+4*a.Stride:][:len(r0)]
		r5 := a.Data[at+5*a.Stride:][:len(r0)]
		dst := ap[i*kc : (i+mr)*kc]
		for k := range r0 {
			d := dst[k*mr : k*mr+mr : k*mr+mr]
			d[0], d[1], d[2], d[3], d[4], d[5] = r0[k], r1[k], r2[k], r3[k], r4[k], r5[k]
		}
	}
	left := rows - i
	dst := ap[i*kc : (i+left)*kc]
	for r := 0; r < left; r++ {
		at := (i0+i+r)*a.Stride + k0
		for k, v := range a.Data[at : at+kc] {
			dst[k*left+r] = v
		}
	}
}

// packB packs the B block [k0,k0+kc)×[j0,j0+cols) as an RHS panel of
// depth kc — effectively a transpose into contiguous kc×nr strips —
// assigning each full strip's rows element by element.
func packB(bp []float64, b *matrix.Dense, k0, kc, j0, cols int) {
	j := 0
	for ; j+nr <= cols; j += nr {
		dst := bp[j*kc : (j+nr)*kc]
		at := k0*b.Stride + j0 + j
		for k := 0; k < kc; k++ {
			s := b.Data[at+k*b.Stride:][:nr:nr]
			d := dst[k*nr : k*nr+nr : k*nr+nr]
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		}
	}
	left := cols - j
	dst := bp[j*kc : (j+left)*kc]
	at := k0*b.Stride + j0 + j
	for k := 0; k < kc; k++ {
		copy(dst[k*left:k*left+left], b.Data[at+k*b.Stride:][:left])
	}
}

// block is one kc-deep block of a packed operand as the kernel reads it:
// full micro-panel (strip) q starts at data[q·stride], mr (nr) values per
// k step, and tail is the ragged last one, zero-padded to mr (nr) wide.
// The padding lands in rows (columns) of the edge path's stack tile that
// never reach C, so it never changes results.
type block struct {
	data   []float64
	stride int
	tail   []float64
}

// operand is one side of the product as the macro loop reads it: the
// packed panel p of depth k, read in place, or — when m is set — the
// row-major matrix m, packed one block at a time into scratch as a panel
// of depth kc. A block's compact tail is widened into scratch either way.
// g is mr for A and nr for B.
type operand struct {
	m       *matrix.Dense
	p       []float64
	k, g    int
	scratch []float64
}

// scratchLen is the scratch the operand needs for blocks of up to n rows
// (columns), kc deep: the widened tail, and for a matrix the packed block.
func (o *operand) scratchLen(n, kc int) int {
	if o.m != nil {
		return (o.g + n) * kc
	}
	return o.g * kc
}

// block returns the operand's block of rows (A) or columns (B) [lo,lo+n)
// over depth [k0,k0+kc); lo is a multiple of g.
func (o *operand) block(lo, n, k0, kc int) block {
	p, k, tail := o.p, o.k, o.scratch[:o.g*kc]
	if o.m != nil {
		p, k = o.scratch[o.g*kc:][:n*kc], kc
		if o.g == mr {
			packA(p, o.m, lo, n, k0, kc)
		} else {
			packB(p, o.m, k0, kc, lo, n)
		}
		lo, k0 = 0, 0
	}
	var bl block
	full := n - n%o.g
	if full > 0 {
		bl = block{data: p[lo*k+k0*o.g:], stride: o.g * k}
	}
	if r := n - full; r > 0 {
		src := p[(lo+full)*k+k0*r:][:kc*r]
		for q := 0; q < kc; q++ {
			copy(tail[q*o.g:q*o.g+r], src[q*r:q*r+r])
			clear(tail[q*o.g+r : q*o.g+o.g])
		}
		bl.tail = tail
	}
	return bl
}

// gemmLoop is the one macro loop, over C rows [i0,i1) and depth kdim: jc
// over nc-wide column blocks, pc over kc-deep steps, ic over mc-tall row
// blocks, then macro over the block pair. Splitting on C rows keeps
// parallel bands write-disjoint.
func gemmLoop(c *matrix.Dense, i0, i1, kdim int, a, b operand) {
	n := c.Cols
	if i1 <= i0 || n == 0 || kdim == 0 {
		return
	}
	kc := min(kcBlock, kdim)
	aBuf := packBuf(a.scratchLen(min(mcBlock, i1-i0), kc))
	bBuf := packBuf(b.scratchLen(min(ncBlock, n), kc))
	a.scratch, b.scratch = *aBuf, *bBuf
	for jc := 0; jc < n; jc += ncBlock {
		ncb := min(ncBlock, n-jc)
		for pc := 0; pc < kdim; pc += kcBlock {
			kcb := min(kcBlock, kdim-pc)
			bb := b.block(jc, ncb, pc, kcb)
			for ic := i0; ic < i1; ic += mcBlock {
				mcb := min(mcBlock, i1-ic)
				macro(c.Data[ic*c.Stride+jc:], c.Stride, mcb, ncb, kcb, a.block(ic, mcb, pc, kcb), bb)
			}
		}
	}
	packPool.Put(aBuf)
	packPool.Put(bBuf)
}

// macro adds the product of a packed rows×kc A block and a packed kc×cols
// B block into the rows×cols corner of C at ct (row stride ldc). For each
// B strip the column kernel runs down every full tile — on AVX-512 hosts
// the wide kernel takes the full strips two at a time — and a tile in the
// ragged last rows or columns takes the edge path.
func macro(ct []float64, ldc, rows, cols, kc int, a, b block) {
	full := rows / mr
	paired := 0 // columns the wide kernel covers, strip pairs from the left
	if useAVX512Kernel && full > 0 {
		paired = cols / (2 * nr) * (2 * nr)
	}
	for jr := 0; jr < cols; jr += nr {
		bs, ncols := b.tail, cols-jr
		if ncols >= nr {
			bs, ncols = b.data[jr/nr*b.stride:], nr
		}
		cj := ct[jr:]
		if jr < paired {
			if jr%(2*nr) == 0 {
				wideKernel(kc, a.data, bs, cj, ldc, full, a.stride, b.stride)
			}
		} else if ncols == nr && full > 0 {
			microKernel(kc, a.data, bs, cj, ldc, full, a.stride)
		} else {
			for q := 0; q < full; q++ {
				edge(kc, a.data[q*a.stride:], bs, cj[q*mr*ldc:], ldc, mr, ncols)
			}
		}
		if r := rows - full*mr; r > 0 {
			edge(kc, a.tail, bs, cj[full*mr*ldc:], ldc, r, ncols)
		}
	}
}

// edge runs the kernel on one tile into a zeroed stack tile and adds its
// valid rows×cols part into C — C + acc, as the kernel does on a full
// tile.
func edge(kc int, ap, bp, ct []float64, ldc, rows, cols int) {
	var tile [mr * nr]float64
	microKernel(kc, ap, bp, tile[:], nr, 1, 0)
	for i := 0; i < rows; i++ {
		ci := ct[i*ldc : i*ldc+cols]
		for j := range ci {
			ci[j] += tile[i*nr+j]
		}
	}
}

// microKernel adds tiles stacked 6×8 products into C: tile t multiplies
// the A micro-panel at ap[t·apStride] by the B strip bp over depth kc and
// adds the result into the tile whose top-left corner is ct[t·mr·ldc] (row
// stride ldc). On FMA hosts the assembly kernel runs, elsewhere the
// portable one; both keep one chain per C element.
func microKernel(kc int, ap, bp, ct []float64, ldc, tiles, apStride int) {
	_ = ap[(tiles-1)*apStride+kc*mr-1]
	_ = bp[kc*nr-1]
	_ = ct[(tiles*mr-1)*ldc+nr-1]
	if useFMAKernel {
		kernelFMA(kc, &ap[0], &bp[0], &ct[0], ldc, tiles, apStride)
		return
	}
	kernelGo(kc, ap, bp, ct, ldc, tiles, apStride)
}

// wideKernel adds tiles stacked 6×16 products into C, as microKernel does
// 6×8 ones: the B strip bp and the one bStride elements after it are the
// tile's two halves. Each C element keeps the chain it has under
// kernelFMA, so the two kernels' products are bit-identical.
func wideKernel(kc int, ap, bp, ct []float64, ldc, tiles, apStride, bStride int) {
	_ = ap[(tiles-1)*apStride+kc*mr-1]
	_ = bp[bStride+kc*nr-1]
	_ = ct[(tiles*mr-1)*ldc+2*nr-1]
	kernelFMA512(kc, &ap[0], &bp[0], &ct[0], ldc, tiles, apStride, bStride)
}

// kernelGo is the portable micro-kernel. It walks each mr×nr tile in 2×4
// sub-blocks of eight scalar accumulators — few enough that the compiler
// keeps every chain in a register — so C is loaded and stored once per kc
// block instead of once per k step, and the independent chains expose
// instruction-level parallelism the single-accumulator scalar loop cannot.
func kernelGo(kc int, ap, bp, ct []float64, ldc, tiles, apStride int) {
	bp = bp[: kc*nr : kc*nr]
	for t := 0; t < tiles; t++ {
		at := ap[t*apStride : t*apStride+kc*mr : t*apStride+kc*mr]
		cb := ct[t*mr*ldc:]
		for i := 0; i < mr; i += 2 {
			for j := 0; j < nr; j += 4 {
				var c00, c01, c02, c03, c10, c11, c12, c13 float64
				for ka, kb := i, j; kb < len(bp); ka, kb = ka+mr, kb+nr {
					b, a := bp[kb:kb+4:kb+4], at[ka:ka+2:ka+2]
					c00 += a[0] * b[0]
					c01 += a[0] * b[1]
					c02 += a[0] * b[2]
					c03 += a[0] * b[3]
					c10 += a[1] * b[0]
					c11 += a[1] * b[1]
					c12 += a[1] * b[2]
					c13 += a[1] * b[3]
				}
				r0 := cb[i*ldc+j : i*ldc+j+4 : i*ldc+j+4]
				r1 := cb[(i+1)*ldc+j : (i+1)*ldc+j+4 : (i+1)*ldc+j+4]
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
	gemmLoop(c, 0, a.Rows, a.Cols, operand{m: a, g: mr}, operand{m: b, g: nr})
}

// GemmPanels computes C += A·B on packed panels read in place: a holds
// the C.Rows×k LHS panel and b the k×C.Cols RHS panel (see PackLHS,
// PackRHS). threads > 1 splits C's rows into bands as ParallelGemm does.
// The product's bits are Gemm's on the unpacked operands: the same kc
// blocking and the same chain per element.
func GemmPanels(c *matrix.Dense, a, b []float64, k, threads int) {
	if len(a) != c.Rows*k || len(b) != k*c.Cols {
		panic(fmt.Sprintf("blas: panels of %d and %d elements for C(%dx%d) at depth %d", len(a), len(b), c.Rows, c.Cols, k))
	}
	gemmBands(c, k, threads, operand{p: a, k: k, g: mr}, operand{p: b, k: k, g: nr})
}

// ParallelGemm computes C += A·B splitting C's rows across up to workers
// goroutines (GOMAXPROCS when workers <= 0). Workers own disjoint row bands
// of C, so no synchronisation beyond the final join is needed, and the band
// partition depends only on (rows, workers) — repeated runs at a fixed
// worker count are bit-identical. B is packed once, as an RHS panel, and
// every band reads it; each band packs its own blocks of A.
func ParallelGemm(c, a, b *matrix.Dense, workers int) {
	checkGemmShapes(c, a, b)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bp := packBuf(b.Rows * b.Cols)
	PackRHS(*bp, b)
	gemmBands(c, a.Cols, workers, operand{m: a, g: mr}, operand{p: *bp, k: a.Cols, g: nr})
	packPool.Put(bp)
}

// gemmBands runs the macro loop over all of C's rows on up to workers
// goroutines, each owning a write-disjoint band of whole mc blocks —
// worker w takes blocks [w·blocks/workers, (w+1)·blocks/workers), so a
// band never starts mid-block, where a straddled block would be packed
// twice — and serially for products under 32³, where the fork costs more
// than it saves.
func gemmBands(c *matrix.Dense, kdim, workers int, a, b operand) {
	blocks := (c.Rows + mcBlock - 1) / mcBlock
	if workers = min(workers, blocks); workers <= 1 || c.Rows*c.Cols*kdim < 32*32*32 {
		gemmLoop(c, 0, c.Rows, kdim, a, b)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		i0 := w * blocks / workers * mcBlock
		i1 := min((w+1)*blocks/workers*mcBlock, c.Rows)
		if i0 >= i1 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			gemmLoop(c, i0, i1, kdim, a, b)
		}()
	}
	wg.Wait()
}

// FlopsGemm returns the floating-point operation count of an m×k by k×n
// multiply-accumulate, using the conventional 2mnk (one multiply + one add
// per term), the same accounting the paper's 2n³/p computation cost uses.
func FlopsGemm(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}

// HasFMAKernel reports whether the assembly microkernels are active on
// this host (amd64 with AVX2, FMA and OS-enabled YMM state): the AVX2+FMA
// 6×8 kernel, plus — where CPUID also reports AVX512F and the OS saves zmm
// state — the 6×16 zmm kernel on full tiles over strip pairs, whose bits
// are the AVX2 kernel's. Otherwise the portable register-tiled Go kernel
// runs. Exposed for benchmarks and diagnostics — every path satisfies the
// same accuracy contract.
func HasFMAKernel() bool { return useFMAKernel }
