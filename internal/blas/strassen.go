package blas

import (
	"sync"

	"repro/internal/matrix"
)

// Strassen's sub-cubic GEMM. StrassenGemm computes C += A·B by recursive
// 2×2 quadrant splits with the seven Strassen products, falling back to the
// packed register-tiled kernel below a tunable cutoff. Odd dimensions are
// padded to even with pooled zero-extended copies only at the levels where
// a dimension is odd; even levels recurse on views and copy nothing. The
// result is bit-deterministic and independent of the thread count: the
// seven top-level products are computed independently (possibly in
// parallel) and their twelve C contributions are always applied in the same
// fixed product order, so serial and threaded runs produce identical bits.
// Strassen reassociates the float arithmetic, so results differ from
// Gemm/Naive in the low bits — validate against a reference with a relative
// tolerance, not bit equality.

// DefaultStrassenCutoff is the dimension at or below which the recursion
// bottoms out in the packed kernel. Strassen trades one multiply for ~18
// quadrant-sized adds per level; below a few hundred the packed kernel's
// O(n³) with high arithmetic intensity wins, above it the 7/8 multiply
// saving compounds. Tuned on a crossover sweep against Gemm (n=2048 gives
// ~1.2x over packed with this cutoff).
const DefaultStrassenCutoff = 256

// StrassenCutoff normalises a user-supplied cutoff: values ≤ 0 select
// DefaultStrassenCutoff, and the floor of 8 keeps the recursion from
// degenerating into scalar-sized leaves.
func StrassenCutoff(c int) int {
	if c <= 0 {
		return DefaultStrassenCutoff
	}
	if c < 8 {
		return 8
	}
	return c
}

// StrassenGemm computes C += A·B with Strassen's algorithm, recursing while
// min(m,n,k) exceeds the cutoff (≤ 0 selects DefaultStrassenCutoff) and
// bottoming out in the packed kernel. threads > 1 runs the seven top-level
// products across up to min(threads, 7) goroutines; deeper levels and the
// combine stage are serial, so the result is bit-identical at every thread
// count.
func StrassenGemm(c, a, b *matrix.Dense, cutoff, threads int) {
	checkGemmShapes(c, a, b)
	cutoff = StrassenCutoff(cutoff)
	if strassenBase(a.Rows, b.Cols, a.Cols, cutoff) {
		ParallelGemm(c, a, b, threads)
		return
	}
	if threads > 1 {
		strassenParallel(c, a, b, cutoff, threads)
		return
	}
	strassen(c, a, b, cutoff)
}

func strassenBase(m, n, k, cutoff int) bool {
	return m <= cutoff || n <= cutoff || k <= cutoff
}

// strassenTerm is one quadrant contribution: quadrant index (row-major 0..3)
// and its sign.
type strassenTerm struct {
	q    int
	sign float64
}

// strassenProduct describes one of the seven Strassen products
// M = (ΣA)·(ΣB) and its C contributions.
type strassenProduct struct {
	a, b []strassenTerm
	c    []strassenTerm
}

// strassenProducts is the classic Strassen table. Quadrants are row-major:
// 0=11, 1=12, 2=21, 3=22.
//
//	M1 = (A11+A22)(B11+B22)   C11 += M1, C22 += M1
//	M2 = (A21+A22)·B11        C21 += M2, C22 -= M2
//	M3 = A11·(B12-B22)        C12 += M3, C22 += M3
//	M4 = A22·(B21-B11)        C11 += M4, C21 += M4
//	M5 = (A11+A12)·B22        C11 -= M5, C12 += M5
//	M6 = (A21-A11)(B11+B12)   C22 += M6
//	M7 = (A12-A22)(B21+B22)   C11 += M7
var strassenProducts = [7]strassenProduct{
	{a: []strassenTerm{{0, 1}, {3, 1}}, b: []strassenTerm{{0, 1}, {3, 1}}, c: []strassenTerm{{0, 1}, {3, 1}}},
	{a: []strassenTerm{{2, 1}, {3, 1}}, b: []strassenTerm{{0, 1}}, c: []strassenTerm{{2, 1}, {3, -1}}},
	{a: []strassenTerm{{0, 1}}, b: []strassenTerm{{1, 1}, {3, -1}}, c: []strassenTerm{{1, 1}, {3, 1}}},
	{a: []strassenTerm{{3, 1}}, b: []strassenTerm{{2, 1}, {0, -1}}, c: []strassenTerm{{0, 1}, {2, 1}}},
	{a: []strassenTerm{{0, 1}, {1, 1}}, b: []strassenTerm{{3, 1}}, c: []strassenTerm{{0, -1}, {1, 1}}},
	{a: []strassenTerm{{2, 1}, {0, -1}}, b: []strassenTerm{{0, 1}, {1, 1}}, c: []strassenTerm{{3, 1}}},
	{a: []strassenTerm{{1, 1}, {3, -1}}, b: []strassenTerm{{2, 1}, {3, 1}}, c: []strassenTerm{{0, 1}}},
}

// quadrants returns the four r2×c2 quadrant views of an even-padded 2r2×2c2
// region of m. The caller guarantees m is at least that large; edge
// quadrants of an exactly-sized matrix are full views.
func quadrants(m *matrix.Dense, r2, c2 int) [4]*matrix.Dense {
	return [4]*matrix.Dense{
		m.View(0, 0, r2, c2), m.View(0, c2, r2, c2),
		m.View(r2, 0, r2, c2), m.View(r2, c2, r2, c2),
	}
}

// tmpDense wraps a pooled buffer as a tight r×c matrix.
func tmpDense(buf *[]float64, r, c int) *matrix.Dense {
	return &matrix.Dense{Rows: r, Cols: c, Stride: c, Data: (*buf)[:r*c]}
}

// combineInto writes dst = Σ sign·quadrant over the term list (dst has a
// tight stride; quadrants may be views).
func combineInto(dst *matrix.Dense, quads [4]*matrix.Dense, terms []strassenTerm) *matrix.Dense {
	first := quads[terms[0].q]
	if terms[0].sign == 1 && len(terms) == 1 {
		return first // single positive term: use the view directly
	}
	for i := 0; i < dst.Rows; i++ {
		d := dst.Data[i*dst.Stride : i*dst.Stride+dst.Cols]
		s := first.Data[i*first.Stride : i*first.Stride+first.Cols]
		if terms[0].sign == 1 {
			copy(d, s)
		} else {
			for j, v := range s {
				d[j] = -v
			}
		}
	}
	for _, t := range terms[1:] {
		Axpy(t.sign, quads[t.q], dst)
	}
	return dst
}

// padEven copies src into a pooled zero-padded 2r2×2c2 matrix.
func padEven(buf *[]float64, src *matrix.Dense, r2, c2 int) *matrix.Dense {
	dst := tmpDense(buf, 2*r2, 2*c2)
	dst.Zero()
	dst.View(0, 0, src.Rows, src.Cols).CopyFrom(src)
	return dst
}

// strassen is the serial recursion: C += A·B. One set of pooled sum/product
// temporaries is reused across the seven products; each product's C
// contributions are applied immediately after it is computed, in product
// order — the same per-quadrant axpy order the parallel path uses.
func strassen(c, a, b *matrix.Dense, cutoff int) {
	m, n, k := a.Rows, b.Cols, a.Cols
	if strassenBase(m, n, k, cutoff) {
		gemmRows(c, a, b, 0, m)
		return
	}
	m2, n2, k2 := (m+1)/2, (n+1)/2, (k+1)/2
	if m%2 != 0 || n%2 != 0 || k%2 != 0 {
		// Pad to even at this level only; deeper odd levels pad again.
		abuf, bbuf, cbuf := packBuf(4*m2*k2), packBuf(4*k2*n2), packBuf(4*m2*n2)
		ap := padEven(abuf, a, m2, k2)
		bp := padEven(bbuf, b, k2, n2)
		cp := tmpDense(cbuf, 2*m2, 2*n2)
		cp.Zero()
		strassen(cp, ap, bp, cutoff)
		c.Add(cp.View(0, 0, m, n))
		packPool.Put(abuf)
		packPool.Put(bbuf)
		packPool.Put(cbuf)
		return
	}
	aq, bq, cq := quadrants(a, m2, k2), quadrants(b, k2, n2), quadrants(c, m2, n2)
	saBuf, sbBuf, pBuf := packBuf(m2*k2), packBuf(k2*n2), packBuf(m2*n2)
	sa, sb, p := tmpDense(saBuf, m2, k2), tmpDense(sbBuf, k2, n2), tmpDense(pBuf, m2, n2)
	for _, prod := range strassenProducts {
		ta := combineInto(sa, aq, prod.a)
		tb := combineInto(sb, bq, prod.b)
		p.Zero()
		strassen(p, ta, tb, cutoff)
		for _, t := range prod.c {
			Axpy(t.sign, p, cq[t.q])
		}
	}
	packPool.Put(saBuf)
	packPool.Put(sbBuf)
	packPool.Put(pBuf)
	return
}

// strassenParallel runs the seven top-level products across up to
// min(threads, 7) workers, each product serial inside, then applies the
// twelve C contributions serially in product order — the identical
// per-quadrant axpy sequence the serial path produces, so the bits match.
func strassenParallel(c, a, b *matrix.Dense, cutoff, threads int) {
	m, n, k := a.Rows, b.Cols, a.Cols
	m2, n2, k2 := (m+1)/2, (n+1)/2, (k+1)/2
	if m%2 != 0 || n%2 != 0 || k%2 != 0 {
		abuf, bbuf, cbuf := packBuf(4*m2*k2), packBuf(4*k2*n2), packBuf(4*m2*n2)
		ap := padEven(abuf, a, m2, k2)
		bp := padEven(bbuf, b, k2, n2)
		cp := tmpDense(cbuf, 2*m2, 2*n2)
		cp.Zero()
		strassenParallel(cp, ap, bp, cutoff, threads)
		c.Add(cp.View(0, 0, m, n))
		packPool.Put(abuf)
		packPool.Put(bbuf)
		packPool.Put(cbuf)
		return
	}
	aq, bq, cq := quadrants(a, m2, k2), quadrants(b, k2, n2), quadrants(c, m2, n2)
	workers := threads
	if workers > 7 {
		workers = 7
	}
	var prods [7]*matrix.Dense
	var bufs [7]*[]float64
	next := make(chan int, 7)
	for r := range strassenProducts {
		bufs[r] = packBuf(m2 * n2)
		prods[r] = tmpDense(bufs[r], m2, n2)
		next <- r
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			saBuf, sbBuf := packBuf(m2*k2), packBuf(k2*n2)
			sa, sb := tmpDense(saBuf, m2, k2), tmpDense(sbBuf, k2, n2)
			for r := range next {
				prod := strassenProducts[r]
				ta := combineInto(sa, aq, prod.a)
				tb := combineInto(sb, bq, prod.b)
				prods[r].Zero()
				strassen(prods[r], ta, tb, cutoff)
			}
			packPool.Put(saBuf)
			packPool.Put(sbBuf)
		}()
	}
	wg.Wait()
	for r, prod := range strassenProducts {
		for _, t := range prod.c {
			Axpy(t.sign, prods[r], cq[t.q])
		}
		packPool.Put(bufs[r])
	}
}

// StrassenFlops returns the flop count the Strassen recursion actually
// executes for an m×k by k×n multiply at the given cutoff (≤ 0 selects the
// default): 2·m·n·k at the leaves, plus per level the five two-term A-sum
// adds, five B-sum adds and twelve quadrant C axpys (one flop per element
// each). This is the single accounting shared by the virtual engines and
// the tune scorer, so simulated compute time stays bit-identical across
// transports.
func StrassenFlops(m, n, k, cutoff int) float64 {
	cutoff = StrassenCutoff(cutoff)
	return strassenFlops(m, n, k, cutoff)
}

func strassenFlops(m, n, k, cutoff int) float64 {
	if strassenBase(m, n, k, cutoff) {
		return FlopsGemm(m, n, k)
	}
	m2, n2, k2 := (m+1)/2, (n+1)/2, (k+1)/2
	return 7*strassenFlops(m2, n2, k2, cutoff) +
		5*float64(m2)*float64(k2) + 5*float64(k2)*float64(n2) + 12*float64(m2)*float64(n2)
}
