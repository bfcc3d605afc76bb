package blas

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

const tol = 1e-12

func TestNaiveIdentity(t *testing.T) {
	a := matrix.Random(5, 5, 1)
	c := matrix.New(5, 5)
	Naive(c, a, matrix.Identity(5))
	if matrix.MaxAbsDiff(c, a) > tol {
		t.Fatal("A·I != A")
	}
}

func TestNaiveKnownProduct(t *testing.T) {
	a := matrix.FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := matrix.FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := matrix.New(2, 2)
	Naive(c, a, b)
	want := matrix.FromSlice(2, 2, []float64{58, 64, 139, 154})
	if matrix.MaxAbsDiff(c, want) != 0 {
		t.Fatalf("got %v want %v", c, want)
	}
}

func TestNaiveAccumulates(t *testing.T) {
	a := matrix.Identity(3)
	c := matrix.Constant(3, 3, 1)
	Naive(c, a, a)
	// C = 1 + I
	if c.At(0, 0) != 2 || c.At(0, 1) != 1 {
		t.Fatalf("accumulation wrong: %v", c)
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {17, 19, 23}, {64, 64, 64}, {65, 70, 33}, {128, 100, 90}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := matrix.Random(m, k, uint64(m*1000+n))
		b := matrix.Random(k, n, uint64(n*1000+k))
		want := matrix.New(m, n)
		Naive(want, a, b)
		got := matrix.New(m, n)
		Gemm(got, a, b)
		if d := matrix.MaxAbsDiff(got, want); d > tol {
			t.Fatalf("gemm(%d,%d,%d) differs from naive by %g", m, n, k, d)
		}
	}
}

func TestGemmOnViews(t *testing.T) {
	// All operands are strided views into larger matrices.
	bigA := matrix.Random(20, 20, 7)
	bigB := matrix.Random(20, 20, 8)
	bigC := matrix.New(20, 20)
	a := bigA.View(2, 3, 10, 12)
	b := bigB.View(1, 4, 12, 9)
	c := bigC.View(5, 5, 10, 9)
	want := matrix.New(10, 9)
	Naive(want, a.Clone(), b.Clone())
	Gemm(c, a, b)
	if d := matrix.MaxAbsDiff(c.Clone(), want); d > tol {
		t.Fatalf("gemm on views differs by %g", d)
	}
	// Nothing outside the C view may be touched.
	if bigC.At(0, 0) != 0 || bigC.At(19, 19) != 0 || bigC.At(4, 5) != 0 {
		t.Fatal("gemm wrote outside the C view")
	}
}

func TestParallelGemmMatchesNaive(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 16} {
		m, n, k := 57, 43, 61
		a := matrix.Random(m, k, 21)
		b := matrix.Random(k, n, 22)
		want := matrix.New(m, n)
		Naive(want, a, b)
		got := matrix.New(m, n)
		ParallelGemm(got, a, b, workers)
		if d := matrix.MaxAbsDiff(got, want); d > tol {
			t.Fatalf("parallel gemm (workers=%d) differs by %g", workers, d)
		}
	}
}

func TestParallelGemmMoreWorkersThanRows(t *testing.T) {
	a := matrix.Random(2, 40, 1)
	b := matrix.Random(40, 40, 2)
	want := matrix.New(2, 40)
	Naive(want, a, b)
	got := matrix.New(2, 40)
	ParallelGemm(got, a, b, 64)
	if matrix.MaxAbsDiff(got, want) > tol {
		t.Fatal("parallel gemm wrong with workers > rows")
	}
}

func TestGemmShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	Gemm(matrix.New(2, 2), matrix.New(2, 3), matrix.New(2, 2))
}

// Property: (A(B+B2)) == AB + AB2 — Gemm distributes over matrix addition.
func TestQuickDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		m := int(seed%6) + 1
		k := int(seed/6%6) + 1
		n := int(seed/36%6) + 1
		a := matrix.Random(m, k, seed)
		b1 := matrix.Random(k, n, seed+1)
		b2 := matrix.Random(k, n, seed+2)
		sum := b1.Clone()
		sum.Add(b2)
		left := matrix.New(m, n)
		Gemm(left, a, sum)
		right := matrix.New(m, n)
		Gemm(right, a, b1)
		Gemm(right, a, b2)
		return matrix.MaxAbsDiff(left, right) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: (AB)ᵀ == BᵀAᵀ.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed uint64) bool {
		m := int(seed%5) + 1
		k := int(seed/5%5) + 1
		n := int(seed/25%5) + 1
		a := matrix.Random(m, k, seed)
		b := matrix.Random(k, n, seed*3+1)
		ab := matrix.New(m, n)
		Gemm(ab, a, b)
		btat := matrix.New(n, m)
		Gemm(btat, b.Transpose(), a.Transpose())
		return matrix.MaxAbsDiff(ab.Transpose(), btat) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: associativity (AB)C == A(BC) within tolerance.
func TestQuickAssociative(t *testing.T) {
	f := func(seed uint64) bool {
		d := int(seed%5) + 1
		a := matrix.Random(d, d, seed)
		b := matrix.Random(d, d, seed+10)
		c := matrix.Random(d, d, seed+20)
		ab := matrix.New(d, d)
		Gemm(ab, a, b)
		abc1 := matrix.New(d, d)
		Gemm(abc1, ab, c)
		bc := matrix.New(d, d)
		Gemm(bc, b, c)
		abc2 := matrix.New(d, d)
		Gemm(abc2, a, bc)
		return matrix.MaxAbsDiff(abc1, abc2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFlopsGemm(t *testing.T) {
	if FlopsGemm(10, 20, 30) != 12000 {
		t.Fatalf("flops = %v", FlopsGemm(10, 20, 30))
	}
}

func BenchmarkGemm256(b *testing.B) {
	a := matrix.Random(256, 256, 1)
	bb := matrix.Random(256, 256, 2)
	c := matrix.New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Zero()
		Gemm(c, a, bb)
	}
}

// BenchmarkGemmPanel times live_compute's per-step local multiply — SUMMA
// 1×2 at n=1024, b=256: each rank adds A 1024×256 · B 256×512 into a
// 1024×512 view of its C — and reports the kernel's rate in GFLOP/s.
func BenchmarkGemmPanel(b *testing.B) {
	a := matrix.Random(1024, 256, 1)
	bb := matrix.Random(256, 512, 2)
	c := matrix.New(1024, 1024).View(0, 256, 1024, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(c, a, bb)
	}
	b.ReportMetric(FlopsGemm(1024, 512, 256)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkParallelGemm256(b *testing.B) {
	a := matrix.Random(256, 256, 1)
	bb := matrix.Random(256, 256, 2)
	c := matrix.New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Zero()
		ParallelGemm(c, a, bb, 0)
	}
}

// relDiff is the max elementwise |got-want| / max(1, |want|) — the packed
// kernel reassociates the k loop (per-kc-block partial sums, FMA), so it is
// compared to Naive in relative terms rather than bitwise.
func relDiff(got, want *matrix.Dense) float64 {
	var worst float64
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			w := want.At(i, j)
			den := math.Abs(w)
			if den < 1 {
				den = 1
			}
			if d := math.Abs(got.At(i, j)-w) / den; d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Property: the packed kernel agrees with Naive within 1e-9 relative on
// arbitrary ragged shapes — hitting every edge-masking path (m%mr, n%nr,
// k%kcBlock remainders) across sizes that span one and many register
// tiles, cache blocks and kc panels.
func TestGemmPackedMatchesNaiveRagged(t *testing.T) {
	forEachKernel(t, testGemmPackedMatchesNaiveRagged)
}

func testGemmPackedMatchesNaiveRagged(t *testing.T) {
	f := func(ms, ns, ks uint8, seed uint16) bool {
		m, n, k := int(ms)%97+1, int(ns)%89+1, int(ks)%101+1
		a := matrix.Random(m, k, uint64(seed))
		b := matrix.Random(k, n, uint64(seed)+1)
		want := matrix.New(m, n)
		Naive(want, a, b)
		got := matrix.New(m, n)
		Gemm(got, a, b)
		return relDiff(got, want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	// Shapes crossing the mcBlock/kcBlock/ncBlock boundaries, where the
	// packed loop nest takes multi-panel paths the small quick shapes miss.
	for _, dims := range [][3]int{{129, 67, 257}, {256, 2049, 300}, {131, 137, 513}, {1, 1, 1000}, {300, 1, 300}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := matrix.Random(m, k, 5)
		b := matrix.Random(k, n, 6)
		want := matrix.New(m, n)
		Naive(want, a, b)
		got := matrix.New(m, n)
		Gemm(got, a, b)
		if d := relDiff(got, want); d > 1e-9 {
			t.Fatalf("gemm(%d,%d,%d) relative error %g vs naive", m, n, k, d)
		}
	}
}

// Property: the packed kernel handles non-tight strided views of all three
// operands (stride > cols) identically to dense copies.
func TestGemmPackedOnStridedViews(t *testing.T) {
	forEachKernel(t, testGemmPackedOnStridedViews)
}

func testGemmPackedOnStridedViews(t *testing.T) {
	f := func(ms, ns, ks uint8, seed uint16) bool {
		m, n, k := int(ms)%50+1, int(ns)%50+1, int(ks)%50+1
		bigA := matrix.Random(m+7, k+9, uint64(seed))
		bigB := matrix.Random(k+5, n+11, uint64(seed)+1)
		bigC := matrix.New(m+3, n+6)
		a := bigA.View(4, 5, m, k)
		b := bigB.View(2, 8, k, n)
		c := bigC.View(1, 2, m, n)
		want := matrix.New(m, n)
		Naive(want, a.Clone(), b.Clone())
		Gemm(c, a, b)
		if relDiff(c.Clone(), want) >= 1e-9 {
			return false
		}
		// The packed writeback must stay inside the C view.
		return bigC.At(0, 0) == 0 && bigC.At(m+2, n+5) == 0 && bigC.At(0, n+5) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The kernel must be bit-deterministic at every fixed worker count:
// repeated runs of Gemm, and of ParallelGemm at each count, produce
// identical bits (the serving layer's session-vs-oneshot equality and the
// engine parity tests rely on this).
func TestGemmDeterministicPerThreadCount(t *testing.T) {
	forEachKernel(t, testGemmDeterministicPerThreadCount)
}

func testGemmDeterministicPerThreadCount(t *testing.T) {
	m, n, k := 137, 129, 257
	a := matrix.Random(m, k, 91)
	b := matrix.Random(k, n, 92)
	run := func(workers int) *matrix.Dense {
		c := matrix.New(m, n)
		if workers <= 1 {
			Gemm(c, a, b)
		} else {
			ParallelGemm(c, a, b, workers)
		}
		return c
	}
	for _, workers := range []int{1, 2, 4} {
		first := run(workers)
		for rep := 0; rep < 3; rep++ {
			again := run(workers)
			if !matrix.Equal(first, again) {
				t.Fatalf("workers=%d: repeated runs are not bit-identical", workers)
			}
		}
	}
}

// ParallelGemm's small-problem cutoff must route through the packed path,
// matching Gemm bitwise.
func TestParallelGemmCutoffMatchesGemm(t *testing.T) {
	m, n, k := 20, 20, 20 // below the 32³ cutoff
	a := matrix.Random(m, k, 11)
	b := matrix.Random(k, n, 12)
	want := matrix.New(m, n)
	Gemm(want, a, b)
	got := matrix.New(m, n)
	ParallelGemm(got, a, b, 8)
	if !matrix.Equal(got, want) {
		t.Fatal("cutoff path differs bitwise from Gemm")
	}
}

// forEachKernel runs f as a subtest once per micro-kernel this host can
// execute — the portable one always, the assembly one where the CPU has
// it — and restores the host's choice afterwards.
func forEachKernel(t *testing.T, f func(*testing.T)) {
	host := useFMAKernel
	defer func() { useFMAKernel = host }()
	for _, fma := range []bool{false, true} {
		if fma && !host {
			continue
		}
		useFMAKernel = fma
		name := "portable"
		if fma {
			name = "fma"
		}
		t.Run(name, f)
	}
}

// The packing blocks must hold whole register tiles: ParallelGemm splits
// rows on mcBlock boundaries, so a band starting mid-tile would change
// which tiles take the edge path.
func TestBlocksAreWholeTiles(t *testing.T) {
	if mcBlock%mr != 0 || ncBlock%nr != 0 {
		t.Fatalf("mcBlock %d / ncBlock %d not multiples of the %dx%d tile", mcBlock, ncBlock, mr, nr)
	}
}

// A product's bits depend only on (i, j, k), never on where the element
// sits in a register tile: shifting A down by 1..mr-1 rows or B right by
// 1..nr-1 columns moves every element to another tile position (and full
// tiles to edge tiles and back) without changing a bit of the product
// block, and ParallelGemm's row bands agree with Gemm bit for bit. The
// serving layer's same-A batching relies on this — a request's columns
// land at a different offset inside the widened operand.
func TestGemmPositionIndependent(t *testing.T) {
	forEachKernel(t, testGemmPositionIndependent)
}

func testGemmPositionIndependent(t *testing.T) {
	for _, dims := range [][3]int{{29, 27, 23}, {7, 9, 5}, {50, 61, 257}, {13, 17, 300}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := matrix.Random(m, k, uint64(m))
		b := matrix.Random(k, n, uint64(n))
		want := matrix.New(m, n)
		Gemm(want, a, b)
		for off := 1; off < mr; off++ {
			bigA := matrix.Random(m+off, k, 99)
			bigA.View(off, 0, m, k).CopyFrom(a)
			got := matrix.New(m+off, n)
			Gemm(got, bigA, b)
			if !matrix.Equal(got.View(off, 0, m, n), want) {
				t.Fatalf("gemm(%d,%d,%d): A shifted down %d rows changes the product's bits", m, n, k, off)
			}
		}
		for off := 1; off < nr; off++ {
			bigB := matrix.Random(k, n+off, 98)
			bigB.View(0, off, k, n).CopyFrom(b)
			got := matrix.New(m, n+off)
			Gemm(got, a, bigB)
			if !matrix.Equal(got.View(0, off, m, n), want) {
				t.Fatalf("gemm(%d,%d,%d): B shifted right %d columns changes the product's bits", m, n, k, off)
			}
		}
	}
	m, n, k := 4*mcBlock+5, 37, 300
	a := matrix.Random(m, k, 3)
	b := matrix.Random(k, n, 4)
	want := matrix.New(m, n)
	Gemm(want, a, b)
	for _, workers := range []int{2, 3, 4, 7} {
		got := matrix.New(m, n)
		ParallelGemm(got, a, b, workers)
		if !matrix.Equal(got, want) {
			t.Fatalf("ParallelGemm(workers=%d) differs bitwise from Gemm", workers)
		}
	}
}

// TestParallelGemmBandAlignment: band boundaries must be multiples of the
// mc packing block (so straddled panels are never packed twice) and the
// threaded result must stay bit-identical to the serial kernel.
func TestParallelGemmBandAlignment(t *testing.T) {
	for _, rows := range []int{128, 200, 257, 1000} {
		a := matrix.Random(rows, 90, 5)
		b := matrix.Random(90, 70, 6)
		want := matrix.New(rows, 70)
		Gemm(want, a, b)
		for _, w := range []int{2, 3, 4, 9} {
			got := matrix.New(rows, 70)
			ParallelGemm(got, a, b, w)
			if !matrix.Equal(got, want) {
				t.Fatalf("rows=%d workers=%d differs from serial", rows, w)
			}
		}
	}
}
