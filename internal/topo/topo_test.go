package topo

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestGridCoordsRankRoundTrip(t *testing.T) {
	g, err := NewGrid(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Size(); r++ {
		i, j := g.Coords(r)
		if g.Rank(i, j) != r {
			t.Fatalf("rank %d -> (%d,%d) -> %d", r, i, j, g.Rank(i, j))
		}
	}
}

func TestGridRowMajor(t *testing.T) {
	g := Grid{S: 2, T: 3}
	i, j := g.Coords(4)
	if i != 1 || j != 1 {
		t.Fatalf("rank 4 in 2x3 = (%d,%d), want (1,1)", i, j)
	}
}

func TestNewGridRejectsBad(t *testing.T) {
	if _, err := NewGrid(0, 3); err == nil {
		t.Fatal("0-row grid accepted")
	}
	if _, err := NewGrid(3, -1); err == nil {
		t.Fatal("negative-col grid accepted")
	}
}

func TestRowColRanks(t *testing.T) {
	g := Grid{S: 2, T: 3}
	row := g.RowRanks(1)
	if len(row) != 3 || row[0] != 3 || row[2] != 5 {
		t.Fatalf("row 1 = %v", row)
	}
	col := g.ColRanks(2)
	if len(col) != 2 || col[0] != 2 || col[1] != 5 {
		t.Fatalf("col 2 = %v", col)
	}
}

func TestSquarestGrid(t *testing.T) {
	cases := []struct{ p, s, t int }{
		{1, 1, 1}, {4, 2, 2}, {16, 4, 4}, {128, 8, 16}, {16384, 128, 128},
		{6, 2, 3}, {12, 3, 4}, {7, 1, 7}, {2048, 32, 64},
	}
	for _, c := range cases {
		g, err := SquarestGrid(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if g.S != c.s || g.T != c.t {
			t.Fatalf("SquarestGrid(%d) = %v, want %dx%d", c.p, g, c.s, c.t)
		}
	}
	if _, err := SquarestGrid(0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestHierDivisibility(t *testing.T) {
	g := Grid{S: 6, T: 6}
	if _, err := NewHier(g, 4, 2); err == nil {
		t.Fatal("4 does not divide 6, should fail")
	}
	h, err := NewHier(g, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.InnerS() != 2 || h.InnerT() != 2 || h.Groups() != 9 {
		t.Fatalf("paper's Figure 2 example wrong: %v", h)
	}
}

// Decompose inverts the row-major rank of the hierarchical address:
// rank = (x·s/I + i)·t + (y·t/J + j), with every coordinate in range.
func TestHierDecomposeInvertsGridRank(t *testing.T) {
	g := Grid{S: 8, T: 16}
	for _, gg := range []struct{ i, j int }{{1, 1}, {2, 4}, {8, 16}, {4, 2}, {1, 16}} {
		h, err := NewHier(g, gg.i, gg.j)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.Size(); r++ {
			x, y, i, j := h.Decompose(r)
			if x < 0 || x >= h.I || y < 0 || y >= h.J || i < 0 || i >= h.InnerS() || j < 0 || j >= h.InnerT() {
				t.Fatalf("%v: rank %d -> (%d,%d,%d,%d) out of range", h, r, x, y, i, j)
			}
			if back := g.Rank(x*h.InnerS()+i, y*h.InnerT()+j); back != r {
				t.Fatalf("%v: rank %d -> (%d,%d,%d,%d) -> %d", h, r, x, y, i, j, back)
			}
		}
	}
}

// Communicator colour invariants: each colour class must have exactly the
// size the paper's Algorithm 1 requires, and the classes partition the grid.
func TestColorClassSizes(t *testing.T) {
	g := Grid{S: 8, T: 16}
	h, err := NewHier(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition := func(name string, color func(int) int, wantSize int) {
		classes := map[int][]int{}
		for r := 0; r < g.Size(); r++ {
			c := color(r)
			classes[c] = append(classes[c], r)
		}
		total := 0
		for c, members := range classes {
			if len(members) != wantSize {
				t.Fatalf("%s colour %d has %d members, want %d", name, c, len(members), wantSize)
			}
			total += len(members)
		}
		if total != g.Size() {
			t.Fatalf("%s classes do not partition the grid", name)
		}
	}
	checkPartition("row", g.RowColor, g.T)
	checkPartition("col", g.ColColor, g.S)
	checkPartition("innerRow", h.InnerRowColor, h.InnerT()) // t/J = 4
}

func TestFactorGroupsPrefersSquareInner(t *testing.T) {
	g := Grid{S: 128, T: 128}
	h, err := FactorGroups(g, 512)
	if err != nil {
		t.Fatal(err)
	}
	// 512 = 16*32 or 32*16 both give inner 8x4 / 4x8; either is fine but
	// G must be exact and divisible.
	if h.Groups() != 512 {
		t.Fatalf("G = %d", h.Groups())
	}
	h4, err := FactorGroups(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h4.I != 2 || h4.J != 2 {
		t.Fatalf("G=4 on square grid should be 2x2, got %dx%d", h4.I, h4.J)
	}
}

func TestFactorGroupsInfeasible(t *testing.T) {
	g := Grid{S: 8, T: 16} // p = 128
	if _, err := FactorGroups(g, 3); err == nil {
		t.Fatal("G=3 cannot divide an 8x16 grid")
	}
	if _, err := FactorGroups(g, 0); err == nil {
		t.Fatal("G=0 accepted")
	}
}

func TestValidGroupCountsEndpoints(t *testing.T) {
	g := Grid{S: 8, T: 16}
	counts := ValidGroupCounts(g)
	if counts[0] != 1 {
		t.Fatal("G=1 must always be valid")
	}
	last := counts[len(counts)-1]
	if last != g.Size() {
		t.Fatalf("G=p must always be valid, got max %d", last)
	}
	// All powers of two up to 128 must be present for the paper's sweep.
	want := map[int]bool{1: true, 2: true, 4: true, 8: true, 16: true, 32: true, 64: true, 128: true}
	seen := map[int]bool{}
	for _, c := range counts {
		seen[c] = true
	}
	for w := range want {
		if !seen[w] {
			t.Fatalf("power-of-two G=%d missing from valid counts %v", w, counts)
		}
	}
}

// bruteFactorGroups is the original enumeration, kept as the reference:
// every i in 1..G, scored by the inner grid's aspect ratio, first (smallest
// i) wins ties.
func bruteFactorGroups(g Grid, G int) (Hier, bool) {
	var best Hier
	var bestScore float64
	found := false
	for i := 1; i <= G; i++ {
		if G%i != 0 {
			continue
		}
		h, err := NewHier(g, i, G/i)
		if err != nil {
			continue
		}
		a, b := float64(h.InnerS()), float64(h.InnerT())
		score := a / b
		if b > a {
			score = b / a
		}
		if !found || score < bestScore {
			best, bestScore, found = h, score, true
		}
	}
	return best, found
}

// TestFactorGroupsMatchesBruteForce: the divisor-pair enumeration picks
// exactly what trying every G in 1..p and every i ≤ G picked, on every
// grid with p ≤ 256.
func TestFactorGroupsMatchesBruteForce(t *testing.T) {
	for p := 1; p <= 256; p++ {
		for s := 1; s <= p; s++ {
			if p%s != 0 {
				continue
			}
			g := Grid{S: s, T: p / s}
			var want []int
			for G := 1; G <= p; G++ {
				ref, ok := bruteFactorGroups(g, G)
				h, err := FactorGroups(g, G)
				if ok != (err == nil) || (ok && h != ref) {
					t.Fatalf("grid %v G=%d: got %+v (%v), want %+v (found %v)", g, G, h, err, ref, ok)
				}
				if ok {
					want = append(want, G)
				}
			}
			if got := ValidGroupCounts(g); !reflect.DeepEqual(got, want) {
				t.Fatalf("grid %v: ValidGroupCounts %v, want %v", g, got, want)
			}
		}
	}
}

// Property: for any valid hierarchy, inner and group communicator sizes
// multiply back to the full grid dimensions.
func TestQuickHierSizes(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		s := int(a%4+1) * 2
		tt := int(b%4+1) * 2
		g := Grid{S: s, T: tt}
		// Pick divisors of s and t.
		i := 1 << (int(c) % 3)
		j := 1 << (int(d) % 3)
		if s%i != 0 || tt%j != 0 {
			return true // skip infeasible
		}
		h, err := NewHier(g, i, j)
		if err != nil {
			return false
		}
		return h.InnerS()*h.I == s && h.InnerT()*h.J == tt && h.Groups() == i*j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHierSpecialCasesAreSUMMA(t *testing.T) {
	// G=1: one group containing the whole grid; G=p: every rank its own
	// group. Both degenerate to plain SUMMA (paper Section III).
	g := Grid{S: 4, T: 4}
	h1, _ := NewHier(g, 1, 1)
	if h1.InnerS() != 4 || h1.InnerT() != 4 {
		t.Fatal("G=1 inner grid must equal the full grid")
	}
	hp, _ := NewHier(g, 4, 4)
	if hp.InnerS() != 1 || hp.InnerT() != 1 {
		t.Fatal("G=p inner grids must be single ranks")
	}
}
