package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/topo"
)

// runRect distributes random M×K and K×N matrices over the grid by their
// own shapes, runs the distributed multiply on the mpi runtime, gathers C
// and compares it element-wise against the sequential reference — the
// rectangular counterpart of runAlgorithm.
func runRect(t *testing.T, o Options, algo func(comm.Comm, Options, *matrix.Dense, *matrix.Dense, *matrix.Dense) error) {
	t.Helper()
	sh, g := o.Shape, o.Grid
	bmA, err := dist.NewBlockMap(sh.M, sh.K, g)
	if err != nil {
		t.Fatal(err)
	}
	bmB, err := dist.NewBlockMap(sh.K, sh.N, g)
	if err != nil {
		t.Fatal(err)
	}
	bmC, err := dist.NewBlockMap(sh.M, sh.N, g)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(sh.M, sh.K, 301)
	b := matrix.Random(sh.K, sh.N, 302)
	aT, bT := bmA.Scatter(a), bmB.Scatter(b)
	cT := make([]*matrix.Dense, g.Size())
	for r := range cT {
		cT[r] = matrix.New(bmC.LocalRows(), bmC.LocalCols())
	}
	var mu sync.Mutex
	var algErr error
	err = mpi.Run(g.Size(), func(c *mpi.Comm) {
		if e := algo(mpi.AsComm(c), o, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
			mu.Lock()
			if algErr == nil {
				algErr = e
			}
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if algErr != nil {
		t.Fatal(algErr)
	}
	got := bmC.Gather(cT)
	want := matrix.New(sh.M, sh.N)
	Reference(want, a, b)
	if d := matrix.MaxAbsDiff(got, want); d > tol {
		t.Fatalf("distributed result differs from reference by %g (opts %+v)", d, o)
	}
}

// Rectangular SUMMA across the aspect classes: tall (M≫N), wide (N≫M),
// fat-K (K≫M,N), skinny-K, and asymmetric grids in both orientations.
func TestSUMMARectangularShapes(t *testing.T) {
	cases := []struct {
		m, n, k, s, gt, b int
	}{
		{32, 8, 16, 2, 2, 4},  // tall
		{8, 32, 16, 2, 2, 4},  // wide
		{8, 8, 64, 2, 2, 8},   // fat-K
		{64, 64, 8, 4, 4, 2},  // skinny-K
		{24, 12, 36, 2, 3, 3}, // asymmetric grid, non-power-of-two
		{12, 24, 36, 3, 2, 6}, // transposed orientation
		{16, 4, 16, 4, 2, 2},  // tall on a tall grid
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("M%dN%dK%d_%dx%d_b%d", c.m, c.n, c.k, c.s, c.gt, c.b), func(t *testing.T) {
			o := Options{Shape: matrix.Shape{M: c.m, N: c.n, K: c.k},
				Grid: topo.Grid{S: c.s, T: c.gt}, Knobs: Knobs{BlockSize: c.b}}
			runRect(t, o, SUMMA)
		})
	}
}

func TestHSUMMARectangularShapes(t *testing.T) {
	cases := []struct {
		m, n, k, s, gt, i, j, b, B int
	}{
		{32, 8, 16, 4, 4, 2, 2, 2, 4},  // tall, 2x2 groups, B > b
		{8, 32, 64, 2, 4, 1, 2, 4, 8},  // wide, row groups
		{16, 16, 96, 4, 4, 2, 4, 4, 8}, // fat-K, skewed groups
		{24, 12, 36, 2, 3, 2, 3, 3, 3}, // non-power-of-two everything
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("M%dN%dK%d_%dx%d_g%dx%d", c.m, c.n, c.k, c.s, c.gt, c.i, c.j), func(t *testing.T) {
			g := topo.Grid{S: c.s, T: c.gt}
			h, err := topo.NewHier(g, c.i, c.j)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Shape: matrix.Shape{M: c.m, N: c.n, K: c.k},
				Grid: g, Knobs: Knobs{BlockSize: c.b, OuterBlockSize: c.B}, Groups: h}
			runRect(t, o, HSUMMA)
		})
	}
}

func TestMultilevelRectangularShapes(t *testing.T) {
	cases := []struct {
		m, n, k int
		levels  []Level
		b       int
	}{
		{32, 8, 64, []Level{{I: 2, J: 2, BlockSize: 8}}, 4},
		{8, 32, 64, []Level{{I: 2, J: 2, BlockSize: 8}, {I: 2, J: 2, BlockSize: 4}}, 2},
	}
	g := topo.Grid{S: 4, T: 4}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("M%dN%dK%d_L%d", c.m, c.n, c.k, len(c.levels)), func(t *testing.T) {
			o := Options{Shape: matrix.Shape{M: c.m, N: c.n, K: c.k}, Grid: g}
			runRect(t, o, func(cm comm.Comm, o Options, a, b, cc *matrix.Dense) error {
				return MultilevelHSUMMA(cm, o, c.levels, c.b, a, b, cc)
			})
		})
	}
}

// HSUMMA at G=1 must still equal SUMMA bit-for-bit on rectangular shapes
// — the paper's degeneracy claim carries over to the generalisation.
func TestHSUMMARectDegeneratesToSUMMA(t *testing.T) {
	sh := matrix.Shape{M: 24, N: 8, K: 16}
	g := topo.Grid{S: 2, T: 4}
	bmA, _ := dist.NewBlockMap(sh.M, sh.K, g)
	bmB, _ := dist.NewBlockMap(sh.K, sh.N, g)
	bmC, _ := dist.NewBlockMap(sh.M, sh.N, g)
	a := matrix.Random(sh.M, sh.K, 7)
	bb := matrix.Random(sh.K, sh.N, 8)
	run := func(algo func(comm.Comm, Options, *matrix.Dense, *matrix.Dense, *matrix.Dense) error, o Options) *matrix.Dense {
		aT, bT := bmA.Scatter(a), bmB.Scatter(bb)
		cT := make([]*matrix.Dense, g.Size())
		for r := range cT {
			cT[r] = matrix.New(bmC.LocalRows(), bmC.LocalCols())
		}
		if err := mpi.Run(g.Size(), func(c *mpi.Comm) {
			if e := algo(mpi.AsComm(c), o, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
				panic(e)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return bmC.Gather(cT)
	}
	summaC := run(SUMMA, Options{Shape: sh, Grid: g, Knobs: Knobs{BlockSize: 2}})
	for _, G := range []int{1, g.Size()} {
		h, err := topo.FactorGroups(g, G)
		if err != nil {
			t.Fatal(err)
		}
		hC := run(HSUMMA, Options{Shape: sh, Grid: g, Knobs: Knobs{BlockSize: 2}, Groups: h})
		if !matrix.Equal(summaC, hC) {
			t.Fatalf("G=%d HSUMMA differs from SUMMA on %v", G, sh)
		}
	}
}

func TestRectValidationErrors(t *testing.T) {
	g := topo.Grid{S: 2, T: 2}
	cases := []struct {
		name string
		o    Options
	}{
		{"M not divisible", Options{Shape: matrix.Shape{M: 9, N: 8, K: 8}, Grid: g, Knobs: Knobs{BlockSize: 2}}},
		{"K not divisible by T", Options{Shape: matrix.Shape{M: 8, N: 8, K: 10}, Grid: g, Knobs: Knobs{BlockSize: 2}}},
		{"b exceeds K extent", Options{Shape: matrix.Shape{M: 16, N: 16, K: 4}, Grid: g, Knobs: Knobs{BlockSize: 4}}},
		{"zero K", Options{Shape: matrix.Shape{M: 8, N: 8, K: 0}, Grid: g, Knobs: Knobs{BlockSize: 2}}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := c.o.Validate(nil); err == nil {
				t.Fatalf("%s accepted", c.name)
			}
		})
	}
}
