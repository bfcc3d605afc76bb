package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topo"
)

const tol = 1e-10

// runAlgorithm distributes random n×n matrices over the grid, runs the
// given distributed multiply on the mpi runtime, gathers C and compares it
// element-wise against the sequential reference.
func runAlgorithm(t *testing.T, o Options, algo func(comm.Comm, Options, *matrix.Dense, *matrix.Dense, *matrix.Dense) error) {
	t.Helper()
	g := o.Grid
	bm, err := dist.NewBlockMap(o.N, o.N, g)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(o.N, o.N, 101)
	b := matrix.Random(o.N, o.N, 202)
	aT := bm.Scatter(a)
	bT := bm.Scatter(b)
	cT := make([]*matrix.Dense, g.Size())
	for r := range cT {
		cT[r] = matrix.New(bm.LocalRows(), bm.LocalCols())
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
	got := bm.Gather(cT)
	want := matrix.New(o.N, o.N)
	Reference(want, a, b)
	if d := matrix.MaxAbsDiff(got, want); d > tol {
		t.Fatalf("distributed result differs from reference by %g (opts %+v)", d, o)
	}
}

func TestSUMMAGridsAndBlocks(t *testing.T) {
	cases := []struct {
		s, t, n, b int
	}{
		{1, 1, 8, 2},
		{2, 2, 8, 2},
		{2, 2, 8, 4},
		{2, 4, 16, 2},
		{4, 2, 16, 2},
		{4, 4, 16, 4},
		{4, 4, 16, 1},
		{2, 2, 6, 3},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%dx%d_n%d_b%d", c.s, c.t, c.n, c.b), func(t *testing.T) {
			o := Options{N: c.n, Grid: topo.Grid{S: c.s, T: c.t}, Knobs: Knobs{BlockSize: c.b}}
			runAlgorithm(t, o, SUMMA)
		})
	}
}

func TestSUMMABroadcastAlgorithms(t *testing.T) {
	for _, alg := range sched.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			o := Options{N: 16, Grid: topo.Grid{S: 2, T: 4}, Knobs: Knobs{BlockSize: 4, Broadcast: alg}}
			runAlgorithm(t, o, SUMMA)
		})
	}
}

func TestHSUMMAGroupSweep(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	for _, G := range topo.ValidGroupCounts(g) {
		G := G
		t.Run(fmt.Sprintf("G%d", G), func(t *testing.T) {
			h, err := topo.FactorGroups(g, G)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{N: 16, Grid: g, Knobs: Knobs{BlockSize: 2}, Groups: h}
			runAlgorithm(t, o, HSUMMA)
		})
	}
}

func TestHSUMMARectangularGridsAndGroups(t *testing.T) {
	cases := []struct {
		s, t, i, j, n, b, B int
	}{
		{2, 4, 1, 2, 16, 2, 2},
		{2, 4, 2, 2, 16, 2, 4},
		{4, 2, 2, 1, 16, 4, 4},
		{4, 4, 2, 4, 16, 1, 2},
		{6, 6, 3, 3, 36, 2, 2}, // the paper's Figure 2 arrangement
		{6, 6, 2, 3, 36, 3, 3},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%dx%d_g%dx%d_b%d_B%d", c.s, c.t, c.i, c.j, c.b, c.B), func(t *testing.T) {
			g := topo.Grid{S: c.s, T: c.t}
			h, err := topo.NewHier(g, c.i, c.j)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{N: c.n, Grid: g, Knobs: Knobs{BlockSize: c.b, OuterBlockSize: c.B}, Groups: h}
			runAlgorithm(t, o, HSUMMA)
		})
	}
}

func TestHSUMMAInnerOuterBlockSplit(t *testing.T) {
	// b < B: several inner steps per outer step.
	g := topo.Grid{S: 2, T: 2}
	h, _ := topo.NewHier(g, 2, 1)
	o := Options{N: 16, Grid: g, Knobs: Knobs{BlockSize: 2, OuterBlockSize: 8}, Groups: h}
	runAlgorithm(t, o, HSUMMA)
}

func TestHSUMMAVanDeGeijnBroadcast(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	h, _ := topo.NewHier(g, 2, 2)
	o := Options{N: 16, Grid: g, Knobs: Knobs{BlockSize: 4, Broadcast: sched.VanDeGeijn}, Groups: h}
	runAlgorithm(t, o, HSUMMA)
}

// HSUMMA at G=1 and G=p must produce the same numerical result as SUMMA —
// the paper's degeneracy claim. With identical broadcast trees the
// floating-point sums associate identically, so equality is exact.
func TestHSUMMADegeneratesToSUMMA(t *testing.T) {
	g := topo.Grid{S: 2, T: 4}
	n, b := 16, 2
	bm, _ := dist.NewBlockMap(n, n, g)
	a := matrix.Random(n, n, 7)
	bb := matrix.Random(n, n, 8)
	run := func(algo func(comm.Comm, Options, *matrix.Dense, *matrix.Dense, *matrix.Dense) error, o Options) *matrix.Dense {
		aT, bT := bm.Scatter(a), bm.Scatter(bb)
		cT := make([]*matrix.Dense, g.Size())
		for r := range cT {
			cT[r] = matrix.New(bm.LocalRows(), bm.LocalCols())
		}
		if err := mpi.Run(g.Size(), func(c *mpi.Comm) {
			if e := algo(mpi.AsComm(c), o, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
				panic(e)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return bm.Gather(cT)
	}
	summaC := run(SUMMA, Options{N: n, Grid: g, Knobs: Knobs{BlockSize: b}})
	for _, G := range []int{1, g.Size()} {
		h, err := topo.FactorGroups(g, G)
		if err != nil {
			t.Fatal(err)
		}
		hC := run(HSUMMA, Options{N: n, Grid: g, Knobs: Knobs{BlockSize: b}, Groups: h})
		if !matrix.Equal(summaC, hC) {
			t.Fatalf("G=%d HSUMMA differs from SUMMA", G)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	g := topo.Grid{S: 2, T: 2}
	h, _ := topo.NewHier(g, 2, 2)
	cases := []struct {
		name string
		o    Options
		hier bool
	}{
		{"n not divisible by grid", Options{N: 9, Grid: g, Knobs: Knobs{BlockSize: 1}}, false},
		{"b does not divide tile", Options{N: 8, Grid: g, Knobs: Knobs{BlockSize: 3}}, false},
		{"zero n", Options{N: 0, Grid: g, Knobs: Knobs{BlockSize: 1}}, false},
		{"zero b", Options{N: 8, Grid: g, Knobs: Knobs{BlockSize: 0}}, false},
		{"B not multiple of b", Options{N: 16, Grid: g, Knobs: Knobs{BlockSize: 3, OuterBlockSize: 4}, Groups: h}, true},
		{"B too large for tile", Options{N: 8, Grid: g, Knobs: Knobs{BlockSize: 2, OuterBlockSize: 8}, Groups: h}, true},
		{"mismatched hierarchy", Options{N: 8, Grid: g, Knobs: Knobs{BlockSize: 2}, Groups: topo.Hier{Grid: topo.Grid{S: 4, T: 4}, I: 2, J: 2}}, true},
		{"groups exceed grid", Options{N: 8, Grid: g, Knobs: Knobs{BlockSize: 2}, Groups: topo.Hier{Grid: g, I: 4, J: 2}}, true},
		{"negative B", Options{N: 8, Grid: g, Knobs: Knobs{BlockSize: 2, OuterBlockSize: -2}, Groups: h}, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var levels []Level
			if c.hier {
				levels = c.o.GroupLevels()
			}
			if err := c.o.Validate(levels); err == nil {
				t.Fatalf("%s: accepted", c.name)
			}
		})
	}
}

func TestCommSizeMismatch(t *testing.T) {
	// Run 4 ranks but configure an 8-rank grid: every rank must get an
	// error rather than deadlocking.
	var mu sync.Mutex
	errs := 0
	err := mpi.Run(4, func(c *mpi.Comm) {
		o := Options{N: 16, Grid: topo.Grid{S: 2, T: 4}, Knobs: Knobs{BlockSize: 2}}
		tile := matrix.New(8, 4)
		if e := SUMMA(mpi.AsComm(c), o, tile, tile.Clone(), tile.Clone()); e != nil {
			mu.Lock()
			errs++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs != 4 {
		t.Fatalf("%d ranks errored, want 4", errs)
	}
}

func TestSUMMAAccumulatesIntoC(t *testing.T) {
	// C starts non-zero; the algorithms must add A·B, not overwrite.
	g := topo.Grid{S: 2, T: 2}
	n := 8
	o := Options{N: n, Grid: g, Knobs: Knobs{BlockSize: 2}}
	bm, _ := dist.NewBlockMap(n, n, g)
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	c0 := matrix.Random(n, n, 3)
	aT, bT, cT := bm.Scatter(a), bm.Scatter(b), bm.Scatter(c0)
	if err := mpi.Run(g.Size(), func(c *mpi.Comm) {
		if e := SUMMA(mpi.AsComm(c), o, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
			panic(e)
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := c0.Clone()
	Reference(want, a, b)
	if d := matrix.MaxAbsDiff(bm.Gather(cT), want); d > tol {
		t.Fatalf("accumulation broken, diff %g", d)
	}
}

func TestInputsUnmodified(t *testing.T) {
	g := topo.Grid{S: 2, T: 2}
	n := 8
	o := Options{N: n, Grid: g, Knobs: Knobs{BlockSize: 2}}
	bm, _ := dist.NewBlockMap(n, n, g)
	a := matrix.Random(n, n, 11)
	b := matrix.Random(n, n, 12)
	aT, bT := bm.Scatter(a), bm.Scatter(b)
	cT := make([]*matrix.Dense, g.Size())
	for r := range cT {
		cT[r] = matrix.New(bm.LocalRows(), bm.LocalCols())
	}
	if err := mpi.Run(g.Size(), func(c *mpi.Comm) {
		if e := SUMMA(mpi.AsComm(c), o, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
			panic(e)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(bm.Gather(aT), a) || !matrix.Equal(bm.Gather(bT), b) {
		t.Fatal("SUMMA modified its inputs")
	}
}

func TestHSUMMAStatsShowTwoLevelTraffic(t *testing.T) {
	// Sanity on the headline mechanism: with G groups, the inter-group
	// communicators carry traffic and the inner ones too; total sent
	// bytes must be positive on every rank that owns pivot data.
	g := topo.Grid{S: 4, T: 4}
	h, _ := topo.NewHier(g, 2, 2)
	n := 16
	o := Options{N: n, Grid: g, Knobs: Knobs{BlockSize: 2}, Groups: h}
	bm, _ := dist.NewBlockMap(n, n, g)
	a := matrix.Random(n, n, 5)
	b := matrix.Random(n, n, 6)
	aT, bT := bm.Scatter(a), bm.Scatter(b)
	cT := make([]*matrix.Dense, g.Size())
	for r := range cT {
		cT[r] = matrix.New(bm.LocalRows(), bm.LocalCols())
	}
	stats, err := mpi.RunStats(g.Size(), func(c *mpi.Comm) {
		if e := HSUMMA(mpi.AsComm(c), o, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
			panic(e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range stats {
		total += s.SentBytes
	}
	if total == 0 {
		t.Fatal("no traffic recorded")
	}
}
