package core

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topo"
)

func runCyclic(t *testing.T, g topo.Grid, n, b int, bcast sched.Algorithm) {
	t.Helper()
	cm, err := dist.NewCyclicMap(n, n, b, b, g)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(n, n, 61)
	bb := matrix.Random(n, n, 62)
	aT, bT := cm.Scatter(a), cm.Scatter(bb)
	cT := make([]*matrix.Dense, g.Size())
	for r := range cT {
		cT[r] = matrix.New(cm.LocalRows(), cm.LocalCols())
	}
	if err := mpi.Run(g.Size(), func(c *mpi.Comm) {
		o := Options{N: n, Grid: g, Knobs: Knobs{BlockSize: b, Broadcast: bcast}}
		if e := CyclicSUMMA(mpi.AsComm(c), o, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
			panic(e)
		}
	}); err != nil {
		t.Fatal(err)
	}
	got := cm.Gather(cT)
	want := matrix.New(n, n)
	Reference(want, a, bb)
	if d := matrix.MaxAbsDiff(got, want); d > tol {
		t.Fatalf("cyclic SUMMA %v n=%d b=%d off by %g", g, n, b, d)
	}
}

func TestCyclicSUMMAGrids(t *testing.T) {
	cases := []struct{ s, tt, n, b int }{
		{1, 1, 8, 2},
		{2, 2, 8, 2},
		{2, 2, 16, 2},
		{2, 4, 16, 2},
		{4, 2, 16, 2},
		{4, 4, 32, 2},
		{2, 2, 16, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%dx%d_n%d_b%d", c.s, c.tt, c.n, c.b), func(t *testing.T) {
			runCyclic(t, topo.Grid{S: c.s, T: c.tt}, c.n, c.b, sched.Binomial)
		})
	}
}

func TestCyclicSUMMAVanDeGeijn(t *testing.T) {
	runCyclic(t, topo.Grid{S: 2, T: 4}, 16, 2, sched.VanDeGeijn)
}

func TestCyclicSUMMARootsRotate(t *testing.T) {
	// The defining property versus the checkerboard layout: over n/b
	// steps every grid column serves as A-broadcast root equally often.
	// Verify through traffic stats: with block-cyclic every rank sends a
	// similar byte count, whereas checkerboard SUMMA concentrates
	// sending on the current owner column for long runs.
	g := topo.Grid{S: 2, T: 2}
	n, b := 16, 2
	cm, _ := dist.NewCyclicMap(n, n, b, b, g)
	a := matrix.Random(n, n, 1)
	bb := matrix.Random(n, n, 2)
	aT, bT := cm.Scatter(a), cm.Scatter(bb)
	cT := make([]*matrix.Dense, g.Size())
	for r := range cT {
		cT[r] = matrix.New(cm.LocalRows(), cm.LocalCols())
	}
	stats, err := mpi.RunStats(g.Size(), func(c *mpi.Comm) {
		o := Options{N: n, Grid: g, Knobs: Knobs{BlockSize: b}}
		if e := CyclicSUMMA(mpi.AsComm(c), o, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
			panic(e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range stats {
		if s.SentBytes == 0 {
			t.Fatalf("rank %d sent nothing — roots did not rotate", r)
		}
	}
}

func TestCyclicSUMMAValidation(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	err := mpi.Run(g.Size(), func(c *mpi.Comm) {
		// 8/2 = 4 block rows over 4 grid rows is fine, but n=8, b=2 over
		// t=4: blocks divisible; use an invalid one: n/b=3 blocks.
		tile := matrix.New(2, 2)
		o := Options{N: 12, Grid: g, Knobs: Knobs{BlockSize: 4}} // 3 block rows over 4 grid rows
		if e := CyclicSUMMA(mpi.AsComm(c), o, tile, tile.Clone(), tile.Clone()); e == nil {
			panic("indivisible cyclic layout accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
