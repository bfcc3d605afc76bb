// Package baseline_test holds the Cannon and Fox tests at their original
// import path so their ids stay stable; the algorithms themselves live in
// internal/core (cannon.go), beside the SUMMA family and Strassen.
package baseline_test

import (
	"fmt"
	"testing"

	"repro/internal/blas"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topo"
)

const tol = 1e-10

type algorithm func(comm.Comm, core.Options, *matrix.Dense, *matrix.Dense, *matrix.Dense) error

func square(q, n int, kn core.Knobs) core.Options {
	return core.Options{N: n, Grid: topo.Grid{S: q, T: q}, Knobs: kn}
}

func runSquare(t *testing.T, o core.Options, algo algorithm) {
	t.Helper()
	n, g := o.N, o.Grid
	bm, err := dist.NewBlockMap(n, n, g)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(n, n, 31)
	b := matrix.Random(n, n, 32)
	aT, bT := bm.Scatter(a), bm.Scatter(b)
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
	want := matrix.New(n, n)
	blas.Gemm(want, a, b)
	if d := matrix.MaxAbsDiff(bm.Gather(cT), want); d > tol {
		t.Fatalf("q=%d n=%d: differs from reference by %g", g.S, n, d)
	}
	// Inputs untouched.
	if !matrix.Equal(bm.Gather(aT), a) || !matrix.Equal(bm.Gather(bT), b) {
		t.Fatal("algorithm modified its inputs")
	}
}

func TestCannonSizes(t *testing.T) {
	for _, c := range []struct{ q, n int }{{1, 4}, {2, 8}, {3, 9}, {4, 16}, {4, 8}} {
		c := c
		t.Run(fmt.Sprintf("q%d_n%d", c.q, c.n), func(t *testing.T) {
			runSquare(t, square(c.q, c.n, core.Knobs{}), core.Cannon)
		})
	}
}

func TestFoxSizes(t *testing.T) {
	for _, c := range []struct{ q, n int }{{1, 4}, {2, 8}, {3, 9}, {4, 16}} {
		c := c
		t.Run(fmt.Sprintf("q%d_n%d", c.q, c.n), func(t *testing.T) {
			runSquare(t, square(c.q, c.n, core.Knobs{Broadcast: sched.Binomial}), core.Fox)
		})
	}
}

func TestFoxVanDeGeijnBroadcast(t *testing.T) {
	runSquare(t, square(4, 16, core.Knobs{Broadcast: sched.VanDeGeijn}), core.Fox)
}

func TestCannonAccumulates(t *testing.T) {
	q, n := 2, 8
	g := topo.Grid{S: q, T: q}
	bm, _ := dist.NewBlockMap(n, n, g)
	a := matrix.Random(n, n, 1)
	b := matrix.Random(n, n, 2)
	c0 := matrix.Random(n, n, 3)
	aT, bT, cT := bm.Scatter(a), bm.Scatter(b), bm.Scatter(c0)
	if err := mpi.Run(g.Size(), func(c *mpi.Comm) {
		if e := core.Cannon(mpi.AsComm(c), square(q, n, core.Knobs{}), aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
			panic(e)
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := c0.Clone()
	blas.Gemm(want, a, b)
	if d := matrix.MaxAbsDiff(bm.Gather(cT), want); d > tol {
		t.Fatalf("accumulation broken: %g", d)
	}
}

func TestNonSquareGridRejected(t *testing.T) {
	o := core.Options{N: 8, Grid: topo.Grid{S: 2, T: 4}}
	err := mpi.Run(8, func(c *mpi.Comm) {
		tile := matrix.New(4, 2)
		if e := core.Cannon(mpi.AsComm(c), o, tile, tile.Clone(), tile.Clone()); e == nil {
			panic("non-square grid accepted by Cannon")
		}
		if e := core.Fox(mpi.AsComm(c), o, tile, tile.Clone(), tile.Clone()); e == nil {
			panic("non-square grid accepted by Fox")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndivisibleNRejected(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) {
		tile := matrix.New(3, 3)
		if e := core.Cannon(mpi.AsComm(c), square(2, 7, core.Knobs{}), tile, tile.Clone(), tile.Clone()); e == nil {
			panic("n=7 over q=2 accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// All three families must agree numerically on the same inputs (within FP
// reassociation tolerance): Cannon, Fox and the sequential oracle.
func TestCannonFoxAgree(t *testing.T) {
	q, n := 3, 18
	g := topo.Grid{S: q, T: q}
	bm, _ := dist.NewBlockMap(n, n, g)
	a := matrix.Random(n, n, 77)
	b := matrix.Random(n, n, 78)
	results := make([]*matrix.Dense, 2)
	for idx, run := range []struct {
		algo algorithm
		o    core.Options
	}{
		{core.Cannon, square(q, n, core.Knobs{})},
		{core.Fox, square(q, n, core.Knobs{Broadcast: sched.Binomial, Threads: 2})},
	} {
		aT, bT := bm.Scatter(a), bm.Scatter(b)
		cT := make([]*matrix.Dense, g.Size())
		for r := range cT {
			cT[r] = matrix.New(bm.LocalRows(), bm.LocalCols())
		}
		if err := mpi.Run(g.Size(), func(c *mpi.Comm) {
			if e := run.algo(mpi.AsComm(c), run.o, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
				panic(e)
			}
		}); err != nil {
			t.Fatal(err)
		}
		results[idx] = bm.Gather(cT)
	}
	if d := matrix.MaxAbsDiff(results[0], results[1]); d > tol {
		t.Fatalf("Cannon and Fox differ by %g", d)
	}
}
