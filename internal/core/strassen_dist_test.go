package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/topo"
)

// Strassen reassociates the floating-point arithmetic, so the distributed
// result is compared against the sequential reference to relative
// tolerance, not the classic algorithms' bitwise-friendly absolute one.
const strassenRelTol = 1e-9

// runStrassen distributes random n×n matrices (and a random initial C, to
// catch overwrite-instead-of-accumulate bugs), runs core.Strassen on the
// mpi runtime, and checks the gathered product against the reference.
func runStrassen(t *testing.T, o Options) {
	t.Helper()
	g := o.Grid
	bm, err := dist.NewBlockMap(o.N, o.N, g)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(o.N, o.N, 301)
	b := matrix.Random(o.N, o.N, 302)
	c0 := matrix.Random(o.N, o.N, 303)
	aT, bT, cT := bm.Scatter(a), bm.Scatter(b), bm.Scatter(c0)
	var mu sync.Mutex
	var algErr error
	err = mpi.Run(g.Size(), func(c *mpi.Comm) {
		if e := Strassen(mpi.AsComm(c), o, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
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
	want := c0.Clone()
	Reference(want, a, b)
	if d := matrix.MaxAbsDiff(got, want); d > strassenRelTol*want.FrobeniusNorm() {
		t.Fatalf("distributed strassen off by %g (opts %+v)", d, o)
	}
	if !matrix.Equal(bm.Gather(aT), a) || !matrix.Equal(bm.Gather(bT), b) {
		t.Fatal("strassen modified its inputs")
	}
}

func TestStrassenGridsAndLevels(t *testing.T) {
	cases := []struct {
		s, n, b, levels, groups int
	}{
		{2, 16, 2, 1, 0}, // one level, 1×1 bottom (local SUMMA)
		{2, 24, 3, 1, 0}, // non-power-of-two n
		{4, 32, 2, 1, 0}, // one level, SUMMA on 2×2 sub-grids
		{4, 32, 4, 2, 0}, // two levels, 1×1 bottom
		{4, 32, 2, 1, 2}, // HSUMMA bottom with G=2 on the 2×2 sub-grids
		{4, 32, 2, 1, 4}, // HSUMMA bottom, fully grouped
		{8, 64, 2, 2, 2}, // two levels then HSUMMA on 2×2 sub-grids
		{4, 64, 8, 0, 0}, // levels=0 canonicalises to one level
	}
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("s%d_n%d_b%d_l%d_g%d", c.s, c.n, c.b, c.levels, c.groups)
		t.Run(name, func(t *testing.T) {
			o := Options{
				N: c.n, Grid: topo.Grid{S: c.s, T: c.s}, Knobs: Knobs{BlockSize: c.b, StrassenLevels: c.levels, StrassenInnerGroups: c.groups},
			}
			runStrassen(t, o)
		})
	}
}

func TestStrassenWithLocalKernel(t *testing.T) {
	// A low cutoff forces the sub-cubic local kernel to actually recurse
	// inside the bottom SUMMA's rank-local updates.
	o := Options{
		N: 64, Grid: topo.Grid{S: 2, T: 2}, Knobs: Knobs{BlockSize: 16, LocalStrassen: true, StrassenCutoff: 8},
	}
	runStrassen(t, o)
}

func TestStrassenThreaded(t *testing.T) {
	o := Options{N: 32, Grid: topo.Grid{S: 2, T: 2}, Knobs: Knobs{BlockSize: 4, Threads: 3}}
	runStrassen(t, o)
}

func TestStrassenValidation(t *testing.T) {
	g := topo.Grid{S: 2, T: 2}
	cases := []struct {
		name       string
		o          Options
		squareOnly bool
	}{
		{"rect shape", Options{Shape: matrix.Shape{M: 16, N: 8, K: 16}, Grid: g, Knobs: Knobs{BlockSize: 2}}, true},
		{"rect grid", Options{N: 16, Grid: topo.Grid{S: 2, T: 4}, Knobs: Knobs{BlockSize: 2}}, true},
		{"odd grid", Options{N: 18, Grid: topo.Grid{S: 3, T: 3}, Knobs: Knobs{BlockSize: 2}}, false},
		{"levels too deep for grid", Options{N: 16, Grid: g, Knobs: Knobs{BlockSize: 2, StrassenLevels: 2}}, false},
		{"n not divisible", Options{N: 18, Grid: topo.Grid{S: 4, T: 4}, Knobs: Knobs{BlockSize: 3, StrassenLevels: 2}}, false},
		{"bad bottom block", Options{N: 16, Grid: g, Knobs: Knobs{BlockSize: 3}}, false},
		{"bad inner groups", Options{N: 32, Grid: topo.Grid{S: 4, T: 4}, Knobs: Knobs{BlockSize: 2, StrassenInnerGroups: 3}}, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			err := c.o.ValidateSquare(StrassenLevelsOf(c.o.StrassenLevels))
			if err == nil {
				t.Fatalf("%s: accepted", c.name)
			}
			if c.squareOnly && !errors.Is(err, matrix.ErrSquareOnly) {
				t.Fatalf("%s: got %v, want ErrSquareOnly", c.name, err)
			}
		})
	}
}

// The product table is the contract between execution and the tune scorer:
// pin its structural invariants — 7 products, hosts round-robin over the
// four quadrants, every quadrant receives at least one C contribution, and
// the first term of every operand sum is positive (the assembly path
// copies it instead of zeroing).
func TestStrassenProductTable(t *testing.T) {
	ps := StrassenProducts()
	hostCount := [4]int{}
	cCount := [4]int{}
	for r, p := range ps {
		if p.Host != r%4 {
			t.Fatalf("product %d hosted by %d, want round-robin %d", r, p.Host, r%4)
		}
		hostCount[p.Host]++
		for _, term := range p.C {
			cCount[term.Q]++
		}
		for _, operand := range [][]StrassenTerm{p.A, p.B} {
			if operand[0].Sign != 1 {
				t.Fatalf("product %d: first operand term has sign %v, want +1", r, operand[0].Sign)
			}
		}
	}
	for q, n := range cCount {
		if n == 0 {
			t.Fatalf("quadrant %d receives no C contribution", q)
		}
	}
	for q, n := range hostCount {
		if n == 0 {
			t.Fatalf("quadrant %d hosts no product", q)
		}
	}
}
