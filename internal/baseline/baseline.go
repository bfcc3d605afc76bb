// Package baseline implements the classical distributed matrix
// multiplication algorithms the paper positions HSUMMA against in its
// introduction: Cannon's algorithm (1969) and Fox's broadcast-multiply-roll
// algorithm (1987). Both require a square q×q process grid — exactly the
// restriction the paper cites as the reason SUMMA-style algorithms won in
// practice — and both are validated against sequential GEMM so the
// comparison benches measure correct implementations.
//
// Like the core algorithms, both are written once against the
// transport-agnostic comm.Comm interface and run unchanged on the live
// goroutine runtime and the simnet virtual communicator.
package baseline

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/topo"
)

// squareGridOf validates the square-only restriction (square shape on a
// square grid, via the shared matrix.ErrSquareOnly) and the divisibility
// requirement.
func squareGridOf(c comm.Comm, g topo.Grid, sh matrix.Shape) (q, n int, err error) {
	if !sh.IsSquare() {
		return 0, 0, fmt.Errorf("baseline: shape %v: %w", sh, matrix.ErrSquareOnly)
	}
	if g.S != g.T {
		return 0, 0, fmt.Errorf("baseline: grid %v: %w", g, matrix.ErrSquareOnly)
	}
	if c.Size() != g.Size() {
		return 0, 0, fmt.Errorf("baseline: communicator size %d does not match grid %v", c.Size(), g)
	}
	n = sh.N
	if n%g.S != 0 {
		return 0, 0, fmt.Errorf("baseline: n=%d not divisible by q=%d", n, g.S)
	}
	return g.S, n, nil
}

// Cannon performs C += A·B with Cannon's algorithm: after an initial
// skewing alignment (row i of A rotated left by i, column j of B rotated up
// by j), q iterations of local multiply followed by a single-step rotation
// of A leftwards and B upwards. Local tiles are (n/q)×(n/q); aLoc and bLoc
// are not modified (the rotations work on panels). x describes the local
// multiplies' execution (threads, optional Strassen kernel).
func Cannon(c comm.Comm, g topo.Grid, sh matrix.Shape, x comm.Exec, aLoc, bLoc, cLoc *matrix.Dense) error {
	q, n, err := squareGridOf(c, g, sh)
	if err != nil {
		return err
	}
	i, j := g.Coords(c.Rank())
	tile := n / q
	if aLoc.Rows != tile || aLoc.Cols != tile {
		return fmt.Errorf("baseline: tile %dx%d, want %dx%d", aLoc.Rows, aLoc.Cols, tile, tile)
	}
	if q == 1 {
		c.Gemm(cLoc, aLoc, bLoc, x)
		return nil
	}
	// The rotations work on panels holding copies of the tiles; a rotation
	// hands the panel's storage on and takes the neighbour's.
	a := c.NewPanel(tile, tile)
	b := c.NewPanel(tile, tile)
	c.Pack(a, aLoc)
	c.Pack(b, bLoc)
	// Initial alignment: A_{i,j} moves to (i, j-i); B_{i,j} to (i-j, j).
	if i > 0 {
		c.SendRecv(g.Rank(i, mod(j-i, q)), 0, a, g.Rank(i, mod(j+i, q)), 0, a)
	}
	if j > 0 {
		c.SendRecv(g.Rank(mod(i-j, q), j), 1, b, g.Rank(mod(i+j, q), j), 1, b)
	}
	for step := 0; step < q; step++ {
		c.Gemm(cLoc, &a.Tile, &b.Tile, x)
		if step == q-1 {
			break
		}
		// Rotate A one step left, B one step up.
		c.SendRecv(g.Rank(i, mod(j-1, q)), 2, a, g.Rank(i, mod(j+1, q)), 2, a)
		c.SendRecv(g.Rank(mod(i-1, q), j), 3, b, g.Rank(mod(i+1, q), j), 3, b)
	}
	return nil
}

// Fox performs C += A·B with Fox's algorithm (broadcast-multiply-roll):
// at step k the tile A_{i,(i+k) mod q} is broadcast along each process row,
// multiplied with the local B, and B rolls upwards one step. bcastAlg
// selects the broadcast schedule (the original paper assumed a hypercube
// broadcast; any algorithm from internal/sched works). x describes the
// local multiplies' execution (threads, optional Strassen kernel).
func Fox(c comm.Comm, g topo.Grid, sh matrix.Shape, bcastAlg sched.Algorithm, x comm.Exec, aLoc, bLoc, cLoc *matrix.Dense) error {
	q, n, err := squareGridOf(c, g, sh)
	if err != nil {
		return err
	}
	if bcastAlg == "" {
		bcastAlg = sched.Binomial
	}
	i, j := g.Coords(c.Rank())
	tile := n / q
	if aLoc.Rows != tile || aLoc.Cols != tile {
		return fmt.Errorf("baseline: tile %dx%d, want %dx%d", aLoc.Rows, aLoc.Cols, tile, tile)
	}
	rowComm := c.Split(i, j)
	if q == 1 {
		c.Gemm(cLoc, aLoc, bLoc, x)
		return nil
	}
	aPanel := c.NewPanel(tile, tile)
	b := c.NewPanel(tile, tile)
	c.Pack(b, bLoc)
	for k := 0; k < q; k++ {
		root := (i + k) % q
		if j == root {
			c.Pack(aPanel, aLoc)
		}
		rowComm.Bcast(bcastAlg, root, aPanel, 1)
		c.Gemm(cLoc, &aPanel.Tile, &b.Tile, x)
		if k == q-1 {
			break
		}
		// Roll B upwards: send my B to (i-1, j), receive from (i+1, j).
		c.SendRecv(g.Rank(mod(i-1, q), j), 4, b, g.Rank(mod(i+1, q), j), 4, b)
	}
	return nil
}

func mod(v, m int) int { return ((v % m) + m) % m }
