package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/matrix"
)

// The classical distributed algorithms the paper positions HSUMMA against
// in its introduction: Cannon's algorithm (1969) and Fox's
// broadcast-multiply-roll algorithm (1987). Both require a square q×q
// process grid — exactly the restriction the paper cites as the reason
// SUMMA-style algorithms won in practice — and share that rule
// (Options.ValidateSquare).

// squareTile validates a Cannon or Fox run on c and returns the grid side
// q and the (n/q)×(n/q) tile extent, after checking this rank's tiles.
func (o *Options) squareTile(c comm.Comm, aLoc, bLoc, cLoc *matrix.Dense) (q, tile int, err error) {
	if err := o.ValidateSquare(); err != nil {
		return 0, 0, err
	}
	if c.Size() != o.Grid.Size() {
		return 0, 0, fmt.Errorf("core: communicator size %d does not match grid %v", c.Size(), o.Grid)
	}
	q = o.Grid.S
	tile = o.Shape.N / q
	checkTile("A", aLoc, tile, tile)
	checkTile("B", bLoc, tile, tile)
	checkTile("C", cLoc, tile, tile)
	return q, tile, nil
}

// Cannon performs C += A·B with Cannon's algorithm: after an initial
// skewing alignment (row i of A rotated left by i, column j of B rotated up
// by j), q iterations of local multiply followed by a single-step rotation
// of A leftwards and B upwards. Local tiles are (n/q)×(n/q); aLoc and bLoc
// are not modified (the rotations work on panels). The local multiplies
// run on opts.Threads goroutines.
func Cannon(c comm.Comm, opts Options, aLoc, bLoc, cLoc *matrix.Dense) error {
	o := opts.withDefaults()
	q, tile, err := o.squareTile(c, aLoc, bLoc, cLoc)
	if err != nil {
		return err
	}
	g := o.Grid
	i, j := g.Coords(c.Rank())
	// The local update multiplies panels, so the tiles are packed into
	// panels even when q = 1 leaves nothing to rotate; a rotation hands
	// the panel's storage on and takes the neighbour's.
	a := c.NewPanel(tile, tile, comm.LHS)
	b := c.NewPanel(tile, tile, comm.RHS)
	c.Pack(a, aLoc, 0, 0)
	c.Pack(b, bLoc, 0, 0)
	// Initial alignment: A_{i,j} moves to (i, j-i); B_{i,j} to (i-j, j).
	if i > 0 {
		c.SendRecv(g.Rank(i, mod(j-i, q)), 0, a, g.Rank(i, mod(j+i, q)), 0, a)
	}
	if j > 0 {
		c.SendRecv(g.Rank(mod(i-j, q), j), 1, b, g.Rank(mod(i+j, q), j), 1, b)
	}
	for step := 0; step < q; step++ {
		c.Gemm(cLoc, a, b, o.Threads)
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
// multiplied with the local B, and B rolls upwards one step. opts.Broadcast
// selects the broadcast schedule (the original paper assumed a hypercube
// broadcast; any algorithm from internal/sched works) and the local
// multiplies run on opts.Threads goroutines.
func Fox(c comm.Comm, opts Options, aLoc, bLoc, cLoc *matrix.Dense) error {
	o := opts.withDefaults()
	q, tile, err := o.squareTile(c, aLoc, bLoc, cLoc)
	if err != nil {
		return err
	}
	g := o.Grid
	i, j := g.Coords(c.Rank())
	rowComm := c.Split(i, j)
	// With q = 1 the row broadcast has one member and moves nothing.
	aPanel := c.NewPanel(tile, tile, comm.LHS)
	b := c.NewPanel(tile, tile, comm.RHS)
	c.Pack(b, bLoc, 0, 0)
	for k := 0; k < q; k++ {
		root := (i + k) % q
		if j == root {
			c.Pack(aPanel, aLoc, 0, 0)
		}
		rowComm.Bcast(o.Broadcast, root, aPanel)
		c.Gemm(cLoc, aPanel, b, o.Threads)
		if k == q-1 {
			break
		}
		// Roll B upwards: send my B to (i-1, j), receive from (i+1, j).
		c.SendRecv(g.Rank(mod(i-1, q), j), 4, b, g.Rank(mod(i+1, q), j), 4, b)
	}
	return nil
}

func mod(v, m int) int { return ((v % m) + m) % m }
