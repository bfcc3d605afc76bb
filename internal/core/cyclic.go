package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/matrix"
)

// CyclicSUMMA performs C += A·B over matrices in the 2D block-cyclic
// distribution — the ScaLAPACK layout and the paper's first future-work
// item (§VI: "by using block-cyclic distribution the communication can be
// better overlapped and parallelized").
//
// The distribution block equals the algorithmic block b: at step k the
// pivot block-column of A lives on grid column k mod t and the pivot
// block-row of B on grid row k mod s, so broadcast roots rotate round-robin
// instead of dwelling on one grid column for n/(t·b) consecutive steps as
// in the block-checkerboard layout — the property that spreads root load
// and enables the overlap the paper anticipates.
//
// Tiles must come from dist.CyclicMap with Br = Bc = opts.BlockSize.
func CyclicSUMMA(c comm.Comm, opts Options, aLoc, bLoc, cLoc *matrix.Dense) error {
	o := opts.withDefaults()
	if err := o.validateSUMMA(); err != nil {
		return err
	}
	g := o.Grid
	if c.Size() != g.Size() {
		return fmt.Errorf("core: communicator size %d does not match grid %v", c.Size(), g)
	}
	sh, b := o.Shape, o.BlockSize
	if sh.M%b != 0 || sh.N%b != 0 || sh.K%b != 0 ||
		(sh.M/b)%g.S != 0 || (sh.K/b)%g.S != 0 || (sh.K/b)%g.T != 0 || (sh.N/b)%g.T != 0 {
		return fmt.Errorf("core: cyclic layout needs every operand's block rows/cols divisible by grid %v (shape %v, b=%d)", g, sh, b)
	}
	cmA, err := dist.NewCyclicMap(sh.M, sh.K, b, b, g)
	if err != nil {
		return err
	}
	cmB, err := dist.NewCyclicMap(sh.K, sh.N, b, b, g)
	if err != nil {
		return err
	}
	aRows, aCols := cmA.LocalRows(), cmA.LocalCols()
	bRows, bCols := cmB.LocalRows(), cmB.LocalCols()
	checkTile("A", aLoc, aRows, aCols)
	checkTile("B", bLoc, bRows, bCols)
	checkTile("C", cLoc, aRows, bCols)

	i, j := g.Coords(c.Rank())
	rowComm := c.Split(i, j)
	colComm := c.Split(g.S+j, i)

	aPanel := c.NewPanel(aRows, b)
	bPanel := c.NewPanel(b, bCols)
	for k := 0; k < sh.K/b; k++ {
		// Owner grid column of A's pivot block-column k, and the local
		// block column it is stored at on the owner.
		ownerCol := k % g.T
		if j == ownerCol {
			c.Pack(aPanel, aLoc.View(0, (k/g.T)*b, aRows, b))
		}
		rowComm.Bcast(o.Broadcast, ownerCol, aPanel, o.Segments)

		ownerRow := k % g.S
		if i == ownerRow {
			c.Pack(bPanel, bLoc.View((k/g.S)*b, 0, b, bCols))
		}
		colComm.Bcast(o.Broadcast, ownerRow, bPanel, o.Segments)

		// The panel's local row set equals C's local row set (both are
		// the block rows congruent to i mod s, in the same local
		// order), and likewise for columns, so the update is a plain
		// local GEMM exactly as in the checkerboard layout.
		c.Gemm(cLoc, &aPanel.Tile, &bPanel.Tile, o.Exec())
	}
	return nil
}
