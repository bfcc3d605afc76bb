package core

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/comm"
	"repro/internal/matrix"
)

// SUMMA performs C += A·B over the communicator with the scalable universal
// matrix multiplication algorithm (paper Section II-A): K/b steps, each
// broadcasting the pivot column panel of A along process rows and the pivot
// row panel of B along process columns, followed by a local rank-b update.
//
// c must span exactly Grid.Size() ranks; aLoc, bLoc and cLoc are this
// rank's block-checkerboard tiles of size (M/s)×(K/t), (K/s)×(N/t) and
// (M/s)×(N/t) respectively (see dist.BlockMap). aLoc and bLoc are not
// modified. The algorithm is written against the transport-agnostic
// comm.Comm interface, so the identical code executes on the live
// goroutine runtime and on the simnet virtual communicator.
func SUMMA(c comm.Comm, opts Options, aLoc, bLoc, cLoc *matrix.Dense) error {
	o := opts.withDefaults()
	if err := o.validateSUMMA(); err != nil {
		return err
	}
	g := o.Grid
	if c.Size() != g.Size() {
		return fmt.Errorf("core: communicator size %d does not match grid %v", c.Size(), g)
	}
	i, j := g.Coords(c.Rank())
	// Row and column communicators, as in the paper's Figure 1 pattern.
	rowComm := c.Split(i, j)     // my grid row; my rank within it is j
	colComm := c.Split(g.S+j, i) // my grid column; my rank within it is i

	b := o.BlockSize
	aRows, aCols, bRows, bCols := o.tiles()
	checkTile("A", aLoc, aRows, aCols)
	checkTile("B", bLoc, bRows, bCols)
	checkTile("C", cLoc, aRows, bCols)

	aPanel := c.NewPanel(aRows, b)
	bPanel := c.NewPanel(b, bCols)
	for k := 0; k < o.Shape.K/b; k++ {
		lo := k * b // first global K index of the pivot panel
		ownerCol := lo / aCols
		ownerRow := lo / bRows
		// Horizontal broadcast of A's pivot column panel along my row.
		if j == ownerCol {
			c.Pack(aPanel, aLoc.View(0, lo%aCols, aRows, b))
		}
		rowComm.Bcast(o.Broadcast, ownerCol, aPanel, o.Segments)
		// Vertical broadcast of B's pivot row panel along my column.
		if i == ownerRow {
			c.Pack(bPanel, bLoc.View(lo%bRows, 0, b, bCols))
		}
		colComm.Bcast(o.Broadcast, ownerRow, bPanel, o.Segments)
		// Local rank-b update.
		c.Gemm(cLoc, &aPanel.Tile, &bPanel.Tile, o.Exec())
	}
	return nil
}

// checkTile panics when a local tile has the wrong shape — a programming
// error in the caller's distribution setup, not a runtime condition.
func checkTile(name string, m *matrix.Dense, rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("core: local %s tile is %dx%d, want %dx%d", name, m.Rows, m.Cols, rows, cols))
	}
}

// Reference computes C += A·B sequentially — the oracle the distributed
// algorithms are validated against in tests and examples.
func Reference(c, a, b *matrix.Dense) {
	blas.Gemm(c, a, b)
}
