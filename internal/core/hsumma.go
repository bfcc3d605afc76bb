package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/matrix"
)

// HSUMMA performs C += A·B with the paper's hierarchical SUMMA
// (Section III, Algorithm 1). The s×t grid is arranged as I×J groups; each
// of the K/B outer steps first broadcasts the outer pivot panels *between*
// groups (over the group-row/group-column communicators), then runs B/b
// inner steps that broadcast b-wide sub-panels *inside* each group and
// update C locally. The pivot loop walks the contraction dimension K, so
// rectangular M×K·K×N problems run the same two-phase pattern as the
// paper's square benchmark.
//
// With Groups = 1×1 or Groups = s×t (and B = b) the hierarchy degenerates
// and HSUMMA performs exactly SUMMA's communication, which the paper notes
// ("SUMMA is a special case of HSUMMA") and the tests assert.
func HSUMMA(c comm.Comm, opts Options, aLoc, bLoc, cLoc *matrix.Dense) error {
	o := opts.withDefaults()
	if err := o.validateHSUMMA(); err != nil {
		return err
	}
	g := o.Grid
	if c.Size() != g.Size() {
		return fmt.Errorf("core: communicator size %d does not match grid %v", c.Size(), g)
	}
	h := o.Groups
	x, y, ii, jj := h.Decompose(c.Rank())

	// The four communicators of Algorithm 1.
	groupRowComm := c.Split(h.GroupRowColor(c.Rank()), y)          // P(x,*)(ii,jj), rank = y, size J
	groupColComm := c.Split(g.Size()+h.GroupColColor(c.Rank()), x) // P(*,y)(ii,jj), rank = x, size I
	rowComm := c.Split(2*g.Size()+h.InnerRowColor(c.Rank()), jj)   // P(x,y)(ii,*), rank = jj, size t/J
	colComm := c.Split(3*g.Size()+h.InnerColColor(c.Rank()), ii)   // P(x,y)(*,jj), rank = ii, size s/I

	b, B := o.BlockSize, o.OuterBlockSize
	aRows, aCols, bRows, bCols := o.tiles()
	checkTile("A", aLoc, aRows, aCols)
	checkTile("B", bLoc, bRows, bCols)
	checkTile("C", cLoc, aRows, bCols)

	innerT := h.InnerT()
	innerS := h.InnerS()

	// Outer panels (the paper's Blockgroup_A / Blockgroup_B): my row's
	// slice of the B-wide pivot column of A, and my column's slice of the
	// B-high pivot row of B. Only ranks on the owning inner column/row
	// ever hold them; a panel that is never packed or received into
	// stays empty, so the memory is the paper's footprint, B·M/s + B·N/t
	// on the ranks that take part.
	aOuter := c.NewPanel(aRows, B)
	bOuter := c.NewPanel(B, bCols)
	aPanel := c.NewPanel(aRows, b)
	bPanel := c.NewPanel(b, bCols)

	for ko := 0; ko < o.Shape.K/B; ko++ {
		lo := ko * B // first global K index of the outer pivot panel
		// Owning grid column of A's outer panel, in hierarchical
		// coordinates (group column yo, inner column jjo); similarly
		// the owning grid row for B.
		ownerGridCol := lo / aCols
		ownerGridRow := lo / bRows
		yo, jjo := ownerGridCol/innerT, ownerGridCol%innerT
		xo, iio := ownerGridRow/innerS, ownerGridRow%innerS

		// Phase 1 (horizontal, between groups): ranks on the owning
		// inner column jjo exchange A's outer panel across group
		// columns, so every group gets a copy distributed over its
		// inner column jjo.
		if jj == jjo {
			if y == yo {
				c.Pack(aOuter, aLoc.View(0, lo%aCols, aRows, B))
			}
			groupRowComm.Bcast(o.Broadcast, yo, aOuter, o.Segments)
		}
		// Phase 1 (vertical, between groups) for B's outer panel.
		if ii == iio {
			if x == xo {
				c.Pack(bOuter, bLoc.View(lo%bRows, 0, B, bCols))
			}
			groupColComm.Bcast(o.Broadcast, xo, bOuter, o.Segments)
		}

		// Phase 2 (inside each group): B/b inner steps; the roots are
		// fixed at (iio, jjo) for the whole outer step because the
		// entire outer panel lives on that inner column/row. With B = b
		// the inner panel is the outer panel and Repack forwards it
		// without a copy.
		for ki := 0; ki < B/b; ki++ {
			if jj == jjo {
				c.Repack(aPanel, aOuter, 0, ki*b)
			}
			rowComm.Bcast(o.Broadcast, jjo, aPanel, o.Segments)
			if ii == iio {
				c.Repack(bPanel, bOuter, ki*b, 0)
			}
			colComm.Bcast(o.Broadcast, iio, bPanel, o.Segments)
			c.Gemm(cLoc, &aPanel.Tile, &bPanel.Tile, o.Exec())
		}
	}
	return nil
}
