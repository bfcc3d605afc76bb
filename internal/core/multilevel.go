package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/matrix"
)

// Level describes one grouping level of the multilevel hierarchy: the
// process grid (or the previous level's subgrid) is partitioned into I×J
// groups, and panels of width BlockSize are exchanged across those groups.
type Level struct {
	I, J      int
	BlockSize int
}

// MultilevelHSUMMA generalises HSUMMA to an arbitrary number of hierarchy
// levels — the extension the paper proposes in Section VI ("we also plan to
// investigate the algorithm with more than two levels of hierarchy").
//
// levels[0] is the coarsest grouping; each subsequent level subdivides the
// previous level's subgrid. innerBlock is the paper's b, the panel width of
// the innermost (finest) broadcasts. Panel widths must be non-increasing
// down the hierarchy, each a multiple of the next, with levels[0].BlockSize
// dividing the local tile.
//
// A single level reproduces HSUMMA exactly (asserted in tests); zero levels
// reproduce SUMMA.
func MultilevelHSUMMA(c comm.Comm, opts Options, levels []Level, innerBlock int, aLoc, bLoc, cLoc *matrix.Dense) error {
	o := opts.withDefaults()
	o.BlockSize = innerBlock
	if err := o.validateSUMMA(); err != nil {
		return err
	}
	g := o.Grid
	if c.Size() != g.Size() {
		return fmt.Errorf("core: communicator size %d does not match grid %v", c.Size(), g)
	}

	// Column and row dimension factorisations: the rank's grid column j
	// decomposes into mixed-radix digits (y_0, …, y_{L-1}, j_fine) over
	// (J_0, …, J_{L-1}, tFine); likewise rows over the I factors.
	L := len(levels)
	colRadix := make([]int, 0, L+1)
	rowRadix := make([]int, 0, L+1)
	prodI, prodJ := 1, 1
	widths := make([]int, 0, L+1) // panel width at each level, innermost last
	for _, lv := range levels {
		if lv.I <= 0 || lv.J <= 0 {
			return fmt.Errorf("core: invalid level %+v", lv)
		}
		colRadix = append(colRadix, lv.J)
		rowRadix = append(rowRadix, lv.I)
		prodI *= lv.I
		prodJ *= lv.J
		widths = append(widths, lv.BlockSize)
	}
	if g.S%prodI != 0 || g.T%prodJ != 0 {
		return fmt.Errorf("core: level products %dx%d do not divide grid %v", prodI, prodJ, g)
	}
	colRadix = append(colRadix, g.T/prodJ)
	rowRadix = append(rowRadix, g.S/prodI)
	widths = append(widths, innerBlock)

	aRows, aCols, bRows, bCols := o.tiles()
	checkTile("A", aLoc, aRows, aCols)
	checkTile("B", bLoc, bRows, bCols)
	checkTile("C", cLoc, aRows, bCols)
	for k := 0; k < len(widths); k++ {
		if k > 0 && widths[k-1]%widths[k] != 0 {
			return fmt.Errorf("core: level %d width %d not a multiple of next width %d", k-1, widths[k-1], widths[k])
		}
	}
	if aCols%widths[0] != 0 || bRows%widths[0] != 0 {
		return fmt.Errorf("core: top width %d does not divide the per-rank K extents %d (A columns) and %d (B rows)",
			widths[0], aCols, bRows)
	}

	i, j := g.Coords(c.Rank())
	colDigits := digits(j, colRadix)
	rowDigits := digits(i, rowRadix)

	// Communicators per level: the level-k column communicator connects
	// ranks differing only in column digit k (same row, same other
	// digits); its internal rank is the digit itself. Likewise for rows.
	nLevels := len(widths)
	aComms := make([]comm.Comm, nLevels)
	bComms := make([]comm.Comm, nLevels)
	for k := 0; k < nLevels; k++ {
		aComms[k] = c.Split(colorWithout(i, colDigits, colRadix, k), colDigits[k])
		bComms[k] = c.Split(g.Size()*(1+k)+colorWithout(j, rowDigits, rowRadix, k), rowDigits[k])
	}

	// Panels per level.
	aPanels := make([]*comm.Panel, nLevels)
	bPanels := make([]*comm.Panel, nLevels)
	for k, w := range widths {
		aPanels[k] = c.NewPanel(aRows, w)
		bPanels[k] = c.NewPanel(w, bCols)
	}

	// descend recursively broadcasts the panel starting at global pivot
	// K index lo with width widths[k] at level k, then subdivides.
	var descend func(k, lo int)
	descend = func(k, lo int) {
		w := widths[k]
		ownerCol := lo / aCols
		ownerRow := lo / bRows
		ownerColDigits := digits(ownerCol, colRadix)
		ownerRowDigits := digits(ownerRow, rowRadix)
		// A horizontal broadcast at this level: participants are ranks
		// whose column digits *below* this level (finer) match the
		// owner's; the root is the owner's digit at this level.
		if digitsMatchBelow(colDigits, ownerColDigits, k) {
			if colDigits[k] == ownerColDigits[k] {
				// I hold the parent panel (or the tile at k=0).
				if k == 0 {
					c.Pack(aPanels[k], aLoc.View(0, lo%aCols, aRows, w))
				} else {
					c.Repack(aPanels[k], aPanels[k-1], 0, lo%widths[k-1])
				}
			}
			aComms[k].Bcast(o.Broadcast, ownerColDigits[k], aPanels[k], o.Segments)
		}
		if digitsMatchBelow(rowDigits, ownerRowDigits, k) {
			if rowDigits[k] == ownerRowDigits[k] {
				if k == 0 {
					c.Pack(bPanels[k], bLoc.View(lo%bRows, 0, w, bCols))
				} else {
					c.Repack(bPanels[k], bPanels[k-1], lo%widths[k-1], 0)
				}
			}
			bComms[k].Bcast(o.Broadcast, ownerRowDigits[k], bPanels[k], o.Segments)
		}
		if k == nLevels-1 {
			c.Gemm(cLoc, &aPanels[k].Tile, &bPanels[k].Tile, o.Exec())
			return
		}
		for sub := 0; sub < w/widths[k+1]; sub++ {
			descend(k+1, lo+sub*widths[k+1])
		}
	}
	for outer := 0; outer < o.Shape.K/widths[0]; outer++ {
		descend(0, outer*widths[0])
	}
	return nil
}

// digits decomposes v into mixed-radix digits, most significant first:
// radix (r0,…,rk) means v = d0·(r1·…·rk) + d1·(r2·…·rk) + … + dk.
func digits(v int, radix []int) []int {
	out := make([]int, len(radix))
	for k := len(radix) - 1; k >= 0; k-- {
		out[k] = v % radix[k]
		v /= radix[k]
	}
	return out
}

// digitsMatchBelow reports whether the digits strictly finer than level k
// (indices > k) agree — the participation condition for a level-k
// broadcast.
func digitsMatchBelow(mine, owner []int, k int) bool {
	for d := k + 1; d < len(mine); d++ {
		if mine[d] != owner[d] {
			return false
		}
	}
	return true
}

// colorWithout builds a split colour from the orthogonal coordinate and all
// digits except digit k, so ranks differing only in digit k share a colour.
func colorWithout(ortho int, digs, radix []int, k int) int {
	color := ortho
	for d := range digs {
		if d == k {
			continue
		}
		color = color*radix[d] + digs[d]
	}
	// Make room so different k values cannot collide even if callers
	// reuse colours across Split invocations (they do not need to, but
	// cheap safety is cheap).
	return color*(len(digs)+1) + k
}
