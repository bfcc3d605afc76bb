// Package dist is the data-distribution layer: it maps global matrices onto
// the tiles each rank of a process grid owns, and moves data between the
// two representations. BlockMap is the block-checkerboard distribution all
// of the paper's experiments use — rank (i,j) of an s×t grid owns a
// contiguous tile, rows and columns split as evenly as possible (equal tiles
// when the shape divides the grid, the paper's configuration; otherwise the
// first rows%s block rows are one row taller, ScaLAPACK's balanced
// convention).
//
// A contiguous tile is a view: every live path (the one-shot façade and the
// serving sessions alike) hands ranks BlockMap.Views of the operands and of
// the output, so distributing copies nothing — the paper's cost model has no
// scatter term because the operands already sit in the ranks' tiles.
// Scatter and Gather are the copying form of the same cut, kept as the
// reference the bit-identity tests and the benchmark's decomposed replay
// compare the views against.
//
// Non-divisible shapes round-trip Scatter→Locate→Gather exactly like
// divisible ones; the *algorithms* that require uniform tiles (the SUMMA
// family) validate their stricter divisibility constraints themselves in
// internal/core.
package dist

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/topo"
)

// BlockMap describes the block-checkerboard distribution of a rows×cols
// matrix over a process grid.
type BlockMap struct {
	rows, cols int
	grid       topo.Grid
	// Balanced split: the first remR of the S block rows have qR+1 rows,
	// the rest qR (and likewise for columns).
	qR, remR int
	qC, remC int
}

// NewBlockMap returns the balanced block-checkerboard map. Any positive
// shape is accepted; tiles are equal exactly when the grid divides the
// shape (ranks beyond the matrix own empty tiles when rows < S or
// cols < T).
func NewBlockMap(rows, cols int, g topo.Grid) (*BlockMap, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("dist: invalid matrix %dx%d", rows, cols)
	}
	if g.S <= 0 || g.T <= 0 {
		return nil, fmt.Errorf("dist: invalid grid %v", g)
	}
	return &BlockMap{
		rows: rows, cols: cols, grid: g,
		qR: rows / g.S, remR: rows % g.S,
		qC: cols / g.T, remC: cols % g.T,
	}, nil
}

// Grid returns the process grid the map distributes over.
func (m *BlockMap) Grid() topo.Grid { return m.grid }

// Rows and Cols return the global matrix shape.
func (m *BlockMap) Rows() int { return m.rows }

// Cols returns the global column count.
func (m *BlockMap) Cols() int { return m.cols }

// Uniform reports whether every rank owns the same tile shape — the
// precondition of the SUMMA-family algorithms (their stricter block
// constraints are validated in internal/core).
func (m *BlockMap) Uniform() bool { return m.remR == 0 && m.remC == 0 }

// LocalRows returns the largest per-rank row count (the uniform tile
// height when the shape divides the grid; TileShape gives each rank's
// exact tile).
func (m *BlockMap) LocalRows() int {
	if m.remR > 0 {
		return m.qR + 1
	}
	return m.qR
}

// LocalCols returns the largest per-rank column count.
func (m *BlockMap) LocalCols() int {
	if m.remC > 0 {
		return m.qC + 1
	}
	return m.qC
}

// rowStart returns the first global row owned by grid row i.
func (m *BlockMap) rowStart(i int) int {
	if i < m.remR {
		return i * (m.qR + 1)
	}
	return i*m.qR + m.remR
}

// colStart returns the first global column owned by grid column j.
func (m *BlockMap) colStart(j int) int {
	if j < m.remC {
		return j * (m.qC + 1)
	}
	return j*m.qC + m.remC
}

// TileShape returns the exact tile shape rank r owns (possibly with zero
// rows or columns when the matrix is smaller than the grid).
func (m *BlockMap) TileShape(r int) (rows, cols int) {
	i, j := m.grid.Coords(r)
	rows, cols = m.qR, m.qC
	if i < m.remR {
		rows++
	}
	if j < m.remC {
		cols++
	}
	return rows, cols
}

// Locate maps a global element (gi,gj) to its owning rank and the element's
// local position on that rank.
func (m *BlockMap) Locate(gi, gj int) (rank, li, lj int) {
	m.checkGlobal(gi, gj)
	var i, j int
	if split := m.remR * (m.qR + 1); gi < split {
		i, li = gi/(m.qR+1), gi%(m.qR+1)
	} else {
		i, li = m.remR+(gi-split)/m.qR, (gi-split)%m.qR
	}
	if split := m.remC * (m.qC + 1); gj < split {
		j, lj = gj/(m.qC+1), gj%(m.qC+1)
	} else {
		j, lj = m.remC+(gj-split)/m.qC, (gj-split)%m.qC
	}
	return m.grid.Rank(i, j), li, lj
}

// Owner returns the rank owning global element (gi,gj).
func (m *BlockMap) Owner(gi, gj int) int {
	r, _, _ := m.Locate(gi, gj)
	return r
}

func (m *BlockMap) checkGlobal(gi, gj int) {
	if gi < 0 || gi >= m.rows || gj < 0 || gj >= m.cols {
		panic(fmt.Sprintf("dist: element (%d,%d) outside %dx%d matrix", gi, gj, m.rows, m.cols))
	}
}

func (m *BlockMap) checkShape(a *matrix.Dense) {
	if a.Rows != m.rows || a.Cols != m.cols {
		panic(fmt.Sprintf("dist: matrix %dx%d does not match map %dx%d", a.Rows, a.Cols, m.rows, m.cols))
	}
}

// Scatter cuts a global matrix into per-rank tiles: the returned slice
// holds, at index r, a private copy of rank r's tile.
func (m *BlockMap) Scatter(a *matrix.Dense) []*matrix.Dense {
	tiles := m.Views(a)
	for r, v := range tiles {
		tiles[r] = v.Clone()
	}
	return tiles
}

// Views cuts a global matrix into per-rank tiles without copying: the
// returned slice holds, at index r, a view of a covering rank r's tile —
// what Scatter would have cloned. Views of an operand let ranks read it in
// place (they must not write it); views of an output matrix let them write
// their tiles where Gather would have put them.
func (m *BlockMap) Views(a *matrix.Dense) []*matrix.Dense {
	m.checkShape(a)
	tiles := make([]*matrix.Dense, m.grid.Size())
	for r := range tiles {
		i, j := m.grid.Coords(r)
		tr, tc := m.TileShape(r)
		tiles[r] = a.View(m.rowStart(i), m.colStart(j), tr, tc)
	}
	return tiles
}

// Gather reassembles the global matrix from per-rank tiles (the inverse of
// Scatter).
func (m *BlockMap) Gather(tiles []*matrix.Dense) *matrix.Dense {
	if len(tiles) != m.grid.Size() {
		panic(fmt.Sprintf("dist: %d tiles for grid %v", len(tiles), m.grid))
	}
	out := matrix.New(m.rows, m.cols)
	for r, t := range tiles {
		tr, tc := m.TileShape(r)
		if t.Rows != tr || t.Cols != tc {
			panic(fmt.Sprintf("dist: tile %d is %dx%d, want %dx%d", r, t.Rows, t.Cols, tr, tc))
		}
		if tr == 0 || tc == 0 {
			continue
		}
		i, j := m.grid.Coords(r)
		out.View(m.rowStart(i), m.colStart(j), tr, tc).CopyFrom(t)
	}
	return out
}
