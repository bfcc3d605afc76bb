package dist

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/topo"
)

// Non-divisible shapes: every element must land on exactly one rank, at
// the position Locate reports, and Gather(Scatter(a)) must reproduce a —
// including matrices smaller than the grid.

func TestBlockMapRaggedRoundTrip(t *testing.T) {
	cases := []struct{ rows, cols, s, tt int }{
		{7, 7, 2, 2},  // both dimensions ragged
		{5, 4, 2, 2},  // rows ragged only
		{8, 10, 2, 4}, // cols ragged only
		{9, 13, 3, 5}, // coprime everything
		{3, 3, 4, 4},  // matrix smaller than the grid (empty tiles)
		{1, 17, 2, 3}, // single row
		{100, 100, 7, 9},
	}
	for _, c := range cases {
		g := topo.Grid{S: c.s, T: c.tt}
		m, err := NewBlockMap(c.rows, c.cols, g)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		a := matrix.Indexed(c.rows, c.cols, 0)
		tiles := m.Scatter(a)

		// Tile shapes must partition the matrix.
		rowSum := 0
		for i := 0; i < c.s; i++ {
			tr, _ := m.TileShape(g.Rank(i, 0))
			rowSum += tr
		}
		colSum := 0
		for j := 0; j < c.tt; j++ {
			_, tc := m.TileShape(g.Rank(0, j))
			colSum += tc
		}
		if rowSum != c.rows || colSum != c.cols {
			t.Fatalf("%+v: tiles cover %dx%d of %dx%d", c, rowSum, colSum, c.rows, c.cols)
		}

		// Locate agrees with Scatter for every element.
		for gi := 0; gi < c.rows; gi++ {
			for gj := 0; gj < c.cols; gj++ {
				rank, li, lj := m.Locate(gi, gj)
				if got, want := tiles[rank].At(li, lj), a.At(gi, gj); got != want {
					t.Fatalf("%+v: Locate(%d,%d) -> rank %d (%d,%d): %g, want %g",
						c, gi, gj, rank, li, lj, got, want)
				}
			}
		}
		if !matrix.Equal(m.Gather(tiles), a) {
			t.Fatalf("%+v: gather(scatter) != identity", c)
		}
	}
}
