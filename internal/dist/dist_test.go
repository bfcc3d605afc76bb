package dist

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/topo"
)

func TestBlockMapRoundTrip(t *testing.T) {
	for _, c := range []struct{ rows, cols, s, tt int }{
		{8, 8, 2, 2}, {8, 12, 2, 4}, {16, 8, 4, 2}, {6, 6, 1, 1}, {6, 6, 6, 6},
	} {
		g := topo.Grid{S: c.s, T: c.tt}
		m, err := NewBlockMap(c.rows, c.cols, g)
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.Random(c.rows, c.cols, 42)
		tiles := m.Scatter(a)
		if len(tiles) != g.Size() {
			t.Fatalf("%d tiles for %v", len(tiles), g)
		}
		for _, tile := range tiles {
			if tile.Rows != m.LocalRows() || tile.Cols != m.LocalCols() {
				t.Fatalf("tile %dx%d, want %dx%d", tile.Rows, tile.Cols, m.LocalRows(), m.LocalCols())
			}
		}
		if !matrix.Equal(m.Gather(tiles), a) {
			t.Fatalf("gather(scatter) != identity for %dx%d over %v", c.rows, c.cols, g)
		}
	}
}

func TestBlockMapScatterCopies(t *testing.T) {
	g := topo.Grid{S: 2, T: 2}
	m, _ := NewBlockMap(4, 4, g)
	a := matrix.Random(4, 4, 1)
	tiles := m.Scatter(a)
	tiles[0].Set(0, 0, 999)
	if a.At(0, 0) == 999 {
		t.Fatal("scatter aliases the source matrix")
	}
}

func TestBlockMapLocate(t *testing.T) {
	g := topo.Grid{S: 2, T: 4}
	m, _ := NewBlockMap(8, 16, g) // 4x4 tiles
	a := matrix.Indexed(8, 16, 0)
	tiles := m.Scatter(a)
	for gi := 0; gi < 8; gi++ {
		for gj := 0; gj < 16; gj++ {
			rank, li, lj := m.Locate(gi, gj)
			if got, want := tiles[rank].At(li, lj), a.At(gi, gj); got != want {
				t.Fatalf("Locate(%d,%d) -> rank %d (%d,%d): %g, want %g", gi, gj, rank, li, lj, got, want)
			}
			if m.Owner(gi, gj) != rank {
				t.Fatal("Owner disagrees with Locate")
			}
		}
	}
}

func TestBlockMapValidation(t *testing.T) {
	g := topo.Grid{S: 2, T: 2}
	if _, err := NewBlockMap(0, 4, g); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := NewBlockMap(4, 4, topo.Grid{}); err == nil {
		t.Fatal("zero grid accepted")
	}
	// Non-divisible shapes are supported (balanced tiles), just not
	// uniform — the property the SUMMA-family algorithms check for.
	m, err := NewBlockMap(5, 4, g)
	if err != nil {
		t.Fatalf("balanced 5x4 over 2x2 rejected: %v", err)
	}
	if m.Uniform() {
		t.Fatal("5x4 over 2x2 reported uniform")
	}
	if u, _ := NewBlockMap(4, 4, g); !u.Uniform() {
		t.Fatal("4x4 over 2x2 reported non-uniform")
	}
}

// TestBlockMapViews: Views is Scatter without the copy — the same tiles,
// aliasing the global matrix — for even and ragged splits, and writing
// through the views of an output matrix is a Gather that never happens.
func TestBlockMapViews(t *testing.T) {
	for _, c := range []struct{ rows, cols, s, tt int }{
		{8, 12, 2, 4}, {7, 10, 2, 3}, {3, 2, 4, 4},
	} {
		g := topo.Grid{S: c.s, T: c.tt}
		m, err := NewBlockMap(c.rows, c.cols, g)
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.Random(c.rows, c.cols, 7)
		views, tiles := m.Views(a), m.Scatter(a)
		out := matrix.New(c.rows, c.cols)
		for r, dst := range m.Views(out) {
			if !matrix.Equal(views[r], tiles[r]) {
				t.Fatalf("%dx%d over %v: view %d differs from the scattered tile", c.rows, c.cols, g, r)
			}
			if dst.Rows > 0 && dst.Cols > 0 {
				dst.CopyFrom(tiles[r])
			}
		}
		if !matrix.Equal(out, a) {
			t.Fatalf("%dx%d over %v: writing through output views did not reassemble the matrix", c.rows, c.cols, g)
		}
	}
	m, _ := NewBlockMap(4, 4, topo.Grid{S: 2, T: 2})
	a := matrix.Random(4, 4, 1)
	m.Views(a)[3].Set(1, 1, 999)
	if a.At(3, 3) != 999 {
		t.Fatal("Views must alias the global matrix")
	}
}
