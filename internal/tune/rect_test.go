package tune

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// Auto block sizes must never exceed a skinny dimension's per-rank
// extent — the DefaultBlockSize half of the skinny-dimension rule.
func TestDefaultBlockSizeSkinnyDimensions(t *testing.T) {
	cases := []struct {
		sh   matrix.Shape
		g    topo.Grid
		want int
	}{
		// Square behaviour unchanged.
		{matrix.Square(256), topo.Grid{S: 4, T: 4}, 64},
		{matrix.Square(256), topo.Grid{S: 2, T: 8}, 32},
		// Skinny N: N/T = 512/8 = 64 does not bind, K extents do not
		// bind, full default.
		{matrix.Shape{M: 8192, N: 512, K: 8192}, topo.Grid{S: 8, T: 8}, 64},
		// Skinny N: N/T = 64/8 = 8 caps b at 8 even though K extents
		// would allow 64.
		{matrix.Shape{M: 8192, N: 64, K: 8192}, topo.Grid{S: 8, T: 8}, 8},
		// Skinny K: K/S = 32/4 = 8 caps b.
		{matrix.Shape{M: 4096, N: 4096, K: 32}, topo.Grid{S: 4, T: 4}, 8},
		// Skinny M caps even though it is not a K extent.
		{matrix.Shape{M: 16, N: 4096, K: 4096}, topo.Grid{S: 4, T: 4}, 4},
		// Dimension smaller than the grid degrades to 1 (padding covers it).
		{matrix.Shape{M: 2, N: 4096, K: 4096}, topo.Grid{S: 4, T: 4}, 1},
		// Non-dividing K: the block is bounded so the padding it forces
		// stays under ~12.5% of K (b=32 would pad 100 → 192; b=4 pads to
		// 108).
		{matrix.Square(100), topo.Grid{S: 3, T: 3}, 4},
	}
	for _, c := range cases {
		if got := DefaultBlockSize(c.sh, c.g); got != c.want {
			t.Fatalf("DefaultBlockSize(%v, %v) = %d, want %d", c.sh, c.g, got, c.want)
		}
	}
}

// The enumeration half of the skinny-dimension rule: no candidate's b or
// B may exceed the smallest per-rank tile extent.
func TestBlockEnumerationRespectsSkinnyExtents(t *testing.T) {
	req := Request{
		Platform: machine.Grid5000(),
		Shape:    matrix.Shape{M: 2048, N: 64, K: 2048},
		P:        16,
	}
	cands, err := Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Algorithm == engine.Cannon || c.Algorithm == engine.Fox {
			t.Fatalf("square-only %s enumerated for rectangular shape", c.Algorithm)
		}
		limit := minTileExtent(req.Shape, c.Grid)
		if c.BlockSize > limit {
			t.Fatalf("candidate %s: b=%d exceeds min tile extent %d", c, c.BlockSize, limit)
		}
		if c.OuterBlockSize > 0 && c.OuterBlockSize > limit {
			t.Fatalf("candidate %s: B=%d exceeds min tile extent %d", c, c.OuterBlockSize, limit)
		}
	}
}

// Tall problems must get tall grids: the planner enumerates grid
// orientation against the aspect ratio, and quick mode picks the
// orientation-matched grid.
func TestPlannerPicksOrientationMatchedGrid(t *testing.T) {
	tall := matrix.Shape{M: 8192, N: 512, K: 8192}
	req := Request{Platform: machine.Grid5000(), Shape: tall, P: 32, Quick: true}
	grids := candidateGrids(req.withDefaults())
	if len(grids) != 1 {
		t.Fatalf("quick mode returned %d grids", len(grids))
	}
	if g := grids[0]; g.S <= g.T {
		t.Fatalf("tall shape got non-tall quick grid %v", g)
	}

	// The full enumeration must contain both orientations.
	full := candidateGrids(Request{Platform: machine.Grid5000(), Shape: tall, P: 32}.withDefaults())
	sawTall, sawWide := false, false
	for _, g := range full {
		if g.S > g.T {
			sawTall = true
		}
		if g.S < g.T {
			sawWide = true
		}
	}
	if !sawTall || !sawWide {
		t.Fatalf("full enumeration missing an orientation: %v", full)
	}

	// End to end: the planned best grid for a tall problem is tall.
	pl, err := NewPlanner().Plan(Request{Platform: machine.Grid5000(), Shape: tall, P: 32, Quick: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if g := pl.Best.Grid; g.S <= g.T {
		t.Fatalf("planner picked grid %v for tall shape %v", g, tall)
	}
	if pl.Shape != tall {
		t.Fatalf("plan shape %v, want %v", pl.Shape, tall)
	}

	// Square requests keep the squarest-grid behaviour.
	sq := candidateGrids(Request{Platform: machine.Grid5000(), Shape: matrix.Square(512), P: 32, Quick: true}.withDefaults())
	if len(sq) != 1 || sq[0] != (topo.Grid{S: 4, T: 8}) {
		t.Fatalf("square quick grid = %v, want 4x8", sq)
	}
}

// Asking the planner for a square-only baseline on a rectangular shape
// must report the shared ErrSquareOnly — the same error Multiply and
// Simulate return.
func TestCandidatesSquareOnlyError(t *testing.T) {
	_, err := Candidates(Request{
		Platform:   machine.Grid5000(),
		Shape:      matrix.Shape{M: 512, N: 128, K: 512},
		P:          16,
		Algorithms: []engine.Algorithm{engine.Cannon, engine.Fox},
	})
	if !errors.Is(err, matrix.ErrSquareOnly) {
		t.Fatalf("got %v, want ErrSquareOnly", err)
	}
}

// The rectangular scorer agrees with the planner's stage-2 simulation
// ranking closely enough to plan rectangles: the refined best of a rect
// request must be executable and report a sensible simulated time.
func TestPlanRectangularEndToEnd(t *testing.T) {
	req := Request{
		Platform: machine.Grid5000Calibrated(),
		Shape:    matrix.Shape{M: 1024, N: 128, K: 1024},
		P:        16, Quick: true, NoCache: true,
	}
	pl, err := NewPlanner().Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Best.Refined {
		t.Fatalf("rect best not refined: %+v", pl.Best)
	}
	if pl.Best.SimTotal <= 0 {
		t.Fatalf("non-positive simulated total: %+v", pl.Best)
	}
	if pl.N != 0 {
		t.Fatalf("rect plan echoed square shorthand n=%d", pl.N)
	}
	// The cache fingerprint must distinguish shapes with equal K.
	pl2, err := NewPlanner().Plan(Request{
		Platform: req.Platform,
		Shape:    matrix.Shape{M: 128, N: 1024, K: 1024},
		P:        16, Quick: true, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(req.withDefaults()) == fingerprint(Request{
		Platform: req.Platform,
		Shape:    matrix.Shape{M: 128, N: 1024, K: 1024},
		P:        16, Quick: true, NoCache: true,
	}.withDefaults()) {
		t.Fatal("transposed shapes share a cache fingerprint")
	}
	_ = pl2
}
