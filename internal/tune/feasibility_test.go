package tune

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// Planner feasibility must match the execution layer: a pinned block
// size the algorithms accept, and a padded square-only baseline the
// simulator runs, may not be declared infeasible by the enumeration.
func TestPlannerFeasibilityMatchesExecution(t *testing.T) {
	// Pinned b=256 on an 8x8 grid for the tall shape: execution accepts it
	// (K extents 1024 divisible), so the planner must too.
	g := topo.Grid{S: 8, T: 8}
	pl, err := NewPlanner().Plan(Request{
		Platform: machine.Grid5000(),
		Shape:    matrix.Shape{M: 8192, N: 512, K: 8192},
		P:        64, Grid: &g, BlockSize: 256, Quick: true, NoCache: true,
	})
	if err != nil {
		t.Fatalf("pinned b=256: %v", err)
	}
	if pl.Best.BlockSize != 256 && pl.Best.Algorithm != engine.Cannon && pl.Best.Algorithm != engine.Fox {
		t.Fatalf("pinned b escaped: %+v", pl.Best.Candidate)
	}
	// Pinned OuterBlockSize beyond the skinny cap: execution pads, so the
	// planner must keep HSUMMA in the space.
	plB, err := NewPlanner().Plan(Request{
		Platform: machine.Grid5000(),
		Shape:    matrix.Shape{M: 8192, N: 512, K: 8192},
		P:        64, Grid: &g, BlockSize: 64, OuterBlockSize: 128,
		Algorithms: []engine.Algorithm{engine.HSUMMA},
		Quick:      true, NoCache: true,
	})
	if err != nil {
		t.Fatalf("pinned B=128: %v", err)
	}
	if plB.Best.OuterBlockSize != 128 {
		t.Fatalf("pinned B escaped: %+v", plB.Best.Candidate)
	}

	// Cannon on n=7, p=4: execution pads to 8; the planner must agree.
	pl2, err := NewPlanner().Plan(Request{
		Platform:   machine.Grid5000(),
		Shape:      matrix.Square(7),
		P:          4,
		Algorithms: []engine.Algorithm{engine.Cannon},
		Quick:      true, NoCache: true,
	})
	if err != nil {
		t.Fatalf("cannon n=7: %v", err)
	}
	if pl2.Best.Algorithm != engine.Cannon {
		t.Fatalf("unexpected best %+v", pl2.Best.Candidate)
	}
}
