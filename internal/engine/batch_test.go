package engine

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// TestWithRHSRepads locks in the batching contract: replacing N re-pads
// only the N dimension (M and K keep the base padding), and the widened
// shape still satisfies the algorithm's constraints.
func TestWithRHSRepads(t *testing.T) {
	groups, err := topo.FactorGroups(topo.Grid{S: 2, T: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := Spec{
		Algorithm: HSUMMA,
		Opts: core.Options{
			Shape: matrix.Shape{M: 30, N: 26, K: 22}, Grid: topo.Grid{S: 2, T: 2},
			Knobs: core.Knobs{BlockSize: 2, OuterBlockSize: 4}, Groups: groups,
		},
	}
	padded, err := base.Padded()
	if err != nil {
		t.Fatal(err)
	}
	ps := padded.Shape()

	for _, k := range []int{1, 2, 3, 5} {
		got, err := padded.WithRHS(k * 26)
		if err != nil {
			t.Fatalf("WithRHS(%d): %v", k*26, err)
		}
		gs := got.Shape()
		if gs.M != ps.M || gs.K != ps.K {
			t.Fatalf("WithRHS(%d) changed M or K: %v vs %v", k*26, gs, ps)
		}
		if gs.N < k*26 || gs.N%base.Opts.Grid.T != 0 {
			t.Fatalf("WithRHS(%d): N'=%d not padded to grid", k*26, gs.N)
		}
		// Idempotent under re-padding, like Padded itself.
		again, err := got.WithRHS(gs.N)
		if err != nil || again.Shape() != gs {
			t.Fatalf("WithRHS not stable: %v %v", again.Shape(), err)
		}
	}

	if _, err := padded.WithRHS(0); err == nil {
		t.Fatal("WithRHS(0) did not error")
	}
}

// TestWithRHSSquareOnlyRejects locks in the cannot-batch signal: widening
// a square-only algorithm's RHS makes the shape rectangular and must fail.
func TestWithRHSSquareOnlyRejects(t *testing.T) {
	for _, alg := range []Algorithm{Cannon, Fox} {
		spec := Spec{
			Algorithm: alg,
			Opts:      core.Options{N: 16, Grid: topo.Grid{S: 4, T: 4}, Knobs: core.Knobs{BlockSize: 4}},
		}
		_, err := spec.WithRHS(32)
		if !errors.Is(err, matrix.ErrSquareOnly) {
			t.Fatalf("%s: WithRHS(32) err = %v, want ErrSquareOnly", alg, err)
		}
	}
}
