package model

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// This file instantiates the closed-form cost on explicit S×T grids and
// rectangular problems — what the planner scores — where the paper's
// Tables I–II assume (n, √p×√p): the per-rank panels are (M/S)×b for A and
// b×(N/T) for B, and the pivot loop makes K/b steps over the contraction
// dimension. It is the same formula (family), so a square problem on a
// square grid with square groups scores exactly as the square analysis
// does (asserted in rect_test.go on all five platform presets).

// RectParams fixes a rectangular GEMM instance on an explicit process
// grid for the generalised closed-form analysis.
type RectParams struct {
	// Shape is the global problem C (M×N) += A (M×K)·B (K×N).
	Shape matrix.Shape
	// Grid is the S×T process grid (the square analysis assumes √p×√p).
	Grid topo.Grid
	// B is the pivot panel width b.
	B int
	// Machine is the Hockney model.
	Machine machine.Model
	// Bcast is the broadcast model of equation (1); defaults to
	// BinomialTree.
	Bcast Broadcast
	// ElemBytes converts elements to the units β is quoted in (0 = 1, as
	// in Params).
	ElemBytes float64
}

func (p RectParams) validate() error {
	if err := p.Shape.Validate(); err != nil {
		return err
	}
	if p.Grid.S <= 0 || p.Grid.T <= 0 || p.B <= 0 {
		return fmt.Errorf("model: invalid rect params grid=%v b=%d", p.Grid, p.B)
	}
	return nil
}

// Family evaluates the SUMMA family's closed-form cost (see family) for
// the hierarchy of grouping levels, outermost first: none is SUMMA, one is
// HSUMMA, more is the multilevel algorithm. It is pure arithmetic — the
// caller (the planner's scorer) has validated the configuration.
func Family(par RectParams, levels []Level) Cost {
	sh, g := par.Shape, par.Grid
	return family(float64(sh.M), float64(sh.N), float64(sh.K), float64(g.S), float64(g.T), float64(par.B),
		levels, par.Machine, par.Bcast, par.ElemBytes)
}

// SUMMARect evaluates the flat algorithm's cost on a rectangular problem:
// K/b steps, each broadcasting the (M/S)×b panel of A over the T-wide row
// communicator and the b×(N/T) panel of B over the S-tall column
// communicator:
//
//	T_S = (K/b)·( L(T) + L(S) )·α + (K/b)·( (M/S)·b·W(T) + b·(N/T)·W(S) )·β
func SUMMARect(par RectParams) Cost {
	if err := par.validate(); err != nil {
		panic(err)
	}
	return Family(par, nil)
}

// HSUMMARect evaluates the hierarchical algorithm's cost for an I×J group
// arrangement on a rectangular problem, with inner block b and outer
// block outerB (0 means b): K/outerB inter-group steps over the J-wide
// group-row and I-tall group-column communicators, plus K/b intra-group
// steps over the (T/J)-wide and (S/I)-tall inner communicators.
func HSUMMARect(par RectParams, I, J, outerB int) Cost {
	if err := par.validate(); err != nil {
		panic(err)
	}
	if I <= 0 || J <= 0 || par.Grid.S%I != 0 || par.Grid.T%J != 0 {
		panic(fmt.Sprintf("model: invalid group arrangement %dx%d for grid %v", I, J, par.Grid))
	}
	if outerB == 0 {
		outerB = par.B
	}
	return Family(par, []Level{{I: float64(I), J: float64(J), Width: float64(outerB)}})
}
