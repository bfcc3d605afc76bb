// Package core implements the paper's algorithms on the message-passing
// runtime: SUMMA (van de Geijn & Watts 1997, Section II-A of the paper) and
// the paper's contribution HSUMMA (Section III, Algorithm 1) — the two-level
// hierarchical redesign that splits every pivot broadcast into an
// inter-group phase and an intra-group phase — plus the multilevel
// (>2-level) generalisation the paper lists as future work.
//
// All algorithms multiply block-checkerboard-distributed matrices in
// place and are shape-general: the global problem is C (M×N) += A (M×K) ·
// B (K×N), with the paper's square n×n benchmark as the M = N = K special
// case. Each rank contributes its local tiles of A ((M/s)×(K/t)) and B
// ((K/s)×(N/t)) and accumulates into its local tile of C ((M/s)×(N/t));
// the pivot loop walks the contraction dimension K. Correctness is
// asserted against sequential GEMM in the package tests for every grid
// shape, group count and block-size combination the paper exercises
// (scaled down), plus rectangular shapes in every aspect class.
package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/topo"
)

// Knobs is the one declaration of the pass-through execution knobs: the
// values a caller pins on any surface (hsumma.Config, hsumma.SimConfig,
// tune.ResolveParams, a planner candidate, the daemon's JSON body or query
// string) that reach the algorithms unchanged. Options, tune.Candidate and
// the daemon's wire struct embed it, so the json names below are the wire
// names; the flat public configs convert to it in one function each (see
// README "Adding a knob").
type Knobs struct {
	// BlockSize is the paper's b: the pivot panel width per SUMMA step
	// (and per HSUMMA inner step), walking the K dimension.
	BlockSize int `json:"block_size,omitempty"`
	// OuterBlockSize is the paper's B: the panel width exchanged between
	// groups per HSUMMA outer step. Zero means B = b, the configuration
	// used in all the paper's experiments. Must be a multiple of b.
	OuterBlockSize int `json:"outer_block_size,omitempty"`
	// Broadcast selects the broadcast schedule for every collective;
	// defaults to binomial.
	Broadcast sched.Algorithm `json:"broadcast,omitempty"`
	// Segments is the pipeline depth for the chain broadcast (ignored
	// otherwise).
	Segments int `json:"segments,omitempty"`
	// Threads is the per-rank thread budget for the local multiply — the
	// Go analog of OpenMP threads inside each MPI process. Values ≤ 1
	// mean serial (the default); the live transport splits each rank's
	// Gemm over write-disjoint C row bands, the virtual ones scale the
	// compute clock by the shared parallel-efficiency curve.
	Threads int `json:"threads,omitempty"`
	// StrassenLevels is the inter-rank quadrant recursion depth of the
	// Strassen algorithm (0 means one level); ignored by the other
	// algorithms.
	StrassenLevels int `json:"strassen_levels,omitempty"`
	// StrassenInnerGroups selects the bottom algorithm the Strassen
	// recursion hands each sub-grid problem to: 0 runs SUMMA, > 0 runs
	// HSUMMA with that group count factored onto the bottom sub-grid.
	StrassenInnerGroups int `json:"strassen_inner_groups,omitempty"`
	// LocalStrassen selects the sub-cubic Strassen kernel for every
	// rank-local multiply (blas.StrassenGemm on the live transport; the
	// virtual ones charge blas.StrassenFlops). Orthogonal to the
	// algorithm: any distributed schedule can run a sub-cubic local
	// kernel. Note Strassen reassociates the arithmetic — results match
	// the classic kernel to relative tolerance, not bit for bit.
	LocalStrassen bool `json:"local_strassen,omitempty"`
	// StrassenCutoff is the local Strassen recursion cutoff (≤ 0 selects
	// the blas default); ignored unless LocalStrassen is set.
	StrassenCutoff int `json:"strassen_cutoff,omitempty"`
}

// Exec returns the execution descriptor every local multiply runs under.
func (k Knobs) Exec() comm.Exec {
	return comm.Exec{Threads: k.Threads, Strassen: k.LocalStrassen, Cutoff: k.StrassenCutoff}
}

// Options configures a distributed multiplication. The zero value is not
// usable; fill in at least a shape (Shape, or N as the square shorthand),
// Grid and BlockSize.
type Options struct {
	// Shape is the global GEMM shape C (M×N) += A (M×K)·B (K×N). The zero
	// value defers to N, the square shorthand.
	Shape matrix.Shape
	// N is the square shorthand for Shape = Square(n) — the paper's
	// configuration. Ignored when Shape is set.
	N int
	// Grid is the s×t process grid.
	Grid topo.Grid
	// Groups is the hierarchical group arrangement for HSUMMA.
	Groups topo.Hier
	Knobs
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Shape.IsZero() {
		out.Shape = matrix.Square(out.N)
	}
	if out.Broadcast == "" {
		out.Broadcast = sched.Binomial
	}
	if out.Segments <= 0 {
		out.Segments = 1
	}
	if out.OuterBlockSize == 0 {
		out.OuterBlockSize = out.BlockSize
	}
	if out.Threads < 1 {
		out.Threads = 1
	}
	return out
}

// tiles returns the per-rank tile extents of the three operands on the
// s×t grid: A is aRows×aCols, B is bRows×bCols, C is aRows×bCols.
func (o Options) tiles() (aRows, aCols, bRows, bCols int) {
	sh, g := o.Shape, o.Grid
	return sh.M / g.S, sh.K / g.T, sh.K / g.S, sh.N / g.T
}

// validateSUMMA checks the divisibility constraints the implementation
// relies on: uniform tiles per rank for each operand (s | M, s | K,
// t | K, t | N) and pivot panels that live in exactly one grid
// row/column (b | K/t for A's panels, b | K/s for B's), the same
// constraints the paper's experiments satisfy with M = N = K.
func (o Options) validateSUMMA() error {
	sh := o.Shape
	if err := sh.Validate(); err != nil {
		return err
	}
	if o.BlockSize <= 0 {
		return fmt.Errorf("core: invalid block size b=%d for shape %v", o.BlockSize, sh)
	}
	s, t := o.Grid.S, o.Grid.T
	if s <= 0 || t <= 0 {
		return fmt.Errorf("core: invalid grid %v", o.Grid)
	}
	if sh.M%s != 0 || sh.K%s != 0 || sh.K%t != 0 || sh.N%t != 0 {
		return fmt.Errorf("core: shape %v not divisible by grid %v (need s | M, s | K, t | K, t | N)", sh, o.Grid)
	}
	if (sh.K/t)%o.BlockSize != 0 || (sh.K/s)%o.BlockSize != 0 {
		return fmt.Errorf("core: block size %d does not divide the per-rank K extents %d (A columns) and %d (B rows)",
			o.BlockSize, sh.K/t, sh.K/s)
	}
	return nil
}

// validateHSUMMA adds the hierarchical constraints: the group arrangement
// must match the grid, B must be a multiple of b, and outer panels must
// live in one grid row/column (B | K/s, B | K/t).
func (o Options) validateHSUMMA() error {
	if err := o.validateSUMMA(); err != nil {
		return err
	}
	h := o.Groups
	if h.Grid != o.Grid {
		return fmt.Errorf("core: group hierarchy %v does not match grid %v", h.Grid, o.Grid)
	}
	if h.I <= 0 || h.J <= 0 || o.Grid.S%h.I != 0 || o.Grid.T%h.J != 0 {
		return fmt.Errorf("core: invalid group arrangement %dx%d for grid %v", h.I, h.J, o.Grid)
	}
	B := o.OuterBlockSize
	if B%o.BlockSize != 0 {
		return fmt.Errorf("core: outer block %d not a multiple of inner block %d", B, o.BlockSize)
	}
	sh := o.Shape
	if (sh.K/o.Grid.S)%B != 0 || (sh.K/o.Grid.T)%B != 0 {
		return fmt.Errorf("core: outer block %d does not divide the per-rank K extents %d (A columns) and %d (B rows)",
			B, sh.K/o.Grid.T, sh.K/o.Grid.S)
	}
	return nil
}
