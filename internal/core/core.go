// Package core implements the paper's algorithms on the message-passing
// runtime as one family: SUMMA (van de Geijn & Watts 1997, Section II-A of
// the paper), the paper's contribution HSUMMA (Section III, Algorithm 1) —
// which splits every pivot broadcast into an inter-group phase and an
// intra-group phase — and the multilevel generalisation the paper lists as
// future work are the 0-, 1- and h-level cases of one pivot loop over a
// list of levels (pivotLoop in summa.go), under one validation
// (Options.Validate). "SUMMA is a special case of HSUMMA" is therefore not
// a property the tests have to establish between two implementations: a
// level of 1×1 groups, or one that spans the grid, is a stage whose
// communicators have a single rank. Beside the family sit the classical
// square-grid baselines, Cannon and Fox (cannon.go); they share one
// square-only rule (Options.ValidateSquare), as the family shares
// Options.Validate.
//
// All algorithms multiply block-checkerboard-distributed matrices in
// place; the family is also shape-general: the global problem is
// C (M×N) += A (M×K) · B (K×N), with the paper's square n×n benchmark as
// the M = N = K special case. Each rank contributes its local tiles of A ((M/s)×(K/t)) and B
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
	// Broadcast selects the broadcast schedule for every collective:
	// binomial (the default) or Van de Geijn.
	Broadcast sched.Algorithm `json:"broadcast,omitempty"`
	// Threads is the per-rank thread budget for the local multiply — the
	// Go analog of OpenMP threads inside each MPI process. Values ≤ 1
	// mean serial (the default); the live transport splits each rank's
	// Gemm over write-disjoint C row bands, the virtual ones scale the
	// compute clock by the shared parallel-efficiency curve.
	Threads int `json:"threads,omitempty"`
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

// Level is one grouping level of the hierarchy: the process grid (or the
// previous level's subgrid) is partitioned into I×J groups, and panels of
// width BlockSize are exchanged across those groups.
type Level struct {
	I, J      int
	BlockSize int
}

// GroupLevels returns HSUMMA's hierarchy as a level list: one level of
// Groups.I×Groups.J groups exchanging OuterBlockSize-wide panels (zero
// means B = b, the configuration of all the paper's experiments).
func (o Options) GroupLevels() []Level {
	B := o.OuterBlockSize
	if B == 0 {
		B = o.BlockSize
	}
	return []Level{{I: o.Groups.I, J: o.Groups.J, BlockSize: B}}
}

// Validate is the one statement of what the pivot loop relies on, for any
// hierarchy: uniform tiles per rank for each operand (s | M, s | K, t | K,
// t | N); positive panel widths that do not increase going down the
// levels to b, each a multiple of the next; top-level panels that live in
// exactly one grid row/column (the top width divides K/t for A's panels
// and K/s for B's); positive group counts whose products divide the grid;
// and, when Groups is set, that it describes this grid. The paper's
// experiments satisfy all of it with M = N = K.
func (opts *Options) Validate(levels []Level) error {
	o := opts.withDefaults()
	sh := o.Shape
	if err := sh.Validate(); err != nil {
		return err
	}
	s, t := o.Grid.S, o.Grid.T
	if s <= 0 || t <= 0 {
		return fmt.Errorf("core: invalid grid %v", o.Grid)
	}
	if sh.M%s != 0 || sh.K%s != 0 || sh.K%t != 0 || sh.N%t != 0 {
		return fmt.Errorf("core: shape %v not divisible by grid %v (need s | M, s | K, t | K, t | N)", sh, o.Grid)
	}
	if o.Groups != (topo.Hier{}) && o.Groups.Grid != o.Grid {
		return fmt.Errorf("core: group hierarchy %v does not match grid %v", o.Groups.Grid, o.Grid)
	}
	if o.BlockSize <= 0 {
		return fmt.Errorf("core: invalid block size b=%d for shape %v", o.BlockSize, sh)
	}
	top, prodI, prodJ := o.BlockSize, 1, 1
	for k := len(levels) - 1; k >= 0; k-- {
		lv := levels[k]
		if lv.I <= 0 || lv.J <= 0 || lv.BlockSize <= 0 {
			return fmt.Errorf("core: invalid level %d: %dx%d groups, width %d", k, lv.I, lv.J, lv.BlockSize)
		}
		if lv.BlockSize%top != 0 {
			return fmt.Errorf("core: level %d width %d not a multiple of the next width %d", k, lv.BlockSize, top)
		}
		top, prodI, prodJ = lv.BlockSize, prodI*lv.I, prodJ*lv.J
	}
	if (sh.K/t)%top != 0 || (sh.K/s)%top != 0 {
		return fmt.Errorf("core: top width %d does not divide the per-rank K extents %d (A columns) and %d (B rows)",
			top, sh.K/t, sh.K/s)
	}
	if s%prodI != 0 || t%prodJ != 0 {
		return fmt.Errorf("core: level products %dx%d do not divide grid %v", prodI, prodJ, o.Grid)
	}
	return nil
}

// SquareOnly is the restriction Cannon and Fox share: a square problem on
// a square q×q grid. Both halves report matrix.ErrSquareOnly, so padding,
// the planner's enumeration and the serving layer's batchability probe
// treat the two algorithms alike. The error is unprefixed; each
// caller names itself and the algorithm.
func SquareOnly(sh matrix.Shape, g topo.Grid) error {
	if !sh.IsSquare() {
		return fmt.Errorf("shape %v: %w", sh, matrix.ErrSquareOnly)
	}
	if g.S != g.T {
		return fmt.Errorf("grid %v: %w", g, matrix.ErrSquareOnly)
	}
	return nil
}

// ValidateSquare is the one validation of the square-only algorithms,
// Cannon and Fox, the counterpart of Validate (call it on padded options):
// SquareOnly and q | n.
func (opts *Options) ValidateSquare() error {
	o := opts.withDefaults()
	sh := o.Shape
	if err := sh.Validate(); err != nil {
		return err
	}
	if err := SquareOnly(sh, o.Grid); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	q := o.Grid.S
	if q <= 0 {
		return fmt.Errorf("core: invalid grid %v", o.Grid)
	}
	if sh.N%q != 0 {
		return fmt.Errorf("core: n=%d not divisible by q=%d", sh.N, q)
	}
	return nil
}
