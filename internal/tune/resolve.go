package tune

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/topo"
)

// This file is the shared live-path configuration resolution: it turns a
// user-facing description of one multiplication (what the public
// hsumma.Config carries, and what the serving layer receives per request)
// into the engine's fully pinned, padded Spec. hsumma.Multiply,
// hsumma.Simulate and internal/serve all route through ResolveSpec, so the
// three surfaces agree on defaulting (algorithm, grid, groups, block
// sizes), on AlgAuto planner resolution — and therefore on engine.Spec.Key,
// the identity the serving layer's session routing and the plan cache are
// keyed by.

// AutoProcs is the rank-count threshold beyond which implicit Auto
// resolution skips the stage-2 virtual refinement: a single full-scale
// virtual run at the paper's 16384 ranks costs seconds, and the analytic
// ranking is already faithful there (asserted against exhaustive sweeps in
// this package's tests at tractable scale).
const AutoProcs = 2048

// ResolveParams describes one live multiplication the way a caller pins it:
// zero values mean "resolve for me". It is the transport-free subset of the
// public Config.
type ResolveParams struct {
	// Shape is the global GEMM problem (required).
	Shape matrix.Shape
	// Procs is the rank count (required; must match Grid when both set).
	Procs int
	// Algorithm defaults to HSUMMA; engine.Auto delegates everything not
	// explicitly pinned to the planner.
	Algorithm engine.Algorithm
	// Grid optionally pins the process grid.
	Grid *topo.Grid
	// Groups is HSUMMA's G (0 = feasible count closest to √p).
	Groups int
	// BlockSize is the paper's b (0 = DefaultBlockSize); OuterBlockSize is
	// HSUMMA's B (0 = b).
	BlockSize, OuterBlockSize int
	// Levels configures Multilevel (outermost first).
	Levels []core.Level
	// Broadcast selects the collective schedule (empty = binomial).
	Broadcast sched.Algorithm
	// Threads is the per-rank thread budget for the local multiplies (the
	// hybrid MPI+OpenMP knob). 0 or 1 keeps ranks serial; under
	// engine.Auto, 0 lets the planner choose (currently 1 unless the
	// request carries a core budget).
	Threads int
	// Platform names the machine the planner tunes for under
	// engine.Auto (nil = the Grid'5000 preset). Ignored otherwise.
	Platform *machine.Platform
}

// Knobs returns the pass-through execution knobs rp pins — the one place
// the flat fields above become the shared core.Knobs.
func (rp ResolveParams) Knobs() core.Knobs {
	return core.Knobs{
		BlockSize:      rp.BlockSize,
		OuterBlockSize: rp.OuterBlockSize,
		Broadcast:      rp.Broadcast,
		Threads:        rp.Threads,
	}
}

// SetKnobs is the inverse of Knobs: it pins every execution knob of rp to
// k (a planner candidate's, or a request's wire-form knobs).
func (rp *ResolveParams) SetKnobs(k core.Knobs) {
	rp.BlockSize = k.BlockSize
	rp.OuterBlockSize = k.OuterBlockSize
	rp.Broadcast = k.Broadcast
	rp.Threads = k.Threads
}

// ResolveSpec resolves the parameters into the padded execution spec both
// live paths run. Errors are unprefixed (wrapped where sentinel identity
// matters, e.g. matrix.ErrSquareOnly); each caller applies its own
// namespace — the façade adds "hsumma:", the HTTP layer serves them bare.
// The resolution itself: planner resolution for engine.Auto (explicit Grid and
// BlockSize are honoured as constraints), grid factorisation, the shared
// BlockSize-0-means-auto rule, the √p group default, and the padding of
// the shape up to the algorithm's divisibility constraints, then
// engine.Spec.Validate — so every invalid spec fails here. Square-only
// algorithms reject rectangular shapes and grids with matrix.ErrSquareOnly.
func ResolveSpec(rp ResolveParams) (engine.Spec, error) {
	if err := rp.Shape.Validate(); err != nil {
		return engine.Spec{}, err
	}
	if rp.Procs <= 0 {
		return engine.Spec{}, fmt.Errorf("Procs must be positive")
	}
	if rp.Threads < 0 {
		return engine.Spec{}, fmt.Errorf("Threads must be non-negative, have %d", rp.Threads)
	}
	if rp.Algorithm == engine.Auto {
		planned, err := ResolveAuto(rp, AutoRequest(rp))
		if err != nil {
			return engine.Spec{}, err
		}
		rp = planned
	}
	grid, err := resolveGrid(rp)
	if err != nil {
		return engine.Spec{}, err
	}
	if rp.Algorithm == "" {
		rp.Algorithm = engine.HSUMMA
	}
	if rp.BlockSize <= 0 {
		// The shared "0 means auto" rule, next to the planner's b/B search
		// so Multiply and Simulate default identically.
		rp.BlockSize = DefaultBlockSize(rp.Shape, grid)
	}
	spec := engine.Spec{
		Algorithm: rp.Algorithm,
		Opts:      core.Options{Shape: rp.Shape, Grid: grid, Knobs: rp.Knobs()},
		Levels:    rp.Levels,
	}
	if rp.Algorithm == engine.HSUMMA {
		h, err := resolveGroups(grid, rp.Groups)
		if err != nil {
			return engine.Spec{}, err
		}
		spec.Opts.Groups = h
	}
	// Round the shape up to the execution shape (identity on divisible
	// problems); square-only algorithms reject rectangular shapes and
	// grids here.
	spec, err = spec.Padded()
	if err != nil {
		return engine.Spec{}, err
	}
	// The one validation of every algorithm, before the model evaluates
	// the spec and before any world (or serving session) is built for it.
	if err := spec.Validate(); err != nil {
		return engine.Spec{}, err
	}
	// Attach the model's per-phase prediction for the resolved execution —
	// pinned requests included, so the serving layer's drift tracking
	// always has a denominator. Advisory metadata: never part of Spec.Key.
	pf := machine.Grid5000()
	if rp.Platform != nil {
		pf = *rp.Platform
	}
	spec.Predicted = PredictPhases(spec, pf)
	return spec, nil
}

// ResolveAuto replaces Algorithm: engine.Auto with the winner of the plan
// for req, pinning every field the candidate decides — the one
// candidate→params step both execution paths share. ResolveSpec plans
// AutoRequest(rp); Simulate adds its contention flag to that request
// first. Plans are memoised, so a serving workload pays the search
// once per distinct shape.
func ResolveAuto(rp ResolveParams, req Request) (ResolveParams, error) {
	pl, err := PlanFor(req)
	if err != nil {
		return ResolveParams{}, err
	}
	c := pl.Best.Candidate
	if c.Threads == 0 {
		c.Threads = rp.Threads
	}
	rp.Algorithm = c.Algorithm
	g := c.Grid
	rp.Grid = &g
	rp.Procs = c.Grid.Size()
	rp.Groups = c.Groups
	rp.Levels = c.Levels
	rp.SetKnobs(c.Knobs)
	return rp, nil
}

// AutoRequest is the exact planner Request the implicit-Auto resolution
// path builds for rp — exported so a caller that extends it (Simulate adds
// its contention flag) starts from the same recipe rather than a copy.
func AutoRequest(rp ResolveParams) Request {
	pf := machine.Grid5000()
	if rp.Platform != nil {
		pf = *rp.Platform
	}
	return Request{
		Platform: pf, Shape: rp.Shape, P: rp.Procs,
		Grid: rp.Grid, BlockSize: rp.BlockSize,
		Threads:      rp.Threads,
		Quick:        true,
		AnalyticOnly: rp.Procs > AutoProcs,
	}
}

func resolveGrid(rp ResolveParams) (topo.Grid, error) {
	if rp.Grid != nil {
		g, err := topo.NewGrid(rp.Grid.S, rp.Grid.T)
		if err != nil {
			return topo.Grid{}, err
		}
		if g.Size() != rp.Procs {
			return topo.Grid{}, fmt.Errorf("grid %v does not hold %d procs", g, rp.Procs)
		}
		return g, nil
	}
	return topo.SquarestGrid(rp.Procs)
}

func resolveGroups(g topo.Grid, G int) (topo.Hier, error) {
	if G > 0 {
		return topo.FactorGroups(g, G)
	}
	// Default: the feasible group count closest to √p, the paper's
	// analytic optimum.
	counts := topo.ValidGroupCounts(g)
	if len(counts) == 0 {
		// Unreachable for any valid grid (G=1 always factorises), but a
		// guard beats an index panic if ValidGroupCounts ever changes.
		return topo.Hier{}, fmt.Errorf("no feasible group count for grid %v", g)
	}
	best := counts[0]
	for _, c := range counts {
		if absInt(c*c-g.Size()) < absInt(best*best-g.Size()) {
			best = c
		}
	}
	return topo.FactorGroups(g, best)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
