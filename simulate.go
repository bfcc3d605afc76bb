package hsumma

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Machine is the Hockney platform model (α latency, β reciprocal bandwidth
// per element — the paper's convention — and γ seconds per flop).
type Machine = machine.Model

// Platform bundles a machine model with its contention description.
type Platform = machine.Platform

// Platform presets from the paper's evaluation (Section V).
var (
	PlatformGrid5000           = machine.Grid5000
	PlatformBlueGeneP          = machine.BlueGeneP
	PlatformExascale           = machine.Exascale
	PlatformGrid5000Calibrated = machine.Grid5000Calibrated
	PlatformBGPCalibrated      = machine.BlueGenePCalibrated
)

// SimConfig describes one simulated run at arbitrary scale.
type SimConfig struct {
	// Shape is the GEMM problem C (M×N) += A (M×K)·B (K×N); the zero
	// value defers to N, the square shorthand.
	Shape Shape
	// N is the square matrix dimension (ignored when Shape is set).
	N         int
	Procs     int
	Grid      *[2]int // optional explicit grid
	Algorithm Algorithm
	Groups    int // HSUMMA group count (0 = closest feasible to √p)
	// BlockSize is the paper's b; 0 means "auto" under the same shared
	// default rule Multiply uses (tune.DefaultBlockSize).
	BlockSize int
	// OuterBlockSize is HSUMMA's B (0 = b).
	OuterBlockSize int
	// Levels configures AlgMultilevel (outermost first).
	Levels    []Level
	Broadcast sched.Algorithm
	// Threads is the per-rank thread budget for the local multiplies (the
	// hybrid MPI+OpenMP knob); the virtual engines charge compute at
	// flops / Speedup(Threads). 0 and 1 both mean serial ranks and leave
	// virtual times bitwise unchanged.
	Threads int
	Machine Machine
	// Contention enables the platform's link-sharing model (needs
	// Platform set) — an ablation beyond the paper's congestion-free
	// assumption.
	Contention bool
	Platform   *Platform
	// Engine selects the virtual execution engine: EngineGoroutine,
	// EngineEvent, or EngineAuto (the default, also the zero value).
	// The engines produce bit-identical results; auto picks the event
	// engine for the pivot-loop algorithms (SUMMA, HSUMMA, multilevel),
	// where it is several times faster at full scale, and goroutines for
	// Cannon and Fox.
	Engine Engine
	// Trace records per-rank phase spans on the virtual timeline; the
	// recorder is returned in SimResult.Trace. Tracing only observes the
	// clocks: simulated times are bit-identical either way.
	Trace bool
}

// SimResult reports simulated execution and communication times in
// seconds, as the paper's figures do, plus the virtual traffic counters —
// which are identical, per rank, to what a live run of the same
// configuration measures (the engine's parity invariant).
type SimResult struct {
	Total   float64
	Comm    float64
	Compute float64
	// Messages and Bytes are totals across all ranks, counted exactly as
	// the live runtime counts them.
	Messages int64
	Bytes    int64
	// Groups is the group count actually used (relevant when it was
	// auto-selected).
	Groups int
	// Algorithm and BlockSize echo the configuration actually executed —
	// what the planner picked when the request said AlgAuto or b=0.
	Algorithm Algorithm
	BlockSize int
	// Engine reports the virtual execution engine that ran the
	// simulation (what EngineAuto resolved to).
	Engine Engine
	// Shape is the execution shape actually simulated — the requested
	// shape rounded up to the algorithm's divisibility constraints,
	// exactly what a live run of this configuration executes.
	Shape Shape
	// Trace holds the per-rank span timeline when SimConfig.Trace was
	// set (virtual timestamps); nil otherwise.
	Trace *Trace
}

// Config returns the live configuration of the same run — the algorithm,
// grid and execution knobs as Multiply takes them — so one description can
// drive both execution paths. It is also the one place SimConfig's run
// fields are read out: Simulate resolves its spec through it. The virtual-
// world fields (Shape/N, Machine, Contention, Engine, Trace) have
// no live counterpart.
func (cfg SimConfig) Config() Config {
	return Config{
		Procs:          cfg.Procs,
		Grid:           cfg.Grid,
		Algorithm:      cfg.Algorithm,
		Groups:         cfg.Groups,
		BlockSize:      cfg.BlockSize,
		OuterBlockSize: cfg.OuterBlockSize,
		Levels:         cfg.Levels,
		Broadcast:      cfg.Broadcast,
		Threads:        cfg.Threads,
		Platform:       cfg.Platform,
	}
}

// Simulate executes the configured algorithm — the same implementation,
// resolved through the same spec, that Multiply runs — on the simnet
// virtual communicator and returns its Hockney-model times. All six
// algorithms are supported; a simulated run moves no matrix elements, so
// it scales to the paper's 16384-rank BlueGene/P and beyond. Rectangular
// problems set Shape (SimulateShape is the explicit-shape convenience);
// N remains the square shorthand.
func Simulate(cfg SimConfig) (SimResult, error) {
	// A Platform alone is a complete machine description: default the
	// Hockney model from it rather than silently simulating on a
	// zero-cost machine (all-zero timings).
	if cfg.Machine == (Machine{}) && cfg.Platform != nil {
		cfg.Machine = cfg.Platform.Model
	}
	shape := cfg.Shape
	if shape.IsZero() {
		shape = SquareShape(cfg.N)
	}
	live := cfg.Config()
	if live.Algorithm == "" {
		// Simulate's default is SUMMA — the baseline every figure sweeps
		// against — where Multiply defaults to the paper's HSUMMA.
		live.Algorithm = AlgSUMMA
	}
	if live.Procs == 0 && live.Grid != nil {
		live.Procs = live.Grid[0] * live.Grid[1]
	}
	if live.Platform == nil {
		// AlgAuto plans for the simulated machine, not the live default.
		live.Platform = &Platform{Name: "custom", Model: cfg.Machine}
	}
	rp, err := live.resolveParams(shape)
	if err != nil {
		return SimResult{}, err
	}
	if rp.Algorithm == AlgAuto {
		// The live path's plan request, under the contention flag of the
		// simulation being requested; explicit Grid/BlockSize
		// are honoured. Everything else (BlockSize 0 means auto, the √p
		// group default, padding) is ResolveSpec's, shared with Multiply, so
		// the two execution paths of one configuration stay comparable.
		req := tune.AutoRequest(rp)
		req.Contention = cfg.Contention
		if rp, err = tune.ResolveAuto(rp, req); err != nil {
			return SimResult{}, err
		}
	}
	spec, grid, err := specFor(rp)
	if err != nil {
		return SimResult{}, err
	}
	vcfg := simnet.VConfig{Model: cfg.Machine}
	if cfg.Contention {
		if cfg.Platform == nil {
			return SimResult{}, fmt.Errorf("hsumma: Contention requires Platform")
		}
		vcfg.Contention = simnet.ContentionFor(*cfg.Platform, grid.Size(), true)
	}
	if cfg.Trace {
		vcfg.Trace = trace.New(grid.Size())
	}
	res, stats, err := engine.Simulate(spec, vcfg, cfg.Engine)
	if err != nil {
		return SimResult{}, err
	}
	usedG := rp.Groups
	if spec.Algorithm == AlgHSUMMA {
		usedG = spec.Opts.Groups.Groups()
	}
	out := SimResult{
		Total: res.Total, Comm: res.Comm, Compute: res.Compute,
		Groups: usedG, Algorithm: spec.Algorithm, Engine: res.Engine,
		Shape: res.Shape, Trace: vcfg.Trace,
	}
	// Cannon and Fox work on whole tiles; echoing the defaulted b would
	// suggest it mattered.
	if spec.Algorithm != AlgCannon && spec.Algorithm != AlgFox {
		out.BlockSize = spec.Opts.BlockSize
	}
	for _, s := range stats {
		out.Messages += s.SentMessages
		out.Bytes += s.SentBytes
	}
	return out, nil
}

// SimulateShape is Simulate with an explicit rectangular problem shape:
// it overrides cfg.Shape (and the N shorthand) and runs the same virtual
// execution.
func SimulateShape(shape Shape, cfg SimConfig) (SimResult, error) {
	cfg.Shape = shape
	return Simulate(cfg)
}

// ModelParams re-exports the closed-form model inputs.
type ModelParams = model.Params

// ModelCost re-exports the closed-form cost decomposition.
type ModelCost = model.Cost

// Broadcast models for ModelParams.Bcast (equation 1 of the paper).
type (
	// BinomialModel is the Table I broadcast model; note that under it
	// HSUMMA's cost is independent of G (log₂G + log₂(p/G) = log₂p).
	BinomialModel = model.BinomialTree
	// VanDeGeijnModel is the Table II broadcast model, under which the
	// interior optimum at G = √p exists.
	VanDeGeijnModel = model.VanDeGeijn
)

// Predict evaluates the paper's closed-form HSUMMA cost for G groups
// (G = 1 reproduces SUMMA). See internal/model for the Table I/II formulas.
func Predict(par ModelParams, G float64) ModelCost { return model.HSUMMA(par, G) }

// PredictOptimalG returns the communication-minimising group count and its
// predicted cost.
func PredictOptimalG(par ModelParams) (int, ModelCost) { return model.OptimalG(par, nil) }

// MinimumAtSqrtP reports the paper's interior-minimum condition
// α/β > 2nb/p (equation 10).
func MinimumAtSqrtP(par ModelParams) bool { return model.MinimumAtSqrtP(par) }

// ExperimentOptions re-exports the experiment harness options.
type ExperimentOptions = exp.Options

// RunExperiment runs a registered reproduction experiment (table1, table2,
// fig5…fig10, valgrid, valbgp, headline) and returns its formatted report.
func RunExperiment(id string, opts ExperimentOptions) (string, error) {
	rs, err := exp.Run([]string{id}, opts)
	if err != nil {
		return "", err
	}
	return exp.Format(rs[0]), nil
}

// ExperimentIDs lists the registered experiments in order.
func ExperimentIDs() []string { return exp.IDs() }
