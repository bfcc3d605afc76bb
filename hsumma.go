// Package hsumma is a Go reproduction of "Hierarchical Parallel Matrix
// Multiplication on Large-Scale Distributed Memory Platforms" (Quintin,
// Hasanov, Lastovetsky — ICPP 2013, arXiv:1306.4161).
//
// It provides, behind one façade:
//
//   - Multiply: distributed dense matrix multiplication (SUMMA, the paper's
//     hierarchical HSUMMA, its multilevel generalisation, and the Cannon
//     and Fox baselines) executed on an in-process MPI-like runtime whose
//     ranks are goroutines;
//   - Simulate: the *same* algorithm implementations executed on a
//     virtual communicator (the event engine, or one goroutine per rank)
//     that advances Hockney virtual time instead of wall-clock,
//     reproducing the paper's large-scale timing figures at rank counts no
//     single machine could host;
//   - Predict: the paper's closed-form cost model (Tables I–II), optimal
//     group count analysis and the exascale projection;
//   - RunExperiment: the registry of reproduction experiments, one per
//     table/figure of the paper's evaluation.
//
// Every algorithm is written once against the transport-agnostic
// comm.Comm interface; Multiply and Simulate differ only in the transport
// they hand the algorithm. See README.md for a walkthrough and
// paper-vs-measured results.
package hsumma

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/tune"
)

// Matrix is a dense row-major float64 matrix (see NewMatrix, Random).
type Matrix = matrix.Dense

// Shape is the global GEMM problem shape C (M×N) += A (M×K) · B (K×N).
// Every layer of the stack carries it; the paper's square n×n benchmark
// is the SquareShape(n) special case, and every config keeps accepting a
// plain n as the square shorthand.
type Shape = matrix.Shape

// SquareShape returns the paper's square n×n×n problem shape.
func SquareShape(n int) Shape { return matrix.Square(n) }

// ErrSquareOnly is reported (via errors.Is) by Multiply, Simulate and
// Plan when a square-only baseline (Cannon, Fox) is asked to multiply a
// rectangular problem.
var ErrSquareOnly = matrix.ErrSquareOnly

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix { return matrix.New(r, c) }

// RandomMatrix returns a deterministic pseudo-random r×c matrix with
// entries in [-1,1).
func RandomMatrix(r, c int, seed uint64) *Matrix { return matrix.Random(r, c, seed) }

// MaxAbsDiff returns the max-norm distance between two equal-shaped
// matrices — the verification metric used throughout.
func MaxAbsDiff(a, b *Matrix) float64 { return matrix.MaxAbsDiff(a, b) }

// Level describes one grouping level for AlgMultilevel (re-exported from
// the core package): the grid is partitioned into I×J groups exchanging
// panels of width BlockSize.
type Level = core.Level

// Algorithm selects a distributed multiplication algorithm (re-exported
// from the engine dispatch shared by the live and simulated paths).
type Algorithm = engine.Algorithm

// Available distributed algorithms.
const (
	AlgSUMMA      = engine.SUMMA
	AlgHSUMMA     = engine.HSUMMA
	AlgMultilevel = engine.Multilevel
	AlgCannon     = engine.Cannon
	AlgFox        = engine.Fox
	// AlgAuto delegates the choice — algorithm, grid shape, group count,
	// block sizes and broadcast — to the autotuning planner (see Plan).
	// The pins Grid, BlockSize, OuterBlockSize, Broadcast and Threads are
	// honoured as constraints when set; Groups and Levels are always the
	// planner's, and everything unset is searched. Implicit resolution
	// searches the same space as Plan (above 2048 ranks it ranks in closed
	// form only).
	AlgAuto = engine.Auto
)

// Engine selects a virtual execution engine for Simulate (re-exported
// from the engine dispatch). Both engines produce bit-identical virtual
// times, communication-time breakdowns and traffic counters — the engine
// parity tests assert it — so the choice only affects host wall time.
type Engine = engine.Executor

// Available virtual execution engines.
const (
	// EngineGoroutine is the SPMD goroutine runtime: one goroutine per
	// rank. Handles every algorithm and model knob.
	EngineGoroutine = engine.ExecutorGoroutine
	// EngineEvent is the discrete-event engine (internal/evsim): one
	// recorded program per stream class, replayed by every member in a
	// single-threaded event loop — about 8× faster than goroutines on the
	// full-scale p=16384 BG/P run.
	EngineEvent = engine.ExecutorEvent
	// EngineAuto (the default) picks the event engine for SUMMA, HSUMMA,
	// and multilevel runs, goroutines for Cannon and Fox.
	EngineAuto = engine.ExecutorAuto
)

// EngineByName maps a CLI-friendly name to an execution engine; the empty
// string means auto. Unknown names are an error listing the valid values.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "", string(engine.ExecutorAuto):
		return EngineAuto, nil
	case string(engine.ExecutorGoroutine):
		return EngineGoroutine, nil
	case string(engine.ExecutorEvent):
		return EngineEvent, nil
	default:
		return "", fmt.Errorf("hsumma: unknown engine %q (valid values: %s)", name, engine.ExecutorNames())
	}
}

// Broadcast names re-exported from the schedule layer.
const (
	BcastBinomial   = sched.Binomial
	BcastVanDeGeijn = sched.VanDeGeijn
)

// BroadcastByName maps a CLI-friendly name to a broadcast algorithm. The
// empty string defaults to binomial; an unknown name is an error (it used
// to silently fall back to binomial, which hid typos in sweep scripts).
// The alias table itself lives in sched.ByName, shared with the serving
// daemon's request parser.
func BroadcastByName(name string) (sched.Algorithm, error) {
	alg, err := sched.ByName(name)
	if err != nil {
		return "", fmt.Errorf("hsumma: %w", err)
	}
	return alg, nil
}

// Config describes a distributed multiplication run on the in-process
// runtime.
type Config struct {
	// Procs is the number of ranks; the process grid is the squarest
	// factorisation unless Grid is set.
	Procs int
	// Grid optionally pins the process grid (S×T with S·T = Procs).
	Grid *[2]int
	// Algorithm defaults to AlgHSUMMA. Under AlgAuto the planner honours
	// Grid, BlockSize, OuterBlockSize, Broadcast and Threads when set and
	// chooses Groups and Levels itself.
	Algorithm Algorithm
	// Groups is HSUMMA's G (number of processor groups); 0 lets the
	// library pick the feasible count closest to √p.
	Groups int
	// BlockSize is the paper's b; it must divide the per-rank tile.
	BlockSize int
	// OuterBlockSize is the paper's B (HSUMMA only); 0 means B = b.
	OuterBlockSize int
	// Levels configures AlgMultilevel (outermost first).
	Levels []core.Level
	// Broadcast selects the collective algorithm: BcastBinomial (the
	// default) or BcastVanDeGeijn.
	Broadcast sched.Algorithm
	// Threads is the per-rank thread budget for local multiplies — the
	// hybrid MPI+OpenMP analog: ranks with Threads > 1 run their panel
	// multiplies goroutine-parallel over disjoint C row bands. 0 and 1
	// both mean serial ranks (the historical behaviour); results are
	// bit-deterministic for any fixed value.
	Threads int
	// Platform optionally names the machine the planner tunes for when
	// Algorithm is AlgAuto (default: the Grid'5000 preset, the closest
	// analogue of a commodity host). Ignored otherwise.
	Platform *Platform
}

// Stats reports aggregate traffic and timing of a run — the one declaration
// of the run statistics every live surface shares (Session.Multiply returns
// the same struct, and the daemon's per-request stats embed it).
type Stats = serve.RunStats

// resolveSpec turns a user Config plus a problem shape into the engine's
// transport-independent Spec (shared by Multiply, Simulate and the serving
// layer — the resolution itself lives in tune.ResolveSpec so every surface
// defaults identically). The returned spec carries the *execution* shape —
// the requested shape rounded up to the algorithm's divisibility
// constraints (zero-padding preserves the product; Multiply crops the
// gathered result) — and rejects rectangular shapes on the square-only
// baselines with ErrSquareOnly, so all public surfaces report identical
// shape errors.
func resolveSpec(shape Shape, cfg Config) (engine.Spec, topo.Grid, error) {
	rp, err := cfg.resolveParams(shape)
	if err != nil {
		return engine.Spec{}, topo.Grid{}, err
	}
	return specFor(rp)
}

// specFor resolves pinned parameters through tune.ResolveSpec under the
// façade's error namespace.
func specFor(rp tune.ResolveParams) (engine.Spec, topo.Grid, error) {
	spec, err := tune.ResolveSpec(rp)
	if err != nil {
		// tune's resolution errors carry no namespace; the façade owns the
		// "hsumma:" prefix (sentinels like ErrSquareOnly stay reachable
		// through the wrap).
		return engine.Spec{}, topo.Grid{}, fmt.Errorf("hsumma: %w", err)
	}
	return spec, spec.Opts.Grid, nil
}

// resolveParams adapts a public Config to the shared resolution input —
// the one place Config's fields are read out.
func (cfg Config) resolveParams(shape Shape) (tune.ResolveParams, error) {
	rp := tune.ResolveParams{
		Shape:          shape,
		Procs:          cfg.Procs,
		Algorithm:      cfg.Algorithm,
		Groups:         cfg.Groups,
		BlockSize:      cfg.BlockSize,
		OuterBlockSize: cfg.OuterBlockSize,
		Levels:         cfg.Levels,
		Broadcast:      cfg.Broadcast,
		Threads:        cfg.Threads,
		Platform:       cfg.Platform,
	}
	if cfg.Grid != nil {
		g, err := topo.NewGrid(cfg.Grid[0], cfg.Grid[1])
		if err != nil {
			return tune.ResolveParams{}, err
		}
		rp.Grid = &g
	}
	return rp, nil
}

// Multiply computes A·B with the configured distributed algorithm: A is
// M×K, B is K×N, and the result is M×N (the paper's square benchmark is
// simply the M = N = K case). It block-distributes each operand over the
// process grid by its own shape through the dist layer, runs one
// goroutine per rank through the message-passing runtime (each rank
// executing the shared algorithm code against the live transport, reading
// views of a and b in place — neither is written — and accumulating into
// views of the result). Shapes that do not divide the grid or block sizes
// are zero-padded to the execution shape and the result is cropped —
// any positive M, N, K runs.
func Multiply(a, b *Matrix, cfg Config) (*Matrix, Stats, error) {
	out, st, _, err := multiply(a, b, cfg, false)
	return out, st, err
}

// Trace is a per-run span recorder (re-exported from internal/trace): one
// timeline per rank plus a host timeline, exportable as Chrome/Perfetto
// trace-event JSON via WriteJSON.
type Trace = trace.Recorder

// MultiplyTraced is Multiply with phase tracing enabled: every broadcast
// round, shift, point-to-point call and local multiply on every rank —
// plus the host-side scatter and gather — is recorded as a span on the
// returned Trace. The recorder only observes; the result is bit-identical
// to an untraced Multiply of the same inputs.
func MultiplyTraced(a, b *Matrix, cfg Config) (*Matrix, Stats, *Trace, error) {
	return multiply(a, b, cfg, true)
}

// CriticalPathReport is the per-run critical-path attribution (re-exported
// from internal/trace): which rank and phase gate wall time, each rank's
// busy/wait split, and the top cross-rank blocking edges.
type CriticalPathReport = trace.CriticalPathReport

// CriticalPath analyses a recorded timeline — live (MultiplyTraced) or
// virtual (SimResult.Trace) — and reports what gates the run's wall time.
// Returns nil for a nil or empty recorder.
func CriticalPath(rec *Trace) *CriticalPathReport {
	if rec == nil {
		return nil
	}
	return trace.CriticalPath(rec.Spans())
}

func multiply(a, b *Matrix, cfg Config, traced bool) (*Matrix, Stats, *trace.Recorder, error) {
	start := time.Now()
	if a.Cols != b.Rows {
		return nil, Stats{}, nil, fmt.Errorf("hsumma: inner dimensions differ: A is %dx%d, B is %dx%d (need A columns == B rows)",
			a.Rows, a.Cols, b.Rows, b.Cols)
	}
	spec, grid, err := resolveSpec(Shape{M: a.Rows, N: b.Cols, K: a.Cols}, cfg)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	var rec *trace.Recorder
	if traced {
		rec = trace.New(grid.Size())
	}
	// Resolution is what a session (NewSession) pays once instead of per
	// call.
	resolveSec := time.Since(start).Seconds()
	outs, st, _, err := serve.Execute(spec, a, []*Matrix{b}, nil, rec, nil)
	st.SetupSeconds += resolveSec
	if err != nil {
		return nil, st, nil, err
	}
	st.WallSeconds = time.Since(start).Seconds()
	return outs[0], st, rec, nil
}

// Reference computes A·B sequentially — the oracle for verification.
func Reference(a, b *Matrix) *Matrix {
	c := matrix.New(a.Rows, b.Cols)
	core.Reference(c, a, b)
	return c
}
