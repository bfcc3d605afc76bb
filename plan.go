package hsumma

import (
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/tune"
)

// This file is the public face of the autotuning planner (internal/tune):
// Plan answers "how should I multiply n×n over p ranks on this platform?"
// with a ranked set of configurations, and both execution paths resolve
// Config{Algorithm: AlgAuto} / SimConfig{Algorithm: AlgAuto} through it.
//
// The search is two-stage: every feasible candidate (algorithm × grid
// shape × group count × block sizes × broadcast) is scored with the
// paper's closed-form cost models, then the top K are re-ranked by
// parallel virtual runs on the simnet communicator. Plans are memoised per
// (platform, problem, flags), so serving-style workloads pay the search
// once per distinct shape.

// PlanObjective selects the quantity the planner minimises.
type PlanObjective = tune.Objective

// Planner objectives.
const (
	// PlanMinTotal minimises execution time (communication + computation).
	PlanMinTotal = tune.MinTotal
	// PlanMinComm minimises communication time only.
	PlanMinComm = tune.MinComm
)

// PlanCandidate is one fully specified configuration (re-exported from the
// planner).
type PlanCandidate = tune.Candidate

// PlanChoice is a candidate with its analytic and simulated costs.
type PlanChoice = tune.Scored

// PlanResult is a ranked plan (Best, Ranked, search statistics).
type PlanResult = tune.Plan

// PlanStats are the shared planner's cache/simulation counters.
type PlanStats = tune.PlannerStats

// PlanConfig describes one planning problem.
type PlanConfig struct {
	// Platform is the machine to tune for (preset or calibrated).
	Platform Platform
	// Shape is the GEMM problem C (M×N) += A (M×K)·B (K×N); the zero
	// value defers to N, the square shorthand.
	Shape Shape
	// N is the square matrix dimension (ignored when Shape is set), Procs
	// the rank count.
	N, Procs int
	// Grid optionally pins the process grid.
	Grid *[2]int
	// BlockSize optionally pins the paper's b.
	BlockSize int
	// Threads optionally pins the per-rank thread budget (0 = searched
	// under CoreBudget, 1 otherwise).
	Threads int
	// CoreBudget, when positive, makes the planner trade ranks against
	// intra-rank threads: it enumerates (ranks = CoreBudget/t, t) splits
	// for power-of-two t instead of planning for exactly Procs ranks.
	CoreBudget int
	// Algorithms restricts the searched algorithms (nil = SUMMA, HSUMMA,
	// Cannon, Fox, Strassen).
	Algorithms []Algorithm
	// Broadcasts restricts the broadcast variants (nil = binomial and
	// Van de Geijn).
	Broadcasts []sched.Algorithm
	// Objective defaults to PlanMinTotal.
	Objective PlanObjective
	// TopK is the stage-2 refinement width (default 8).
	TopK int
	// Quick trims the candidate space for sub-second planning.
	Quick bool
	// AnalyticOnly skips the stage-2 virtual runs.
	AnalyticOnly bool
	// Contention enables the platform's link-sharing model in stage 2.
	Contention bool
	// Overlap plans for communication/computation overlap.
	Overlap bool
	// NoCache bypasses the plan cache.
	NoCache bool
}

func (cfg PlanConfig) request() (tune.Request, error) {
	var gp *topo.Grid
	if cfg.Grid != nil {
		g, err := topo.NewGrid(cfg.Grid[0], cfg.Grid[1])
		if err != nil {
			return tune.Request{}, err
		}
		gp = &g
	}
	return tune.Request{
		Platform:     cfg.Platform,
		Shape:        cfg.Shape,
		N:            cfg.N,
		P:            cfg.Procs,
		Grid:         gp,
		BlockSize:    cfg.BlockSize,
		Threads:      cfg.Threads,
		CoreBudget:   cfg.CoreBudget,
		Algorithms:   cfg.Algorithms,
		Broadcasts:   cfg.Broadcasts,
		Objective:    cfg.Objective,
		TopK:         cfg.TopK,
		Quick:        cfg.Quick,
		AnalyticOnly: cfg.AnalyticOnly,
		Contention:   cfg.Contention,
		Overlap:      cfg.Overlap,
		NoCache:      cfg.NoCache,
	}, nil
}

// Plan searches the configuration space for the given problem and returns
// the ranked plan. Repeated calls with the same platform, problem and
// flags are served from the shared plan cache (FromCache is set on the
// result); PlannerCounters exposes the hit/miss/simulation counters.
func Plan(cfg PlanConfig) (*PlanResult, error) {
	req, err := cfg.request()
	if err != nil {
		return nil, err
	}
	return tune.PlanFor(req)
}

// PlannerCounters reports the shared planner's observability counters:
// cache hits and misses, and the number of stage-2 virtual runs executed.
func PlannerCounters() PlanStats { return tune.Stats() }
