package tune

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/simnet"
)

// Planner runs the two-stage search and memoises its results. The zero
// value is not usable; use NewPlanner (or the package-level Plan, which
// shares one default planner and hence one cache).
type Planner struct {
	mu    sync.Mutex
	cache map[string]*Plan

	hits, misses, simRuns atomic.Int64
	refineNanos           atomic.Int64
}

// NewPlanner returns an empty planner with its own plan cache.
func NewPlanner() *Planner {
	return &Planner{cache: make(map[string]*Plan)}
}

// defaultPlanner backs the package-level Plan; its cache is shared by every
// caller that does not construct a Planner of its own (hsumma.Multiply,
// hsumma.Simulate and the CLI all route here, so a serving workload pays
// each distinct search once per process).
var defaultPlanner = NewPlanner()

// PlanFor runs (or serves from cache) the search for req on the shared
// default planner.
func PlanFor(req Request) (*Plan, error) { return defaultPlanner.Plan(req) }

// Stats reports the shared default planner's counters.
func Stats() PlannerStats { return defaultPlanner.Stats() }

// PlannerStats are the planner's observability counters.
type PlannerStats struct {
	CacheHits   int64
	CacheMisses int64
	// SimRuns counts stage-2 virtual runs executed (not served from the
	// plan cache) — the expensive quantity the cache exists to avoid.
	SimRuns int64
	// RefineNanos is the cumulative wall time spent inside the stage-2
	// refinement (the virtual runs), across all cold plans. Together with
	// SimRuns it shows what the event engine buys: the same picks at a
	// fraction of the refinement wall time.
	RefineNanos int64
}

// RefineTime is RefineNanos as a duration.
func (s PlannerStats) RefineTime() time.Duration { return time.Duration(s.RefineNanos) }

// Stats returns a snapshot of the planner's counters.
func (p *Planner) Stats() PlannerStats {
	return PlannerStats{
		CacheHits:   p.hits.Load(),
		CacheMisses: p.misses.Load(),
		SimRuns:     p.simRuns.Load(),
		RefineNanos: p.refineNanos.Load(),
	}
}

// fingerprint canonicalises everything that changes a plan's outcome:
// the platform's Hockney parameters and contention class, the problem, and
// every search flag. Two requests with equal fingerprints are guaranteed
// the same plan, so the cache may serve one for the other.
func fingerprint(req Request) string {
	var b strings.Builder
	pf := req.Platform
	fmt.Fprintf(&b, "pf=%s|a=%g|b=%g|g=%g|cont=%d|deg=%d",
		pf.Name, pf.Model.Alpha, pf.Model.Beta, pf.Model.Gamma, pf.Contention, pf.TorusDegree)
	fmt.Fprintf(&b, "|M=%d|N=%d|K=%d|p=%d|obj=%s|k=%d|quick=%t|analytic=%t|contention=%t",
		req.Shape.M, req.Shape.N, req.Shape.K, req.P, req.Objective, req.TopK, req.Quick, req.AnalyticOnly, req.Contention)
	if req.Grid != nil {
		fmt.Fprintf(&b, "|grid=%dx%d", req.Grid.S, req.Grid.T)
	}
	if req.BlockSize > 0 {
		fmt.Fprintf(&b, "|b=%d", req.BlockSize)
	}
	if req.OuterBlockSize > 0 {
		fmt.Fprintf(&b, "|B=%d", req.OuterBlockSize)
	}
	// The hybrid knobs change both the candidate space and the scores, so
	// they join the identity; serial requests keep their historical keys.
	if req.Threads > 0 {
		fmt.Fprintf(&b, "|t=%d", req.Threads)
	}
	if req.CoreBudget > 0 {
		fmt.Fprintf(&b, "|cores=%d", req.CoreBudget)
	}
	fmt.Fprintf(&b, "|algs=%v|bcasts=%v", req.Algorithms, req.Broadcasts)
	return b.String()
}

// Plan searches the configuration space for req and returns the ranked
// plan. Results are memoised: a repeated request (same platform
// fingerprint, problem and flags) returns the cached plan with FromCache
// set, paying no analytic scan and no virtual runs.
func (p *Planner) Plan(req Request) (*Plan, error) {
	req = req.withDefaults()
	if err := req.validate(); err != nil {
		return nil, err
	}
	key := fingerprint(req)
	if !req.NoCache {
		p.mu.Lock()
		cached := p.cache[key]
		p.mu.Unlock()
		if cached != nil {
			p.hits.Add(1)
			out := copyPlan(cached)
			out.FromCache = true
			return out, nil
		}
		p.misses.Add(1)
	}

	plan, err := p.plan(req)
	if err != nil {
		return nil, err
	}
	if !req.NoCache {
		p.mu.Lock()
		p.cache[key] = plan
		p.mu.Unlock()
	}
	return copyPlan(plan), nil
}

// copyPlan returns a caller-owned copy: the Ranked slice is duplicated so
// a caller re-sorting or editing its plan cannot corrupt the cached one.
func copyPlan(pl *Plan) *Plan {
	out := *pl
	out.Ranked = append([]Scored(nil), pl.Ranked...)
	return &out
}

func (p *Planner) plan(req Request) (*Plan, error) {
	cands, err := Candidates(req)
	if err != nil {
		return nil, err
	}

	// Stage 1: closed-form scoring of the whole space.
	sc := &scorer{sh: req.Shape, m: req.Platform.Model}
	scored := make([]Scored, len(cands))
	for i, c := range cands {
		comm, total := sc.score(c)
		scored[i] = Scored{Candidate: c, ModelComm: comm, ModelTotal: total}
	}
	sort.SliceStable(scored, func(i, j int) bool {
		return scored[i].objective(req.Objective) < scored[j].objective(req.Objective)
	})

	top := scored
	if len(top) > req.TopK {
		top = top[:req.TopK]
	}
	top = append([]Scored(nil), top...)
	// Attach the per-phase model decomposition to the refinement set only
	// (not all thousands of scanned candidates): these are the entries a
	// plan surfaces, and the winner's map is what the execution spec — and
	// the serving drift tracker — carries forward.
	for i := range top {
		if spec, err := top[i].Candidate.Spec(req.Shape); err == nil {
			top[i].PredictedSecondsByPhase = sc.predictPhases(spec)
		}
	}

	// Stage 2: parallel virtual runs over the stage-1 winners — the
	// authoritative ranking, including contention if asked.
	simulated := 0
	if !req.AnalyticOnly {
		p.refine(req, top)
		for i := range top {
			if top[i].Refined {
				simulated++
			}
		}
		rank(top, req.Objective)
	}
	if top[0].Err != "" {
		return nil, fmt.Errorf("tune: every refined candidate failed; best: %s: %s", top[0].Candidate, top[0].Err)
	}
	n := 0
	if req.Shape.IsSquare() {
		n = req.Shape.N
	}
	return &Plan{
		Platform:   req.Platform.Name,
		Shape:      req.Shape,
		N:          n,
		P:          req.P,
		CoreBudget: req.CoreBudget,
		Objective:  req.Objective,
		Best:       top[0],
		Ranked:     top,
		Scanned:    len(cands),
		Simulated:  simulated,
	}, nil
}

// refine runs the stage-2 virtual runs for the given candidates in
// parallel, at most GOMAXPROCS at a time (each virtual run is itself
// parallel across its ranks), filling their Sim fields in place. Each run goes through the
// auto executor policy, which picks the event engine for collective-only
// candidates — the bulk of any top-K set. Engines are bit-identical, so
// the policy could only change planning wall time, never a pick; the
// cumulative wall time is tracked in RefineNanos.
func (p *Planner) refine(req Request, top []Scored) {
	start := time.Now()
	defer func() { p.refineNanos.Add(int64(time.Since(start))) }()
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range top {
		wg.Add(1)
		go func(s *Scored) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			spec, err := s.Candidate.Spec(req.Shape)
			if err != nil {
				s.Err = err.Error()
				return
			}
			vcfg := simnet.VConfig{Model: req.Platform.Model}
			if req.Contention {
				vcfg.Contention = simnet.ContentionFor(req.Platform, s.Candidate.Grid.Size(), true)
			}
			p.simRuns.Add(1)
			res, _, err := engine.Simulate(spec, vcfg, engine.ExecutorAuto)
			if err != nil {
				s.Err = err.Error()
				return
			}
			s.SimComm, s.SimTotal, s.Refined = res.Comm, res.Total, true
			s.Engine = string(res.Engine)
		}(&top[i])
	}
	wg.Wait()
}
