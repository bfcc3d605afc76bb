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
	"repro/internal/sched"
	"repro/internal/simnet"
)

// Planner runs the search and memoises its results. The zero
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
	// SimRuns counts the event-engine replays executed (not served from
	// the plan cache); it stays 0 on plans whose candidates the closed
	// form prices exactly (see replayed).
	SimRuns int64
	// RefineNanos is the cumulative wall time spent replaying candidates,
	// across all cold plans.
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
	fmt.Fprintf(&b, "|M=%d|N=%d|K=%d|p=%d|obj=%s|contention=%t",
		req.Shape.M, req.Shape.N, req.Shape.K, req.P, req.Objective, req.Contention)
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
// set, paying no scan and no replays.
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

	// Closed-form scoring of the whole space.
	sc := &scorer{sh: req.Shape, m: req.Platform.Model}
	scored := make([]Scored, len(cands))
	for i, c := range cands {
		comm, total := sc.score(c)
		scored[i] = Scored{Candidate: c, ModelComm: comm, ModelTotal: total}
	}
	sort.SliceStable(scored, func(i, j int) bool {
		return scored[i].objective(req.Objective) < scored[j].objective(req.Objective)
	})

	top := append([]Scored(nil), scored[:min(len(scored), rankedLen)]...)
	// Attach the per-phase model decomposition to the ranked entries only
	// (not all thousands of scanned candidates): these are the entries a
	// plan surfaces, and the winner's map is what the execution spec
	// carries forward.
	var replay []*Scored
	for i := range top {
		if spec, err := top[i].Candidate.Spec(req.Shape); err == nil {
			top[i].PredictedSecondsByPhase = sc.predictPhases(spec)
		}
		if replayed(req, top[i].Candidate) {
			replay = append(replay, &top[i])
		}
	}
	if len(replay) > 0 {
		p.replay(req, replay)
		rank(top, req.Objective)
	}
	if top[0].Err != "" {
		return nil, fmt.Errorf("tune: every replayed candidate failed; best: %s: %s", top[0].Candidate, top[0].Err)
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
		Simulated:  len(replay),
	}, nil
}

// rankedLen is the number of closed-form leaders a plan ranks and
// returns; replays re-order only these.
const rankedLen = 8

// replayed is the one rule for where the closed form is not final: a
// candidate that runs a binomial broadcast on a grid with a side that is
// not a power of two, or any candidate of a request that asks for
// contention, which only the engine prices; and never above AutoProcs
// ranks, where one virtual run costs seconds. Everything else the closed
// form prices as the event engine does (TestClosedFormMatchesEventEngine):
// Van de Geijn on every grid, its scatter at the ⌈log₂q⌉ rounds its
// schedule takes, and Cannon, which only shifts. The binomial tree over q
// members costs log₂q rounds only at a power of two. Elsewhere a step's
// tree may start before the previous step's deepest leaf is done, so the
// engine lands on both sides of log₂q and at or below ⌈log₂q⌉, short of
// it by a fixed number of rounds per run (at α only, SUMMA on 1×5 is 4
// rounds short, HSUMMA G=2 on 1×6 5 and G=4 on 6×6 10, whatever the step
// count), and no per-broadcast price is exact there.
func replayed(req Request, c Candidate) bool {
	if c.Grid.Size() > AutoProcs {
		return false
	}
	return req.Contention || c.Broadcast == sched.Binomial && (!powerOfTwo(c.Grid.S) || !powerOfTwo(c.Grid.T))
}

func powerOfTwo(v int) bool { return v > 0 && v&(v-1) == 0 }

// replay runs the given candidates on the event engine in parallel, at
// most GOMAXPROCS at a time, filling their Sim fields in place. The
// cumulative wall time is tracked in RefineNanos.
func (p *Planner) replay(req Request, todo []*Scored) {
	start := time.Now()
	defer func() { p.refineNanos.Add(int64(time.Since(start))) }()
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, s := range todo {
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
			res, _, err := engine.Simulate(spec, vcfg, engine.ExecutorEvent)
			if err != nil {
				s.Err = err.Error()
				return
			}
			s.SimComm, s.SimTotal, s.Refined = res.Comm, res.Total, true
		}(s)
	}
	wg.Wait()
}
