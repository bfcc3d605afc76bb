package tune

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// The scorer's rectangular-grid formulas must reduce to the paper's
// closed forms (internal/model, Tables I–II) on a square grid.
func TestScorerMatchesClosedFormOnSquareGrid(t *testing.T) {
	m := machine.BlueGeneP().Model
	n, p, b := 4096, 64, 64
	sc := newScorer(matrix.Square(n), m, false)
	grid := topo.Grid{S: 8, T: 8}

	for _, bc := range []sched.Algorithm{sched.Binomial, sched.VanDeGeijn} {
		var bcm model.Broadcast = model.BinomialTree{}
		if bc == sched.VanDeGeijn {
			bcm = model.VanDeGeijn{}
		}
		par := model.Params{N: n, P: p, B: b, Machine: m, Bcast: bcm}

		comm, _ := sc.score(Candidate{Algorithm: engine.SUMMA, Grid: grid, Knobs: core.Knobs{BlockSize: b, Broadcast: bc}})
		if want := model.SUMMA(par).Comm(); math.Abs(comm-want) > 1e-12*want {
			t.Fatalf("%s SUMMA: scorer %g, closed form %g", bc, comm, want)
		}
		for _, G := range []int{1, 4, 16, 64} {
			h, err := topo.FactorGroups(grid, G)
			if err != nil {
				t.Fatal(err)
			}
			comm, _ := sc.score(Candidate{
				Algorithm: engine.HSUMMA, Grid: grid,
				Groups: G, GroupShape: [2]int{h.I, h.J},
				Knobs: core.Knobs{BlockSize: b, OuterBlockSize: b, Broadcast: bc},
			})
			if want := model.HSUMMA(par, float64(G)).Comm(); math.Abs(comm-want) > 1e-12*want {
				t.Fatalf("%s HSUMMA G=%d: scorer %g, closed form %g", bc, G, comm, want)
			}
		}
	}
}

// simulateCandidate runs the authoritative stage-2 measurement for one
// candidate — the exhaustive-sweep oracle the planner is held against.
func simulateCandidate(t *testing.T, req Request, c Candidate) (comm, total float64) {
	t.Helper()
	spec, err := c.Spec(matrix.Square(req.N))
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	vcfg := simnet.VConfig{Model: req.Platform.Model, Overlap: req.Overlap}
	if req.Contention {
		vcfg.Contention = simnet.ContentionFor(req.Platform, c.Grid.Size(), true)
	}
	res, _, err := engine.Simulate(spec, vcfg, engine.ExecutorAuto)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	return res.Comm, res.Total
}

// Acceptance: on each paper platform preset the planner's choice must
// simulate within 5% of the best configuration an exhaustive simnet sweep
// of the same candidate space finds.
func TestPlannerWithinFivePercentOfExhaustive(t *testing.T) {
	for _, pf := range []machine.Platform{
		machine.Grid5000(), machine.BlueGeneP(), machine.Exascale(),
		machine.Grid5000Calibrated(), machine.BlueGenePCalibrated(),
	} {
		pf := pf
		t.Run(pf.Name, func(t *testing.T) {
			req := Request{Platform: pf, N: 512, P: 16, Quick: true, NoCache: true}
			pl, err := NewPlanner().Plan(req)
			if err != nil {
				t.Fatal(err)
			}
			if !pl.Best.Refined {
				t.Fatalf("best candidate not simulation-refined: %+v", pl.Best)
			}

			cands, err := Candidates(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(cands) != pl.Scanned {
				t.Fatalf("planner scanned %d candidates, Candidates lists %d", pl.Scanned, len(cands))
			}
			bestExhaustive := math.Inf(1)
			var bestCand Candidate
			for _, c := range cands {
				_, total := simulateCandidate(t, req, c)
				if total < bestExhaustive {
					bestExhaustive, bestCand = total, c
				}
			}
			if pl.Best.SimTotal > bestExhaustive*1.05 {
				t.Fatalf("planner chose %s (%.6g s); exhaustive best is %s (%.6g s) — %.1f%% worse",
					pl.Best.Candidate, pl.Best.SimTotal, bestCand, bestExhaustive,
					100*(pl.Best.SimTotal/bestExhaustive-1))
			}
		})
	}
}

// Acceptance: for HSUMMA on the (calibrated, latency-dominated) BG/P with
// the scatter-allgather broadcast the paper measured, the planner's G at
// the paper's full scale must reproduce the optimum trend — an interior
// value near √p, not an endpoint.
func TestPlannerBGPGroupTrend(t *testing.T) {
	pf := machine.BlueGenePCalibrated()
	pl, err := NewPlanner().Plan(Request{
		Platform: pf, N: 65536, P: 16384, BlockSize: 256, OuterBlockSize: 256,
		Algorithms:   []engine.Algorithm{engine.HSUMMA},
		Broadcasts:   []sched.Algorithm{sched.VanDeGeijn},
		Objective:    MinComm,
		AnalyticOnly: true, // one virtual run at p=16384 costs ~14 s; the analytic ranking is exact here
		NoCache:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	G := pl.Best.Groups
	sqrtP := 128
	if G <= 1 || G >= 16384 {
		t.Fatalf("planner chose endpoint G=%d; paper's optimum is interior (near √p=%d)", G, sqrtP)
	}
	if G < sqrtP/4 || G > sqrtP*4 {
		t.Fatalf("planner chose G=%d, not near √p=%d (paper's eq. 9 optimum)", G, sqrtP)
	}
}

// A served-from-cache plan must cost no further virtual runs — the
// observable quantity that makes a cache hit cheaper than a cold plan
// (BenchmarkPlanColdVsCached in the root package measures the wall-time
// side).
func TestPlanCacheHit(t *testing.T) {
	p := NewPlanner()
	req := Request{Platform: machine.Grid5000(), N: 512, P: 16, Quick: true}
	cold, err := p.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromCache {
		t.Fatal("first plan reported FromCache")
	}
	st := p.Stats()
	if st.CacheMisses != 1 || st.SimRuns == 0 {
		t.Fatalf("unexpected cold-plan counters: %+v", st)
	}
	warm, err := p.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache {
		t.Fatal("second identical plan not served from cache")
	}
	after := p.Stats()
	if after.SimRuns != st.SimRuns {
		t.Fatalf("cache hit ran %d further virtual runs", after.SimRuns-st.SimRuns)
	}
	if after.CacheHits != 1 {
		t.Fatalf("cache hits %d, want 1", after.CacheHits)
	}
	if warm.Best.Candidate.String() != cold.Best.Candidate.String() {
		t.Fatalf("cached plan differs: %s vs %s", warm.Best.Candidate, cold.Best.Candidate)
	}
	// A different problem must miss.
	if pl, err := p.Plan(Request{Platform: machine.Grid5000(), N: 256, P: 16, Quick: true}); err != nil {
		t.Fatal(err)
	} else if pl.FromCache {
		t.Fatal("different problem served from cache")
	}
}

func TestDefaultBlockSize(t *testing.T) {
	cases := []struct {
		n    int
		g    topo.Grid
		want int
	}{
		{256, topo.Grid{S: 4, T: 4}, 64}, // 64-wide tiles: full default
		{256, topo.Grid{S: 2, T: 8}, 32}, // 32-wide tiles cap it
		{96, topo.Grid{S: 4, T: 4}, 8},   // 24 = 8·3: largest dividing power of two
		{9, topo.Grid{S: 3, T: 3}, 1},    // odd tiles degrade to 1
	}
	for _, c := range cases {
		if got := DefaultBlockSize(matrix.Square(c.n), c.g); got != c.want {
			t.Fatalf("DefaultBlockSize(%d, %v) = %d, want %d", c.n, c.g, got, c.want)
		}
	}
}

// Every candidate the enumerator emits must satisfy the engine's layout
// constraints — a candidate that fails only at execution time would poison
// stage 2.
func TestCandidatesAreFeasible(t *testing.T) {
	reqs := []Request{
		{Platform: machine.Grid5000(), N: 512, P: 16},
		{Platform: machine.BlueGeneP(), N: 768, P: 12, Algorithms: []engine.Algorithm{
			engine.SUMMA, engine.HSUMMA, engine.Multilevel, engine.Cannon, engine.Fox}},
		{Platform: machine.Exascale(), N: 1024, P: 64, Quick: true},
	}
	for _, req := range reqs {
		cands, err := Candidates(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if _, err := c.Spec(matrix.Square(req.N)); err != nil {
				t.Fatalf("candidate %s does not resolve: %v", c, err)
			}
			if c.Grid.Size() != req.P {
				t.Fatalf("candidate %s grid does not hold %d procs", c, req.P)
			}
		}
	}
}

// A pinned grid or block size must constrain every candidate.
func TestCandidatePins(t *testing.T) {
	g := topo.Grid{S: 2, T: 8}
	cands, err := Candidates(Request{
		Platform: machine.Grid5000(), N: 512, P: 16, Grid: &g, BlockSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Grid != g {
			t.Fatalf("candidate %s escaped the pinned grid", c)
		}
		if c.BlockSize != 32 && c.Algorithm != engine.Cannon && c.Algorithm != engine.Fox {
			t.Fatalf("candidate %s escaped the pinned block size", c)
		}
	}
	// Cannon/Fox need a square grid; the pinned 2x8 grid excludes them.
	for _, c := range cands {
		if c.Algorithm == engine.Cannon || c.Algorithm == engine.Fox {
			t.Fatalf("non-square pinned grid admitted %s", c)
		}
	}
}

// Under a core budget the enumeration must sweep (ranks × threads) splits:
// every candidate fits the budget, more than one thread count appears, and
// pinning Threads collapses the sweep to that value.
func TestCoreBudgetEnumeratesRankThreadSplits(t *testing.T) {
	req := Request{Platform: machine.Grid5000(), N: 1024, CoreBudget: 64, Quick: true}
	cands, err := Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	threadCounts := map[int]bool{}
	for _, c := range cands {
		if c.Cores() > req.CoreBudget {
			t.Fatalf("candidate %s needs %d cores, budget is %d", c, c.Cores(), req.CoreBudget)
		}
		th := c.Threads
		if th < 1 {
			th = 1
		}
		threadCounts[th] = true
		if c.Grid.Size()*th > req.CoreBudget {
			t.Fatalf("candidate %s: %d ranks × %d threads exceeds budget", c, c.Grid.Size(), th)
		}
	}
	if len(threadCounts) < 2 {
		t.Fatalf("core-budget sweep produced only thread counts %v, want at least two splits", threadCounts)
	}

	pinned, err := Candidates(Request{Platform: machine.Grid5000(), N: 1024, CoreBudget: 64, Threads: 4, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pinned {
		if c.Threads != 4 {
			t.Fatalf("pinned Threads=4 produced candidate %s with t=%d", c, c.Threads)
		}
		if c.Grid.Size() != 16 {
			t.Fatalf("64 cores / 4 threads should plan 16 ranks, candidate %s has %d", c, c.Grid.Size())
		}
	}
}

// PlanFor under a core budget must rank hybrid candidates and resolve to a
// concrete (grid, threads) pair whose cores fit the budget; the plan echoes
// the budget for display and JSON consumers.
func TestPlanForCoreBudget(t *testing.T) {
	pl, err := PlanFor(Request{
		Platform: machine.Grid5000(), N: 1024, CoreBudget: 64,
		Quick: true, AnalyticOnly: true, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.CoreBudget != 64 {
		t.Fatalf("plan echoes core budget %d, want 64", pl.CoreBudget)
	}
	best := pl.Best.Candidate
	if best.Cores() > 64 {
		t.Fatalf("best candidate %s needs %d cores, budget is 64", best, best.Cores())
	}
	// The winner's spec must carry the thread budget into execution.
	spec, err := best.Spec(matrix.Square(1024))
	if err != nil {
		t.Fatal(err)
	}
	wantT := best.Threads
	if wantT < 1 {
		wantT = 1
	}
	gotT := spec.Opts.Threads
	if gotT < 1 {
		gotT = 1
	}
	if gotT != wantT {
		t.Fatalf("spec threads %d, candidate threads %d", gotT, wantT)
	}
}

// The analytic scorer must reward intra-rank threads on compute-bound
// problems: same grid, more threads, strictly lower total (and untouched
// communication).
func TestScorerThreadsSpeedup(t *testing.T) {
	s := newScorer(matrix.Square(2048), machine.Grid5000().Model, false)
	g := topo.Grid{S: 4, T: 4}
	serial := Candidate{Algorithm: engine.SUMMA, Grid: g, Knobs: core.Knobs{BlockSize: 128, Broadcast: sched.Binomial}}
	hybrid := serial
	hybrid.Threads = 4
	commS, totalS := s.score(serial)
	commH, totalH := s.score(hybrid)
	if commS != commH {
		t.Fatalf("threads changed communication cost: %g vs %g", commS, commH)
	}
	if totalH >= totalS {
		t.Fatalf("4 threads did not lower total: %g vs %g", totalH, totalS)
	}
}

// The stage-2 refinement runs under the auto executor only. That cannot
// change a pick: re-running every refined candidate of a plan under each
// explicit engine must reproduce the scores the ranking was built from,
// bit for bit — on all five platform presets.
func TestRefinementEngineDoesNotChangePicks(t *testing.T) {
	presets := map[string]machine.Platform{
		"grid5000":     machine.Grid5000(),
		"bgp":          machine.BlueGeneP(),
		"exascale":     machine.Exascale(),
		"grid5000-cal": machine.Grid5000Calibrated(),
		"bgp-cal":      machine.BlueGenePCalibrated(),
	}
	for name, pf := range presets {
		pf := pf
		t.Run(name, func(t *testing.T) {
			pl, err := NewPlanner().Plan(Request{Platform: pf, N: 512, P: 16, Quick: true, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(pl.Ranked) == 0 {
				t.Fatal("empty plan")
			}
			for i, s := range pl.Ranked {
				if !s.Refined {
					t.Fatalf("rank %d not refined: %+v", i, s)
				}
				spec, err := s.Candidate.Spec(pl.Shape)
				if err != nil {
					t.Fatal(err)
				}
				for _, ex := range []engine.Executor{engine.ExecutorGoroutine, engine.ExecutorEvent} {
					res, _, err := engine.Simulate(spec, simnet.VConfig{Model: pf.Model}, ex)
					if err != nil {
						t.Fatalf("%s %s: %v", ex, s.Candidate, err)
					}
					if res.Comm != s.SimComm || res.Total != s.SimTotal {
						t.Fatalf("rank %d (%s) under %s: comm %g total %g, plan scored %g / %g",
							i, s.Candidate, ex, res.Comm, res.Total, s.SimComm, s.SimTotal)
					}
				}
			}
		})
	}
}

// TestRefineTimeCounter checks that cold plans accumulate refinement wall
// time in the planner counters (the observability the event engine's
// speedup is measured against).
func TestRefineTimeCounter(t *testing.T) {
	p := NewPlanner()
	if _, err := p.Plan(Request{Platform: machine.Grid5000(), N: 512, P: 16, Quick: true}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.SimRuns == 0 {
		t.Fatal("expected stage-2 virtual runs")
	}
	if st.RefineNanos <= 0 {
		t.Fatalf("RefineNanos = %d, want > 0", st.RefineNanos)
	}
	if st.RefineTime() <= 0 {
		t.Fatalf("RefineTime() = %v, want > 0", st.RefineTime())
	}
	// A cache hit must not add refinement time.
	before := p.Stats().RefineNanos
	if _, err := p.Plan(Request{Platform: machine.Grid5000(), N: 512, P: 16, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if after := p.Stats().RefineNanos; after != before {
		t.Fatalf("cache hit changed RefineNanos: %d -> %d", before, after)
	}
}
