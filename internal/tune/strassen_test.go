package tune

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/simnet"
)

// The planner must select sub-cubic arithmetic only where the cost model
// says it wins, and the model must agree with the virtual runs about
// where that is.

// Small problems: the distributed Strassen recursion buys no per-rank
// flops (2 sequential sub-problems ≈ classic's critical path) and the
// local kernel falls through to the classic one below the crossover — the
// planner must stay classic.
func TestPlannerStaysClassicOnSmallProblems(t *testing.T) {
	pl, err := NewPlanner().Plan(Request{
		Platform: machine.Grid5000(), N: 256, P: 16,
		Quick: true, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Best.Algorithm == engine.Strassen || pl.Best.LocalStrassen {
		t.Fatalf("planner picked sub-cubic config %s at n=256, where it cannot win", pl.Best.Candidate)
	}
}

// Large compute-dominated problems: the local Strassen kernel cuts the
// per-rank flops below 2MNK/p, and nothing else in the candidate space
// can — the planner must turn it on.
func TestPlannerEnablesLocalKernelOnLargeProblems(t *testing.T) {
	pl, err := NewPlanner().Plan(Request{
		Platform: machine.Grid5000(), N: 8192, P: 4,
		Quick: true, AnalyticOnly: true, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Best.LocalStrassen {
		t.Fatalf("planner kept the classic kernel at n=8192: %s", pl.Best.Candidate)
	}
}

// Wherever the planner ranks a strassen-algorithm candidate above a
// classic one analytically, the virtual run must agree to 5% — otherwise
// the model is steering Auto towards configurations the authoritative
// timing path would reject.
func TestStrassenModelAgreesWithSimulation(t *testing.T) {
	req := Request{
		Platform: machine.Grid5000(), N: 1024, P: 16,
		Algorithms: []engine.Algorithm{engine.SUMMA, engine.Strassen},
		Quick:      true, NoCache: true, TopK: 16,
	}
	pl, err := NewPlanner().Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	// Rank by model, rank by simulation: the orderings of the refined set
	// must agree on which family wins, within tolerance.
	var bestModel, bestSim *Scored
	for i := range pl.Ranked {
		s := &pl.Ranked[i]
		if !s.Refined {
			continue
		}
		if bestModel == nil || s.ModelTotal < bestModel.ModelTotal {
			bestModel = s
		}
		if bestSim == nil || s.SimTotal < bestSim.SimTotal {
			bestSim = s
		}
	}
	if bestModel == nil || bestSim == nil {
		t.Fatal("no refined candidates")
	}
	if bestModel.Algorithm != bestSim.Algorithm {
		// Different family picks are tolerable only when the simulated
		// costs are within 5% of each other — i.e. the model's pick is
		// not materially wrong.
		if bestModel.SimTotal > bestSim.SimTotal*1.05 {
			t.Fatalf("model prefers %s (sim %.3g s) but simulation prefers %s (%.3g s)",
				bestModel.Candidate, bestModel.SimTotal, bestSim.Candidate, bestSim.SimTotal)
		}
	}
}

// Every enumerated strassen candidate must resolve and simulate: the
// feasibility filters in the enumeration must match the execution layer's
// validation exactly. The 4x4 grid recurses twice; an HSUMMA bottom needs
// a sub-grid that four groups split properly (4x4, on the 8x8 grid — on
// 4x4's 2x2 bottom, four groups hold one rank each, which is SUMMA).
func TestStrassenCandidatesAreRunnable(t *testing.T) {
	sawLevels2, sawGroups := false, false
	for _, p := range []int{16, 64} {
		req := Request{
			Platform: machine.Grid5000(), N: 512, P: p,
			Algorithms: []engine.Algorithm{engine.Strassen},
			NoCache:    true,
		}
		cands, err := Candidates(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 {
			t.Fatalf("no strassen candidates at p=%d", p)
		}
		for _, c := range cands {
			if c.StrassenLevels == 2 {
				sawLevels2 = true
			}
			if c.StrassenInnerGroups > 0 {
				sawGroups = true
			}
			spec, err := c.Spec(matrix.Square(req.N))
			if err != nil {
				t.Fatalf("candidate %s does not resolve: %v", c, err)
			}
			if _, _, err := engine.Simulate(spec, simnet.VConfig{Model: req.Platform.Model}, engine.ExecutorAuto); err != nil {
				t.Fatalf("candidate %s does not simulate: %v", c, err)
			}
		}
	}
	if !sawLevels2 {
		t.Fatal("full-mode enumeration proposed no two-level recursion on a 4x4 grid")
	}
	if !sawGroups {
		t.Fatal("full-mode enumeration proposed no HSUMMA bottom")
	}
}
