package tune

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/simnet"
)

// The planner must select the sub-cubic local kernel only where the cost
// model says it wins.

// Small problems: the local kernel falls through to the classic one below
// the crossover — the planner must stay classic.
func TestPlannerStaysClassicOnSmallProblems(t *testing.T) {
	pl, err := NewPlanner().Plan(Request{
		Platform: machine.Grid5000(), N: 256, P: 16,
		Quick: true, NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Best.LocalStrassen {
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

// Every local-kernel variant the enumeration proposes must resolve and
// simulate, and must be one where the kernel can win: no dimension of its
// rank-local multiplies (tile extents, and the panel width where there is
// one) at or below blas.DefaultStrassenCutoff, where StrassenGemm is the
// classic kernel. Each variant doubles a classic candidate that is also
// proposed, and every classic candidate clear of the cutoff is doubled.
func TestStrassenCandidatesAreRunnable(t *testing.T) {
	variants, classicOnly := 0, 0
	for _, p := range []int{4, 16} {
		req := Request{Platform: machine.Grid5000(), N: 2048, P: p, NoCache: true}
		cands, err := Candidates(req)
		if err != nil {
			t.Fatal(err)
		}
		classic := map[string]bool{}
		doubled := map[string]bool{}
		for _, c := range cands {
			if !c.LocalStrassen {
				classic[c.String()] = true
				continue
			}
			twin := c
			twin.LocalStrassen = false
			doubled[twin.String()] = true
		}
		for _, c := range cands {
			sh := matrix.Square(req.N)
			minDim := min(sh.M/c.Grid.S, sh.N/c.Grid.T, sh.K/c.Grid.S, sh.K/c.Grid.T)
			if c.BlockSize > 0 {
				minDim = min(minDim, c.BlockSize)
			}
			clear := minDim > blas.DefaultStrassenCutoff
			if !c.LocalStrassen {
				if clear != doubled[c.String()] {
					t.Fatalf("p=%d: classic %s (smallest local dimension %d) doubled=%t", p, c, minDim, doubled[c.String()])
				}
				if !clear {
					classicOnly++
				}
				continue
			}
			variants++
			if !clear {
				t.Fatalf("p=%d: variant %s proposed at local dimension %d ≤ cutoff %d", p, c, minDim, blas.DefaultStrassenCutoff)
			}
			twin := c
			twin.LocalStrassen = false
			if !classic[twin.String()] {
				t.Fatalf("p=%d: variant %s has no classic twin", p, c)
			}
			spec, err := c.Spec(sh)
			if err != nil {
				t.Fatalf("candidate %s does not resolve: %v", c, err)
			}
			if _, _, err := engine.Simulate(spec, simnet.VConfig{Model: req.Platform.Model}, engine.ExecutorAuto); err != nil {
				t.Fatalf("candidate %s does not simulate: %v", c, err)
			}
		}
	}
	if variants == 0 || classicOnly == 0 {
		t.Fatalf("sweep exercised %d variants and %d classic-only candidates; want both", variants, classicOnly)
	}
}
