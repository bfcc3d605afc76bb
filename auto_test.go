package hsumma

import (
	"testing"
	"time"
)

// AlgAuto on the live path: the planner picks the whole configuration and
// the result must still verify against sequential GEMM.
func TestMultiplyAuto(t *testing.T) {
	n := 128
	a := RandomMatrix(n, n, 3)
	b := RandomMatrix(n, n, 4)
	got, stats, err := Multiply(a, b, Config{Procs: 16, Algorithm: AlgAuto})
	if err != nil {
		t.Fatal(err)
	}
	if diff := MaxAbsDiff(got, Reference(a, b)); diff > 1e-9 {
		t.Fatalf("auto-planned multiply wrong by %g", diff)
	}
	if stats.Messages == 0 {
		t.Fatal("auto-planned multiply moved no messages")
	}
	// An explicit platform constraint must also work.
	pf := PlatformBGPCalibrated()
	if _, _, err := Multiply(a, b, Config{Procs: 16, Algorithm: AlgAuto, Platform: &pf}); err != nil {
		t.Fatal(err)
	}
}

// AlgAuto on the simulated path: the chosen configuration is echoed and
// must be at least as good as the SUMMA default for the same problem.
func TestSimulateAuto(t *testing.T) {
	pf := PlatformBGPCalibrated()
	auto, err := Simulate(SimConfig{N: 1024, Procs: 64, Algorithm: AlgAuto, Machine: pf.Model, Platform: &pf})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Algorithm == AlgAuto || auto.Algorithm == "" {
		t.Fatalf("auto simulation did not echo a concrete algorithm: %+v", auto)
	}
	if auto.Total <= 0 {
		t.Fatalf("degenerate auto simulation: %+v", auto)
	}
	summa, err := Simulate(SimConfig{N: 1024, Procs: 64, Algorithm: AlgSUMMA, BlockSize: 64, Machine: pf.Model})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Total > summa.Total*1.0001 {
		t.Fatalf("auto pick (%s, %.4g s) slower than the SUMMA default (%.4g s)",
			auto.Algorithm, auto.Total, summa.Total)
	}
}

// A Platform alone must be a complete machine description: the Hockney
// model defaults from it instead of simulating on a zero-cost machine.
func TestSimulateDefaultsMachineFromPlatform(t *testing.T) {
	pf := PlatformBGPCalibrated()
	res, err := Simulate(SimConfig{N: 1024, Procs: 64, Algorithm: AlgAuto, Platform: &pf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 || res.Comm <= 0 {
		t.Fatalf("zero-cost simulation slipped through: %+v", res)
	}
}

// A cached plan must be caller-owned: re-sorting it cannot corrupt the
// cache for later hits.
func TestPlanCacheIsolation(t *testing.T) {
	cfg := PlanConfig{Platform: PlatformExascale(), N: 256, Procs: 16}
	first, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Ranked[0].Candidate.String()
	// Vandalise the returned plan.
	for i, j := 0, len(first.Ranked)-1; i < j; i, j = i+1, j-1 {
		first.Ranked[i], first.Ranked[j] = first.Ranked[j], first.Ranked[i]
	}
	second, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Fatal("expected a cache hit")
	}
	if got := second.Ranked[0].Candidate.String(); got != want {
		t.Fatalf("cache corrupted by caller mutation: Ranked[0] = %s, want %s", got, want)
	}
}

// The public Plan API must rank candidates and report cache hits through
// the shared counters. The 4×4 grid has power-of-two sides, so the plan is
// ranked by its closed-form totals and replays nothing.
func TestPlanAPI(t *testing.T) {
	pf := PlatformGrid5000()
	cfg := PlanConfig{Platform: pf, N: 512, Procs: 16}
	before := PlannerCounters()
	pl, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Ranked) == 0 || pl.Simulated != 0 || pl.Best.Refined {
		t.Fatalf("degenerate plan (or a replay on a 4x4 grid): %+v", pl)
	}
	if runs := PlannerCounters().SimRuns; runs != before.SimRuns {
		t.Fatalf("4x4 plan ran %d replays", runs-before.SimRuns)
	}
	for i := 1; i < len(pl.Ranked); i++ {
		if pl.Ranked[i-1].ModelTotal > pl.Ranked[i].ModelTotal {
			t.Fatalf("plan not ranked: #%d (%.6g) above #%d (%.6g)",
				i-1, pl.Ranked[i-1].ModelTotal, i, pl.Ranked[i].ModelTotal)
		}
	}
	again, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !again.FromCache {
		t.Fatal("repeated plan not served from cache")
	}
	after := PlannerCounters()
	if after.CacheHits <= before.CacheHits {
		t.Fatalf("cache hits did not advance: %+v -> %+v", before, after)
	}
}

// Full-mode planning at the exascale point (p = 2^20 on a 1024×1024 grid)
// enumerates group counts by divisor pairs; trying every G in 1..p with
// every divisor of G did not finish. Above tune.AutoProcs ranks nothing is
// replayed, so it must plan in well under a second.
func TestPlanExascaleAnalyticUnderASecond(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound does not hold under the race detector")
	}
	start := time.Now()
	pl, err := Plan(PlanConfig{Platform: PlatformExascale(), N: 1 << 22, Procs: 1 << 20, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("p=2^20 analytic plan took %v, want < 1s", el)
	}
	if len(pl.Ranked) == 0 || pl.Best.Candidate.Grid.Size() != 1<<20 {
		t.Fatalf("degenerate plan: %+v", pl.Best)
	}
}
