package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simalg"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// The -simbench mode is the CI perf gate for the virtual execution
// engines: it runs the full paper-scale BG/P simulation (the
// BenchmarkFullScaleBGPSim configuration) on both engines, asserts their
// results are bit-identical, writes BENCH_sim.json, and — when a
// committed baseline is given — fails if the event engine's wall time
// ratio against the goroutine engine regressed more than 25%. The
// gate compares the engines' *ratio*, not absolute seconds, so it is
// insensitive to runner hardware.

// simBenchReport is the BENCH_sim.json schema.
type simBenchReport struct {
	Config string `json:"config"`
	Procs  int    `json:"p"`
	N      int    `json:"n"`
	// Shape records the full GEMM problem shape the benchmark executed
	// (M = N = K for the paper's square configuration).
	Shape                 matrix.Shape `json:"shape"`
	GoroutineWallS        float64      `json:"goroutine_wall_s"`
	EventWallS            float64      `json:"event_wall_s"`
	EventSpeedup          float64      `json:"event_speedup"`
	EventVsGoroutineRatio float64      `json:"event_vs_goroutine_ratio"`
	SimTotalS             float64      `json:"sim_total_s"`
	SimCommS              float64      `json:"sim_comm_s"`
	ParityOK              bool         `json:"parity_ok"`
}

// simBenchBaseline is the committed baseline schema (see
// ci/bench-sim-baseline.json).
type simBenchBaseline struct {
	// EventVsGoroutineRatio is the nominal event/goroutine wall-time
	// ratio at the time the baseline was committed; the gate allows 25%
	// headroom on top.
	EventVsGoroutineRatio float64 `json:"event_vs_goroutine_ratio"`
}

// simBenchRegressionHeadroom: the CI job fails when the measured ratio
// exceeds baseline × this factor (a >25% event-engine regression).
const simBenchRegressionHeadroom = 1.25

// simBenchReps: runs per engine; the minimum wall time is reported.
const simBenchReps = 2

func runSimBench(quick bool, outPath, baselinePath string) {
	if quick && baselinePath != "" {
		fmt.Fprintln(os.Stderr, "simbench: -quick cannot be gated against the committed full-scale baseline (the engines' relative cost differs at small scale); drop -quick or -baseline")
		os.Exit(2)
	}
	// One core for both engines: the acceptance criterion is single-core
	// wall time, and pinning makes the ratio independent of the runner's
	// core count (the goroutine engine scales with cores, the event
	// engine's replay loop does not — unpinned, the ratio would drift
	// with hardware).
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	n, grid, groups := 65536, topo.Grid{S: 128, T: 128}, 128
	if quick {
		n, grid, groups = 16384, topo.Grid{S: 64, T: 64}, 64
	}
	h, err := topo.FactorGroups(grid, groups)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	spec := engine.Spec{Algorithm: engine.HSUMMA, Opts: core.Options{
		N: n, Grid: grid, Groups: h,
		Knobs: core.Knobs{BlockSize: 256, Broadcast: sched.VanDeGeijn},
	}}
	vcfg := simnet.VConfig{Model: platform.BlueGenePCalibrated().Model}

	// Best of simBenchReps per engine: the goroutine engine's wall time
	// swings ±30% run to run (its 16384-goroutine rendezvous order is
	// scheduler-dependent), so a single-shot ratio would flake the gate.
	// Minimum is the right estimator — noise only ever adds time.
	run := func(ex engine.Executor) (simalg.Result, []simnet.VRankStats, float64) {
		var first simalg.Result
		var firstStats []simnet.VRankStats
		bestWall := -1.0
		for rep := 0; rep < simBenchReps; rep++ {
			start := time.Now()
			res, stats, err := simalg.Run(spec, vcfg, ex)
			wall := time.Since(start).Seconds()
			if err != nil {
				fmt.Fprintf(os.Stderr, "simbench: %s engine: %v\n", ex, err)
				os.Exit(1)
			}
			if rep == 0 {
				first, firstStats = res, stats
			} else if res.Total != first.Total || res.Comm != first.Comm {
				fmt.Fprintf(os.Stderr, "simbench: FAIL: %s engine not deterministic across reps\n", ex)
				os.Exit(1)
			}
			if bestWall < 0 || wall < bestWall {
				bestWall = wall
			}
		}
		return first, firstStats, bestWall
	}
	gRes, gStats, gWall := run(engine.ExecutorGoroutine)
	eRes, eStats, eWall := run(engine.ExecutorEvent)

	parity := gRes.Total == eRes.Total && gRes.Comm == eRes.Comm
	for r := range gStats {
		if gStats[r] != eStats[r] {
			parity = false
			break
		}
	}

	rep := simBenchReport{
		Config: fmt.Sprintf("hsumma bgp-cal n=%d p=%d G=%d b=256 vandegeijn", n, grid.Size(), groups),
		Procs:  grid.Size(), N: n, Shape: eRes.Shape,
		GoroutineWallS:        gWall,
		EventWallS:            eWall,
		EventSpeedup:          gWall / eWall,
		EventVsGoroutineRatio: eWall / gWall,
		SimTotalS:             eRes.Total,
		SimCommS:              eRes.Comm,
		ParityOK:              parity,
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if outPath == "" || outPath == "-" {
		os.Stdout.Write(out)
	} else if err := os.WriteFile(outPath, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "simbench: goroutine %.2fs, event %.2fs (%.1fx), parity=%t\n",
		gWall, eWall, rep.EventSpeedup, parity)

	if !parity {
		fmt.Fprintln(os.Stderr, "simbench: FAIL: engines disagree (parity violation)")
		os.Exit(1)
	}
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: baseline: %v\n", err)
			os.Exit(1)
		}
		var base simBenchBaseline
		if err := json.Unmarshal(raw, &base); err != nil || base.EventVsGoroutineRatio <= 0 {
			fmt.Fprintf(os.Stderr, "simbench: bad baseline %s: %v\n", baselinePath, err)
			os.Exit(1)
		}
		limit := base.EventVsGoroutineRatio * simBenchRegressionHeadroom
		if rep.EventVsGoroutineRatio > limit {
			fmt.Fprintf(os.Stderr,
				"simbench: FAIL: event/goroutine wall ratio %.3f exceeds baseline %.3f +25%% headroom (%.3f) — the event engine regressed\n",
				rep.EventVsGoroutineRatio, base.EventVsGoroutineRatio, limit)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "simbench: ratio %.3f within baseline %.3f +25%% headroom\n",
			rep.EventVsGoroutineRatio, base.EventVsGoroutineRatio)
	}
}
