package simalg_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// The engine parity invariant: the event-driven engine (internal/evsim)
// must produce *bit-identical* virtual times, per-rank communication-time
// breakdowns and per-rank traffic counters to the goroutine engine
// (internal/simnet.VWorld) — for every algorithm, on every platform
// preset, with and without contention. This is what lets "auto" switch
// engines purely on host wall time.

// eventPerRank is the event engine with stream classes off: every rank
// records its own program, the reference the classed replay must match.
const eventPerRank engine.Executor = "event-per-rank"

// engineRun executes a spec on one engine — the event engine through
// engine.EventWorld, the entry engine.Simulate uses — and returns per-rank
// clocks, comm times and traffic.
func engineRun(t *testing.T, spec engine.Spec, vcfg simnet.VConfig, ex engine.Executor) (clocks, commT []float64, stats []simnet.VRankStats) {
	t.Helper()
	g := spec.Opts.Grid
	bm, err := dist.NewBlockMap(spec.Opts.N, spec.Opts.N, g)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var algErr error
	rank := func(c comm.Comm) {
		aLoc := c.NewTile(bm.LocalRows(), bm.LocalCols())
		bLoc := c.NewTile(bm.LocalRows(), bm.LocalCols())
		cLoc := c.NewTile(bm.LocalRows(), bm.LocalCols())
		if e := engine.Run(c, spec, aLoc, bLoc, cLoc); e != nil {
			mu.Lock()
			if algErr == nil {
				algErr = e
			}
			mu.Unlock()
		}
	}
	var sim *simnet.Sim
	switch ex {
	case engine.ExecutorEvent, eventPerRank:
		w := engine.EventWorld(spec, vcfg)
		if ex == eventPerRank {
			w.SetClasses(nil)
		}
		err = w.Run(rank)
		sim, stats = w.Sim(), w.Stats()
	default:
		w := simnet.NewVWorld(g.Size(), vcfg)
		err = w.Run(func(c *simnet.VComm) { rank(c) })
		sim, stats = w.Sim(), w.Stats()
	}
	if err != nil {
		t.Fatalf("%s engine: %v", ex, err)
	}
	if algErr != nil {
		t.Fatalf("%s engine: %v", ex, algErr)
	}
	p := g.Size()
	clocks = make([]float64, p)
	commT = make([]float64, p)
	for r := 0; r < p; r++ {
		clocks[r] = sim.Clock(r)
		commT[r] = sim.CommTime(r)
	}
	return clocks, commT, stats
}

func paritySpecs(t *testing.T) map[string]engine.Spec {
	t.Helper()
	g := topo.Grid{S: 4, T: 4}
	h, err := topo.NewHier(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 96
	return map[string]engine.Spec{
		"summa": {Algorithm: engine.SUMMA, Opts: core.Options{
			N: n, Grid: g, Knobs: core.Knobs{BlockSize: 8, Broadcast: sched.Binomial}}},
		"hsumma": {Algorithm: engine.HSUMMA, Opts: core.Options{
			N: n, Grid: g, Knobs: core.Knobs{BlockSize: 8, OuterBlockSize: 24, Broadcast: sched.VanDeGeijn}, Groups: h}},
		"multilevel": {Algorithm: engine.Multilevel, Opts: core.Options{
			N: n, Grid: g, Knobs: core.Knobs{BlockSize: 4, Broadcast: sched.Binomial}},
			Levels: []core.Level{{I: 2, J: 2, BlockSize: 8}}},
		"cannon": {Algorithm: engine.Cannon, Opts: core.Options{N: n, Grid: g}},
		"fox": {Algorithm: engine.Fox, Opts: core.Options{
			N: n, Grid: g, Knobs: core.Knobs{Broadcast: sched.VanDeGeijn}}},
		// Threaded ranks: the event engine carries the thread budget in
		// each Gemm event and must divide by the same Speedup(2).
		"hsumma_threads": {Algorithm: engine.HSUMMA, Opts: core.Options{
			N: n, Grid: g, Knobs: core.Knobs{BlockSize: 12, OuterBlockSize: 24, Threads: 2}, Groups: h}},
	}
}

func parityPlatforms() map[string]machine.Platform {
	return map[string]machine.Platform{
		"grid5000":     machine.Grid5000(),
		"bgp":          machine.BlueGeneP(),
		"exascale":     machine.Exascale(),
		"grid5000-cal": machine.Grid5000Calibrated(),
		"bgp-cal":      machine.BlueGenePCalibrated(),
	}
}

// TestEngineParity is the table-driven bit-identity check: five
// algorithms × five platform presets × contention off/on, each run on the
// goroutine engine, the event engine with the spec's stream classes, and
// the event engine with one class per rank.
func TestEngineParity(t *testing.T) {
	for algName, spec := range paritySpecs(t) {
		for pfName, pf := range parityPlatforms() {
			for _, contention := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/contention=%t", algName, pfName, contention)
				spec, pf, contention := spec, pf, contention
				t.Run(name, func(t *testing.T) {
					vcfg := simnet.VConfig{Model: pf.Model}
					if contention {
						vcfg.Contention = simnet.ContentionFor(pf, spec.Opts.Grid.Size(), true)
					}
					gc, gm, gs := engineRun(t, spec, vcfg, engine.ExecutorGoroutine)
					for _, ex := range []engine.Executor{engine.ExecutorEvent, eventPerRank} {
						ec, em, es := engineRun(t, spec, vcfg, ex)
						for r := range gc {
							if gc[r] != ec[r] {
								t.Fatalf("rank %d clock: goroutine %v vs %s %v", r, gc[r], ex, ec[r])
							}
							if gm[r] != em[r] {
								t.Fatalf("rank %d comm time: goroutine %v vs %s %v", r, gm[r], ex, em[r])
							}
							if gs[r] != es[r] {
								t.Fatalf("rank %d traffic: goroutine %+v vs %s %+v", r, gs[r], ex, es[r])
							}
						}
					}
				})
			}
		}
	}
}

// TestEngineParityOverlapAndLinkCost covers the model knob outside the
// main table: a non-uniform link model, under which transfer times depend
// on rank placement.
func TestEngineParityOverlapAndLinkCost(t *testing.T) {
	specs := paritySpecs(t)
	pf := machine.BlueGenePCalibrated()

	t.Run("linkcost", func(t *testing.T) {
		spec := specs["hsumma"]
		link := func(src, dst int) float64 { return 1 + 0.1*float64((src+dst)%3) }
		vcfg := simnet.VConfig{Model: pf.Model, LinkCost: link}
		gc, gm, gs := engineRun(t, spec, vcfg, engine.ExecutorGoroutine)
		ec, em, es := engineRun(t, spec, vcfg, engine.ExecutorEvent)
		for r := range gc {
			if gc[r] != ec[r] || gm[r] != em[r] || gs[r] != es[r] {
				t.Fatalf("rank %d differs under link cost: clock %v/%v comm %v/%v stats %+v/%+v",
					r, gc[r], ec[r], gm[r], em[r], gs[r], es[r])
			}
		}
	})
}

// TestEngineAutoSelection pins the auto rule: event for the pivot-loop
// specs, goroutines for the point-to-point baselines — and rejection of
// unknown executors.
func TestEngineAutoSelection(t *testing.T) {
	cases := []struct {
		alg  engine.Algorithm
		want engine.Executor
	}{
		{engine.SUMMA, engine.ExecutorEvent},
		{engine.HSUMMA, engine.ExecutorEvent},
		{engine.Multilevel, engine.ExecutorEvent},
		{engine.Cannon, engine.ExecutorGoroutine},
		{engine.Fox, engine.ExecutorGoroutine},
	}
	for _, c := range cases {
		got, err := engine.ResolveExecutor(engine.ExecutorAuto, c.alg)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("auto(%s) = %s, want %s", c.alg, got, c.want)
		}
		// The empty string behaves as auto.
		got, err = engine.ResolveExecutor("", c.alg)
		if err != nil || got != c.want {
			t.Errorf("empty executor (%s) = %s (%v), want %s", c.alg, got, err, c.want)
		}
	}
	if _, err := engine.ResolveExecutor("warp", engine.SUMMA); err == nil {
		t.Fatal("unknown executor accepted")
	}
}
