package simalg_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// The acceptance matrix for the rectangular generalisation: on tall,
// wide, fat-K and prime-ish (padding-exercising) shapes, every
// SUMMA-family algorithm must hold both parity invariants —
// goroutine-vs-event engine bit-identity and live-vs-sim per-rank
// traffic identity — while the square-only baselines reject with the
// shared ErrSquareOnly on every surface.

// rectShapes is the shape matrix: one representative per aspect class.
func rectShapes() map[string]matrix.Shape {
	return map[string]matrix.Shape{
		"tall":     {M: 192, N: 48, K: 96},
		"wide":     {M: 48, N: 192, K: 96},
		"fatk":     {M: 48, N: 48, K: 384},
		"skinnyk":  {M: 192, N: 192, K: 24},
		"primeish": {M: 97, N: 53, K: 61}, // nothing divides: the padding path
	}
}

// rectSpec builds a runnable spec for the algorithm on a 4×4 grid; block
// sizes are chosen to divide the divisible shapes and to exercise
// padding on the prime-ish one.
func rectSpec(t *testing.T, alg engine.Algorithm, sh matrix.Shape) engine.Spec {
	t.Helper()
	g := topo.Grid{S: 4, T: 4}
	opts := core.Options{Shape: sh, Grid: g, Knobs: core.Knobs{BlockSize: 6, Broadcast: sched.Binomial}}
	spec := engine.Spec{Algorithm: alg, Opts: opts}
	switch alg {
	case engine.HSUMMA:
		h, err := topo.NewHier(g, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		spec.Opts.Groups = h
		spec.Opts.OuterBlockSize = 6
		spec.Opts.Broadcast = sched.VanDeGeijn
	case engine.Multilevel:
		spec.Opts.BlockSize = 3
		spec.Levels = []core.Level{{I: 2, J: 2, BlockSize: 6}}
	case engine.Cannon, engine.Fox:
		spec.Opts.BlockSize = 0
	}
	return spec
}

// TestEngineParityRectangular: goroutine vs event bit-identity over the
// rectangular shape matrix, with and without contention; square-only
// baselines rejected with ErrSquareOnly by both engines.
func TestEngineParityRectangular(t *testing.T) {
	pf := machine.BlueGenePCalibrated()
	for shapeName, sh := range rectShapes() {
		for _, alg := range engine.Algorithms() {
			for _, contention := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/contention=%t", shapeName, alg, contention)
				sh, alg, contention := sh, alg, contention
				t.Run(name, func(t *testing.T) {
					spec := rectSpec(t, alg, sh)
					vcfg := simnet.VConfig{Model: pf.Model}
					if contention {
						vcfg.Contention = simnet.ContentionFor(pf, spec.Opts.Grid.Size(), true)
					}
					if alg == engine.Cannon || alg == engine.Fox {
						for _, ex := range []engine.Executor{engine.ExecutorGoroutine, engine.ExecutorEvent} {
							_, _, err := engine.Simulate(spec, vcfg, ex)
							if !errors.Is(err, matrix.ErrSquareOnly) {
								t.Fatalf("%s engine on %v: got %v, want ErrSquareOnly", ex, sh, err)
							}
						}
						return
					}
					gRes, gStats, err := engine.Simulate(spec, vcfg, engine.ExecutorGoroutine)
					if err != nil {
						t.Fatal(err)
					}
					eRes, eStats, err := engine.Simulate(spec, vcfg, engine.ExecutorEvent)
					if err != nil {
						t.Fatal(err)
					}
					if gRes != eRes {
						// Engine differs by construction; everything else
						// must be bit-identical.
						gr, er := gRes, eRes
						gr.Engine, er.Engine = "", ""
						if gr != er {
							t.Fatalf("results differ: goroutine %+v vs event %+v", gRes, eRes)
						}
					}
					for r := range gStats {
						if gStats[r] != eStats[r] {
							t.Fatalf("rank %d traffic: goroutine %+v vs event %+v", r, gStats[r], eStats[r])
						}
					}
				})
			}
		}
	}
}

// liveStatsRect executes the spec on the goroutine runtime with real
// rectangular data (padded exactly as the engine prescribes), verifies
// the product against the sequential reference, and returns the per-rank
// traffic counters.
func liveStatsRect(t *testing.T, spec engine.Spec) []mpi.RankStats {
	t.Helper()
	padded, err := spec.Padded()
	if err != nil {
		t.Fatal(err)
	}
	sh, es := spec.Shape(), padded.Opts.Shape
	g := padded.Opts.Grid
	bmA, err := dist.NewBlockMap(es.M, es.K, g)
	if err != nil {
		t.Fatal(err)
	}
	bmB, err := dist.NewBlockMap(es.K, es.N, g)
	if err != nil {
		t.Fatal(err)
	}
	bmC, err := dist.NewBlockMap(es.M, es.N, g)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(sh.M, sh.K, 501)
	b := matrix.Random(sh.K, sh.N, 502)
	aPad := matrix.New(es.M, es.K)
	aPad.View(0, 0, sh.M, sh.K).CopyFrom(a)
	bPad := matrix.New(es.K, es.N)
	bPad.View(0, 0, sh.K, sh.N).CopyFrom(b)
	aT, bT := bmA.Scatter(aPad), bmB.Scatter(bPad)
	cT := make([]*matrix.Dense, g.Size())
	for r := range cT {
		cT[r] = matrix.New(bmC.LocalRows(), bmC.LocalCols())
	}
	stats, err := mpi.RunStats(g.Size(), func(c *mpi.Comm) {
		if e := engine.Run(mpi.AsComm(c), padded, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
			panic(e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Traffic parity on a wrong answer would prove nothing: check the
	// cropped product against the sequential reference.
	got := bmC.Gather(cT).View(0, 0, sh.M, sh.N)
	want := matrix.New(sh.M, sh.N)
	core.Reference(want, a, b)
	if d := matrix.MaxAbsDiff(got.Clone(), want); d > 1e-10 {
		t.Fatalf("live rect run off by %g (shape %v, padded %v)", d, sh, es)
	}
	return stats
}

// TestLiveSimTrafficParityRectangular: per-rank message and byte counts
// of a live rectangular run must match the simulated run bit-for-bit,
// across the shape matrix and the SUMMA-family algorithms.
func TestLiveSimTrafficParityRectangular(t *testing.T) {
	machine := machine.Model{Alpha: 1e-5, Beta: 1e-9, Gamma: 1e-10}
	for shapeName, sh := range rectShapes() {
		for _, alg := range []engine.Algorithm{engine.SUMMA, engine.HSUMMA, engine.Multilevel} {
			name := fmt.Sprintf("%s/%s", shapeName, alg)
			sh, alg := sh, alg
			t.Run(name, func(t *testing.T) {
				spec := rectSpec(t, alg, sh)
				live := liveStatsRect(t, spec)
				_, sim, err := engine.Simulate(spec, simnet.VConfig{Model: machine}, engine.ExecutorAuto)
				if err != nil {
					t.Fatal(err)
				}
				if len(live) != len(sim) {
					t.Fatalf("rank counts differ: live %d, sim %d", len(live), len(sim))
				}
				for r := range live {
					if live[r].SentMessages != sim[r].SentMessages || live[r].SentBytes != sim[r].SentBytes {
						t.Fatalf("rank %d: live (%d msgs, %d B) != sim (%d msgs, %d B)", r,
							live[r].SentMessages, live[r].SentBytes, sim[r].SentMessages, sim[r].SentBytes)
					}
				}
			})
		}
	}
}
