package hsumma

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`), plus ablation benches for
// the knobs the paper only names (broadcast, block sizes, group shape,
// contention, multilevel). Figure benches execute the full paper-scale
// simulation once per iteration and report the regenerated headline
// quantities as custom metrics (seconds of simulated time), so the bench
// output doubles as the reproduction record; `hsumma-run exp <id>`
// prints the same experiments with the paper's values beside ours.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// benchExperiment runs a registered experiment at full fidelity and
// reports its first series' minimum as a metric.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var res *exp.Result
	for i := 0; i < b.N; i++ {
		rs, err := exp.Run([]string{id}, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res = rs[0]
	}
	if res != nil && len(res.Series) > 0 {
		min := res.Series[0].Y[0]
		for _, y := range res.Series[0].Y {
			if y < min {
				min = y
			}
		}
		b.ReportMetric(min, "best_"+sanitize(res.Series[0].Name)+"_s")
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

// BenchmarkTable1 regenerates Table I (binomial-tree cost comparison).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table II (Van de Geijn cost comparison).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig5 regenerates Figure 5 (Grid'5000 G sweep, b=64).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (Grid'5000 G sweep, b=512).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (Grid'5000 scalability).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (BG/P 16384-core G sweep).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (BG/P scalability 2048→16384).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (exascale prediction).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkHeadline regenerates the §VI headline ratios.
func BenchmarkHeadline(b *testing.B) { benchExperiment(b, "headline") }

// BenchmarkRuntimeSUMMA and siblings measure the *real* in-process runtime
// (goroutine ranks moving real matrix blocks) — wall-clock numbers for the
// correctness path, n=256 on 16 ranks.
func benchRuntime(b *testing.B, cfg Config) {
	b.Helper()
	n := 256
	a := RandomMatrix(n, n, 1)
	bb := RandomMatrix(n, n, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Multiply(a, bb, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeSUMMA measures real SUMMA on the goroutine runtime.
func BenchmarkRuntimeSUMMA(b *testing.B) {
	benchRuntime(b, Config{Procs: 16, Algorithm: AlgSUMMA, BlockSize: 32})
}

// BenchmarkRuntimeHSUMMA measures real HSUMMA (G=4) on the runtime.
func BenchmarkRuntimeHSUMMA(b *testing.B) {
	benchRuntime(b, Config{Procs: 16, Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 32})
}

// BenchmarkRuntimeCannon measures the Cannon baseline on the runtime.
func BenchmarkRuntimeCannon(b *testing.B) {
	benchRuntime(b, Config{Procs: 16, Algorithm: AlgCannon})
}

// BenchmarkRuntimeFox measures the Fox baseline on the runtime.
func BenchmarkRuntimeFox(b *testing.B) {
	benchRuntime(b, Config{Procs: 16, Algorithm: AlgFox})
}

// --- Ablations ---

// simHSUMMA simulates HSUMMA on the square n problem over hierarchy h with
// the given knobs — the spec every simulated ablation below varies one
// field of.
func simHSUMMA(n int, h topo.Hier, kn core.Knobs, vcfg simnet.VConfig, ex Engine) (engine.SimResult, error) {
	spec := engine.Spec{Algorithm: AlgHSUMMA, Opts: core.Options{N: n, Grid: h.Grid, Groups: h, Knobs: kn}}
	res, _, err := engine.Simulate(spec, vcfg, ex)
	return res, err
}

// BenchmarkAblationBroadcast compares broadcast algorithms inside the
// simulated BG/P HSUMMA at the paper's configuration.
func BenchmarkAblationBroadcast(b *testing.B) {
	g := topo.Grid{S: 128, T: 128}
	h, _ := topo.FactorGroups(g, 128)
	for _, alg := range sched.Algorithms() {
		alg := alg
		b.Run(string(alg), func(b *testing.B) {
			var comm float64
			for i := 0; i < b.N; i++ {
				res, err := simHSUMMA(65536, h, core.Knobs{BlockSize: 256, Broadcast: alg},
					simnet.VConfig{Model: machine.BlueGenePCalibrated().Model}, EngineAuto)
				if err != nil {
					b.Fatal(err)
				}
				comm = res.Comm
			}
			b.ReportMetric(comm, "sim_comm_s")
		})
	}
}

// BenchmarkAblationBlockSize sweeps the paper's b on the simulated BG/P.
func BenchmarkAblationBlockSize(b *testing.B) {
	g := topo.Grid{S: 128, T: 128}
	h, _ := topo.FactorGroups(g, 128)
	for _, blk := range []int{64, 128, 256, 512} {
		blk := blk
		b.Run(itoa(blk), func(b *testing.B) {
			var comm float64
			for i := 0; i < b.N; i++ {
				res, err := simHSUMMA(65536, h, core.Knobs{BlockSize: blk, Broadcast: sched.VanDeGeijn},
					simnet.VConfig{Model: machine.BlueGenePCalibrated().Model}, EngineAuto)
				if err != nil {
					b.Fatal(err)
				}
				comm = res.Comm
			}
			b.ReportMetric(comm, "sim_comm_s")
		})
	}
}

// BenchmarkAblationGroupShape compares square vs skewed group arrangements
// at the same G.
func BenchmarkAblationGroupShape(b *testing.B) {
	g := topo.Grid{S: 128, T: 128}
	shapes := map[string][2]int{
		"square_16x16": {16, 16},
		"skewed_4x64":  {4, 64},
		"skewed_64x4":  {64, 4},
	}
	for name, ij := range shapes {
		name, ij := name, ij
		b.Run(name, func(b *testing.B) {
			h, err := topo.NewHier(g, ij[0], ij[1])
			if err != nil {
				b.Fatal(err)
			}
			var comm float64
			for i := 0; i < b.N; i++ {
				res, err := simHSUMMA(65536, h, core.Knobs{BlockSize: 256, Broadcast: sched.VanDeGeijn},
					simnet.VConfig{Model: machine.BlueGenePCalibrated().Model}, EngineAuto)
				if err != nil {
					b.Fatal(err)
				}
				comm = res.Comm
			}
			b.ReportMetric(comm, "sim_comm_s")
		})
	}
}

// BenchmarkAblationContention toggles the link-sharing model on the BG/P
// torus (the paper assumes none).
func BenchmarkAblationContention(b *testing.B) {
	pf := machine.BlueGeneP()
	g := topo.Grid{S: 64, T: 64}
	h, _ := topo.FactorGroups(g, 64)
	for _, on := range []bool{false, true} {
		on := on
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			vcfg := simnet.VConfig{Model: pf.Model}
			if on {
				vcfg.Contention = simnet.ContentionFor(pf, g.Size(), true)
			}
			var comm float64
			for i := 0; i < b.N; i++ {
				res, err := simHSUMMA(16384, h, core.Knobs{BlockSize: 256, Broadcast: sched.VanDeGeijn}, vcfg, EngineAuto)
				if err != nil {
					b.Fatal(err)
				}
				comm = res.Comm
			}
			b.ReportMetric(comm, "sim_comm_s")
		})
	}
}

// BenchmarkAblationInnerOuterBlock compares b=B against b<B (paper §III:
// "the block size inside a group should be less than or equal to the block
// size between groups").
func BenchmarkAblationInnerOuterBlock(b *testing.B) {
	g := topo.Grid{S: 128, T: 128}
	h, _ := topo.FactorGroups(g, 128)
	for _, c := range []struct {
		name string
		b, B int
	}{{"b256_B256", 256, 256}, {"b64_B256", 64, 256}, {"b64_B512", 64, 512}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var comm float64
			for i := 0; i < b.N; i++ {
				res, err := simHSUMMA(65536, h, core.Knobs{BlockSize: c.b, OuterBlockSize: c.B, Broadcast: sched.VanDeGeijn},
					simnet.VConfig{Model: machine.BlueGenePCalibrated().Model}, EngineAuto)
				if err != nil {
					b.Fatal(err)
				}
				comm = res.Comm
			}
			b.ReportMetric(comm, "sim_comm_s")
		})
	}
}

// BenchmarkAblationMultilevel compares the real-runtime message counts of
// flat SUMMA, two-level and three-level hierarchies (paper §VI future
// work) on a 64-rank grid.
func BenchmarkAblationMultilevel(b *testing.B) {
	n := 128
	a := RandomMatrix(n, n, 1)
	bb := RandomMatrix(n, n, 2)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{Procs: 64, Algorithm: AlgMultilevel, BlockSize: 4}},
		{"two_level", Config{Procs: 64, Algorithm: AlgMultilevel, BlockSize: 4,
			Levels: []Level{{I: 2, J: 2, BlockSize: 8}}}},
		{"three_level", Config{Procs: 64, Algorithm: AlgMultilevel, BlockSize: 4,
			Levels: []Level{{I: 2, J: 2, BlockSize: 16}, {I: 2, J: 2, BlockSize: 8}}}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				_, st, err := Multiply(a, bb, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				msgs = st.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// fullScaleBGP runs the paper's Figure 8 configuration (p=16384, n=65536)
// on the calibrated BG/P — the workload the execution engines are
// benchmarked on.
func fullScaleBGP(b *testing.B, ex Engine) {
	b.Helper()
	h, err := topo.FactorGroups(topo.Grid{S: 128, T: 128}, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simHSUMMA(65536, h, core.Knobs{BlockSize: 256, Broadcast: sched.VanDeGeijn},
			simnet.VConfig{Model: machine.BlueGenePCalibrated().Model}, ex); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullScaleBGPSim measures the host wall time of one full
// paper-scale BG/P virtual run on the goroutine engine (one goroutine
// per rank, sharded collective rendezvous). The pre-shard baseline on a
// single core was ~17 s per run; sharding brought it to ~14 s; the
// remaining cost is the ~15M goroutine park/wake rendezvous, which is
// what the event engine (see the Event twin below) eliminates.
// allocs/op tracks the GC pressure the simnet pools keep bounded.
func BenchmarkFullScaleBGPSim(b *testing.B) { fullScaleBGP(b, EngineGoroutine) }

// BenchmarkFullScaleBGPSimEvent is the event-engine twin of
// BenchmarkFullScaleBGPSim: the same run on internal/evsim (one recorded
// program per stream class, single-threaded replay by every member),
// bit-identical results at a fraction of the wall time (the benchmark's
// sim_bgp workload records both engines at p=2048 on every PR, as
// evsim.sim_ms / simnet.sim_ms).
func BenchmarkFullScaleBGPSimEvent(b *testing.B) { fullScaleBGP(b, EngineEvent) }

// BenchmarkSimBGP2048Event is the benchmark's sim_bgp operation in
// process: the paper's BG/P point n=65536 p=2048 (HSUMMA G=32, b=256,
// Van de Geijn broadcast, calibrated BG/P) on the event engine, the one
// auto picks there. Run it with -benchmem and -cpuprofile to look inside
// the engine at the size the suite times.
func BenchmarkSimBGP2048Event(b *testing.B) {
	bgp := PlatformBGPCalibrated()
	cfg := SimConfig{N: 65536, Procs: 2048, Algorithm: AlgHSUMMA, Groups: 32, BlockSize: 256,
		Broadcast: BcastVanDeGeijn, Platform: &bgp, Engine: EngineEvent}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanColdVsCached quantifies what the plan cache buys: a cold
// plan pays the closed-form scan (and, off power-of-two grids, a few
// event-engine replays), a cached one a map lookup — the serving-workload
// property the planner is memoised for.
func BenchmarkPlanColdVsCached(b *testing.B) {
	cfg := PlanConfig{Platform: PlatformGrid5000(), N: 512, Procs: 16}
	b.Run("cold", func(b *testing.B) {
		cfg := cfg
		cfg.NoCache = true
		for i := 0; i < b.N; i++ {
			if _, err := Plan(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := Plan(cfg); err != nil {
			b.Fatal(err) // warm the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl, err := Plan(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if !pl.FromCache {
				b.Fatal("expected a cache hit")
			}
		}
	})
}

// BenchmarkModelEvaluation measures the closed-form evaluation itself.
func BenchmarkModelEvaluation(b *testing.B) {
	par := model.Params{N: 1 << 22, P: 1 << 20, B: 256,
		Machine: machine.Exascale().Model, Bcast: model.VanDeGeijn{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = model.HSUMMA(par, 1024).Comm()
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
