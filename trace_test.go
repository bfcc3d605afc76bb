package hsumma

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestPhaseStatsConsistency checks the always-on per-phase aggregation:
// the phase breakdown must sum to the critical rank's communication time,
// local multiplies must be timed, and the busy-imbalance ratio is max/mean
// so it can never drop below 1.
func TestPhaseStatsConsistency(t *testing.T) {
	n := 64
	a := RandomMatrix(n, n, 11)
	b := RandomMatrix(n, n, 12)
	_, st, err := Multiply(a, b, Config{Procs: 4, Algorithm: AlgHSUMMA, BlockSize: 16, Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, sec := range st.CommSecondsByPhase {
		sum += sec
	}
	if math.Abs(sum-st.MaxRankCommSeconds) > 1e-9+1e-9*st.MaxRankCommSeconds {
		t.Fatalf("phase breakdown sums to %g, MaxRankCommSeconds is %g", sum, st.MaxRankCommSeconds)
	}
	if st.GemmSeconds <= 0 {
		t.Fatalf("GemmSeconds = %g, want > 0", st.GemmSeconds)
	}
	if st.BusyImbalance < 1 {
		t.Fatalf("BusyImbalance = %g, want >= 1", st.BusyImbalance)
	}
	if _, ok := st.CommSecondsByPhase["bcast"]; !ok {
		t.Fatalf("HSUMMA phase breakdown %v has no bcast entry", st.CommSecondsByPhase)
	}
}

// TestMultiplyTracedMatchesUntraced is the zero-cost-when-disabled
// contract's correctness half: tracing must only observe the run, so the
// traced product is bit-identical to the untraced one.
func TestMultiplyTracedMatchesUntraced(t *testing.T) {
	n := 48
	a := RandomMatrix(n, n, 21)
	b := RandomMatrix(n, n, 22)
	cfg := Config{Procs: 4, Algorithm: AlgHSUMMA, BlockSize: 8, Groups: 2}
	plain, stPlain, err := Multiply(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	traced, stTraced, rec, err := MultiplyTraced(a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(plain, traced); d != 0 {
		t.Fatalf("traced result differs from untraced by %g, want bit-identical", d)
	}
	if stPlain.Messages != stTraced.Messages || stPlain.Bytes != stTraced.Bytes {
		t.Fatalf("traced traffic %d msgs/%d bytes, untraced %d/%d",
			stTraced.Messages, stTraced.Bytes, stPlain.Messages, stPlain.Bytes)
	}
	if rec == nil {
		t.Fatal("MultiplyTraced returned a nil recorder")
	}
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	seenGemm, seenHost := false, false
	for _, sp := range spans {
		if sp.Phase == trace.PhaseGemm {
			seenGemm = true
		}
		if sp.Rank == trace.HostRank {
			seenHost = true
		}
	}
	if !seenGemm || !seenHost {
		t.Fatalf("trace missing expected spans (gemm=%v, host=%v)", seenGemm, seenHost)
	}
}

// TestSimulateTraceBitIdentical checks the virtual half of the contract:
// enabling tracing must not move a single virtual clock.
func TestSimulateTraceBitIdentical(t *testing.T) {
	for _, eng := range []Engine{EngineGoroutine, EngineEvent} {
		base := SimConfig{
			N: 256, Procs: 16, Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 32,
			Machine: PlatformGrid5000().Model, Engine: eng,
		}
		plain, err := Simulate(base)
		if err != nil {
			t.Fatal(err)
		}
		tracedCfg := base
		tracedCfg.Trace = true
		traced, err := Simulate(tracedCfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Total != traced.Total || plain.Comm != traced.Comm {
			t.Fatalf("%v: tracing moved the virtual clocks: total %v -> %v, comm %v -> %v",
				eng, plain.Total, traced.Total, plain.Comm, traced.Comm)
		}
		if plain.Messages != traced.Messages || plain.Bytes != traced.Bytes {
			t.Fatalf("%v: tracing changed traffic", eng)
		}
		if traced.Trace == nil {
			t.Fatalf("%v: SimConfig.Trace set but SimResult.Trace is nil", eng)
		}
		if plain.Trace != nil {
			t.Fatalf("%v: untraced run returned a recorder", eng)
		}
	}
}

// TestSpanCountParityLiveVsVirtual pins the structural invariant behind
// the whole tracing design: a live run and a virtual run of the same
// configuration execute the same communication schedule, so they must
// record the same number of spans per (rank, phase) — for every algorithm
// and on both virtual engines. Durations differ (wall vs Hockney time);
// the span structure may not.
func TestSpanCountParityLiveVsVirtual(t *testing.T) {
	n := 64
	a := RandomMatrix(n, n, 31)
	b := RandomMatrix(n, n, 32)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"summa", Config{Procs: 4, Algorithm: AlgSUMMA, BlockSize: 16}},
		{"hsumma", Config{Procs: 4, Algorithm: AlgHSUMMA, BlockSize: 16, Groups: 2}},
		{"multilevel", Config{Procs: 4, Algorithm: AlgMultilevel, BlockSize: 16,
			Levels: []Level{{I: 2, J: 2, BlockSize: 16}}}},
		{"cannon", Config{Procs: 4, Algorithm: AlgCannon}},
		{"fox", Config{Procs: 4, Algorithm: AlgFox}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, rec, err := MultiplyTraced(a, b, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := rankCounts(rec)
			sim := SimConfig{
				N: n, Procs: tc.cfg.Procs, Algorithm: tc.cfg.Algorithm,
				Groups: tc.cfg.Groups, BlockSize: tc.cfg.BlockSize,
				Levels:  tc.cfg.Levels,
				Machine: PlatformGrid5000().Model, Trace: true,
			}
			for _, eng := range []Engine{EngineGoroutine, EngineEvent} {
				sim.Engine = eng
				res, err := Simulate(sim)
				if err != nil {
					t.Fatal(err)
				}
				virt := rankCounts(res.Trace)
				if len(virt) != len(live) {
					t.Fatalf("%v: %d (rank,phase) buckets, live has %d\nlive: %v\nvirt: %v",
						eng, len(virt), len(live), live, virt)
				}
				for key, want := range live {
					if got := virt[key]; got != want {
						t.Fatalf("%v: rank %d phase %v: %d spans, live recorded %d",
							eng, key.Rank, key.Phase, got, want)
					}
				}
			}
		})
	}
}

// TestVirtualEnginesRecordIdenticalSpans holds the two virtual engines to
// the same trace span for span: every rank's timeline — phase, start,
// duration, bytes, messages, threads — is bit-identical between the
// goroutine and the event engine, on two platforms, with and without link
// contention, for every algorithm family.
func TestVirtualEnginesRecordIdenticalSpans(t *testing.T) {
	cases := []struct {
		name string
		cfg  SimConfig
	}{
		{"summa", SimConfig{Algorithm: AlgSUMMA}},
		{"hsumma", SimConfig{Algorithm: AlgHSUMMA, Groups: 4, Broadcast: BcastVanDeGeijn}},
		{"multilevel", SimConfig{Algorithm: AlgMultilevel, Levels: []Level{{I: 2, J: 2, BlockSize: 32}}}},
		{"cannon", SimConfig{Algorithm: AlgCannon}},
		{"fox", SimConfig{Algorithm: AlgFox}},
	}
	platforms := []struct {
		name string
		pf   Platform
	}{
		{"grid5000", PlatformGrid5000()},
		{"bgp-cal", PlatformBGPCalibrated()},
	}
	for _, tc := range cases {
		for _, pl := range platforms {
			for _, contention := range []bool{false, true} {
				name := tc.name + "/" + pl.name
				if contention {
					name += "/contention"
				}
				t.Run(name, func(t *testing.T) {
					pf := pl.pf
					cfg := tc.cfg
					cfg.N, cfg.Procs, cfg.BlockSize = 256, 16, 16
					cfg.Machine, cfg.Platform, cfg.Contention = pf.Model, &pf, contention
					cfg.Trace = true
					var spans [2][]trace.Span
					for i, eng := range []Engine{EngineGoroutine, EngineEvent} {
						cfg.Engine = eng
						res, err := Simulate(cfg)
						if err != nil {
							t.Fatal(err)
						}
						spans[i] = res.Trace.Spans()
					}
					if len(spans[0]) == 0 {
						t.Fatal("no spans recorded")
					}
					if !reflect.DeepEqual(spans[0], spans[1]) {
						if len(spans[0]) != len(spans[1]) {
							t.Fatalf("goroutine recorded %d spans, event %d", len(spans[0]), len(spans[1]))
						}
						for i := range spans[0] {
							if spans[0][i] != spans[1][i] {
								t.Fatalf("span %d: goroutine %+v, event %+v", i, spans[0][i], spans[1][i])
							}
						}
					}
				})
			}
		}
	}
}

// TestCriticalPathWallFidelity pins the critical-path report's core
// invariant on both execution paths, for every algorithm: the report's
// wall equals the run it analysed. On the virtual engines that equality
// is exact — the simulated total *is* the latest span end. On the live
// path the trace epoch opens after spec resolution, so the critical path
// covers most, but never more, of Stats.WallSeconds.
func TestCriticalPathWallFidelity(t *testing.T) {
	n := 64
	a := RandomMatrix(n, n, 41)
	b := RandomMatrix(n, n, 42)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"summa", Config{Procs: 4, Algorithm: AlgSUMMA, BlockSize: 16}},
		{"hsumma", Config{Procs: 4, Algorithm: AlgHSUMMA, BlockSize: 16, Groups: 2}},
		{"multilevel", Config{Procs: 4, Algorithm: AlgMultilevel, BlockSize: 16,
			Levels: []Level{{I: 2, J: 2, BlockSize: 16}}}},
		{"cannon", Config{Procs: 4, Algorithm: AlgCannon}},
		{"fox", Config{Procs: 4, Algorithm: AlgFox}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, st, rec, err := MultiplyTraced(a, b, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := CriticalPath(rec)
			if rep == nil || rep.WallSeconds <= 0 {
				t.Fatalf("live critical path = %+v, want positive wall", rep)
			}
			if rep.WallSeconds > st.WallSeconds*1.01 {
				t.Fatalf("live critical-path wall %.6fs exceeds Stats.WallSeconds %.6fs",
					rep.WallSeconds, st.WallSeconds)
			}
			if rep.WallSeconds < 0.25*st.WallSeconds {
				t.Fatalf("live critical-path wall %.6fs covers under a quarter of Stats.WallSeconds %.6fs",
					rep.WallSeconds, st.WallSeconds)
			}

			sim := SimConfig{
				N: 256, Procs: 16, Algorithm: tc.cfg.Algorithm,
				Groups: tc.cfg.Groups, BlockSize: 32,
				Machine: PlatformGrid5000().Model, Trace: true,
			}
			if tc.cfg.Algorithm == AlgMultilevel {
				sim.Levels = []Level{{I: 2, J: 2, BlockSize: 32}}
			}
			if tc.cfg.Algorithm == AlgCannon || tc.cfg.Algorithm == AlgFox {
				sim.BlockSize = 0 // whole-tile algorithms
			}
			for _, eng := range []Engine{EngineGoroutine, EngineEvent} {
				sim.Engine = eng
				res, err := Simulate(sim)
				if err != nil {
					t.Fatal(err)
				}
				srep := CriticalPath(res.Trace)
				if srep == nil {
					t.Fatalf("%v: no critical path over the simulated trace", eng)
				}
				if diff := math.Abs(srep.WallSeconds - res.Total); diff > 1e-9*res.Total {
					t.Fatalf("%v: simulated critical-path wall %.12f != Result.Total %.12f (diff %g)",
						eng, srep.WallSeconds, res.Total, diff)
				}
				// Busy + wait always reconstructs the wall, and the gating
				// rank's dominant phase carries real time.
				for _, ra := range srep.Ranks {
					if math.Abs(ra.BusySeconds+ra.WaitSeconds-srep.WallSeconds) > 1e-9*srep.WallSeconds {
						t.Fatalf("%v: rank %d busy %.9f + wait %.9f != wall %.9f",
							eng, ra.Rank, ra.BusySeconds, ra.WaitSeconds, srep.WallSeconds)
					}
				}
				if srep.GatingPhaseSeconds <= 0 {
					t.Fatalf("%v: gating phase %q carries no time", eng, srep.GatingPhase)
				}
			}
		})
	}
}

// rankCounts projects a recorder's span counts onto rank-owned spans only
// (the host timeline exists only on the live path by design).
func rankCounts(rec *Trace) map[trace.CountKey]int {
	out := make(map[trace.CountKey]int)
	for key, n := range rec.Counts() {
		if key.Rank >= 0 {
			out[key] = n
		}
	}
	return out
}
