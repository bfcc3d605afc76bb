package tune

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// TestPredictPhasesFidelity is the plan-fidelity invariant: the closed-form
// per-phase prediction ResolveSpec attaches to every spec must agree with
// what a traced virtual run of the same spec on the same machine actually
// measures — per phase, on the critical rank — for all five algorithms.
// Comm phases get a 2x band (the model is a critical-path decomposition,
// the schedule has waits the model folds differently); gemm is charged from
// the identical formula on both sides and must match tightly.
func TestPredictPhasesFidelity(t *testing.T) {
	pf := machine.Grid5000()
	shape := matrix.Shape{M: 256, N: 256, K: 256}
	cases := []struct {
		name string
		rp   ResolveParams
	}{
		{"summa", ResolveParams{Shape: shape, Procs: 16, Algorithm: engine.SUMMA, BlockSize: 32}},
		{"hsumma", ResolveParams{Shape: shape, Procs: 16, Algorithm: engine.HSUMMA, BlockSize: 32, Groups: 4}},
		{"multilevel", ResolveParams{Shape: shape, Procs: 16, Algorithm: engine.Multilevel, BlockSize: 32,
			Levels: []core.Level{{I: 2, J: 2, BlockSize: 32}}}},
		{"cannon", ResolveParams{Shape: shape, Procs: 16, Algorithm: engine.Cannon}},
		{"fox", ResolveParams{Shape: shape, Procs: 16, Algorithm: engine.Fox}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ResolveSpec(tc.rp)
			if err != nil {
				t.Fatal(err)
			}
			if len(spec.Predicted) == 0 {
				t.Fatal("ResolveSpec attached no prediction")
			}
			for _, ex := range []engine.Executor{engine.ExecutorGoroutine, engine.ExecutorEvent} {
				vcfg := simnet.VConfig{Model: pf.Model, Trace: trace.New(spec.Opts.Grid.Size())}
				if _, _, err := engine.Simulate(spec, vcfg, ex); err != nil {
					t.Fatal(err)
				}
				// Measured side: the critical (max over ranks) per-phase
				// seconds of the virtual timeline — the same quantity the
				// prediction decomposes.
				measured := map[string]float64{}
				for _, phases := range trace.RankPhaseSeconds(vcfg.Trace.Spans()) {
					for ph, sec := range phases {
						if sec > measured[ph] {
							measured[ph] = sec
						}
					}
				}
				for ph, pred := range spec.Predicted {
					got, ok := measured[ph]
					if !ok || got <= 0 {
						t.Fatalf("%s: predicted phase %q (%.3gs) has no measured spans (measured %v)",
							ex, ph, pred, measured)
					}
					ratio := got / pred
					lo, hi := 0.5, 2.0
					if ph == "gemm" {
						// Both sides charge m.Compute(2MNK/p) — only padding
						// and FP association separate them.
						lo, hi = 0.99, 1.01
					}
					if ratio < lo || ratio > hi {
						t.Errorf("%s: phase %q measured/predicted = %.3f (measured %.3gs, predicted %.3gs), want within [%g, %g]",
							ex, ph, ratio, got, pred, lo, hi)
					}
				}
			}
		})
	}
}
