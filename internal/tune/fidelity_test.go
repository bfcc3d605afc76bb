package tune

import (
	"math"
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
// what a traced event-engine run of the same spec on the same machine
// actually measures — per phase, on the critical rank — for all five
// algorithms. On this power-of-two grid every phase, comm included, is
// exact up to floating-point association (1e-12 relative).
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
			vcfg := simnet.VConfig{Model: pf.Model, Trace: trace.New(spec.Opts.Grid.Size())}
			if _, _, err := engine.Simulate(spec, vcfg, engine.ExecutorEvent); err != nil {
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
					t.Fatalf("predicted phase %q (%.3gs) has no measured spans (measured %v)", ph, pred, measured)
				}
				if ratio := got / pred; math.Abs(ratio-1) > 1e-12 {
					t.Errorf("phase %q measured/predicted = %.15f (measured %.15gs, predicted %.15gs), want 1 within 1e-12",
						ph, ratio, got, pred)
				}
			}
		})
	}
}
