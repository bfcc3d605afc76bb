package tune

import (
	"math"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/model"
)

// scorer evaluates candidates in closed form, every algorithm by
// internal/model: the SUMMA family — SUMMA, HSUMMA and multilevel — by
// model.Family over the spec's hierarchy (engine.Spec.Hierarchy), the
// paper's Tables I–II generalised to rectangular problems on S×T grids and
// any number of levels, which on a square problem scores exactly what
// model.SUMMA and model.HSUMMA do (asserted in the model and tune package
// tests); Cannon and Fox by model.Cannon and model.Fox, priced from the
// messages their schedules send. Every broadcast is priced by equation (1)
// (model.For: Table I's binomial, Table II's Van de Geijn) at whole
// communicator sizes: Van de Geijn's scatter at the ⌈log₂q⌉ rounds its
// schedule takes, which makes its price exact on every grid, the binomial
// tree at log₂q, exact on power-of-two sides (see replayed).
type scorer struct {
	sh matrix.Shape
	m  machine.Model
}

// score returns the candidate's closed-form (comm, total) in seconds, at
// the shape it would actually execute: the requested shape rounded up to
// the candidate's divisibility constraints (identity on dividing shapes).
// Scoring the padded shape keeps the ranking honest on non-dividing
// problems, where candidates with different blocks pad by different
// amounts, and is what makes the score equal the event engine's there. A
// candidate that cannot execute the shape at all ranks last.
func (s *scorer) score(c Candidate) (comm, total float64) {
	spec, err := c.Spec(s.sh)
	if err != nil {
		return math.Inf(1), math.Inf(1)
	}
	bcast, shift, gemm := s.phases(spec)
	comm = bcast + shift
	return comm, comm + gemm
}

// phases evaluates the spec's closed-form cost on the trace phase
// vocabulary: the comm term split across bcast / shift exactly as the
// transports would record it (SUMMA-family traffic is all broadcast
// rounds, Cannon all SendRecv shifts, Fox broadcasts plus a roll shift per
// step), and the compute term as gemm. score ranks by their sum and
// predictPhases publishes them, so a plan's prediction and its ranking
// cannot disagree on what the model said.
func (s *scorer) phases(spec engine.Spec) (bcast, shift, gemm float64) {
	o, sh := spec.Opts, spec.Shape()
	rp := model.RectParams{Shape: sh, Grid: o.Grid, B: o.BlockSize, Machine: s.m, Bcast: model.For(o.Broadcast)}
	levels, family := spec.Hierarchy()
	switch {
	case family:
		ml := make([]model.Level, len(levels))
		for i, lv := range levels {
			ml[i] = model.Level{I: float64(lv.I), J: float64(lv.J), Width: float64(lv.BlockSize)}
		}
		bcast = model.Family(rp, ml).Comm()
	case spec.Algorithm == engine.Cannon:
		shift = model.Cannon(rp).Comm()
	case spec.Algorithm == engine.Fox:
		bc, roll := model.Fox(rp)
		bcast, shift = bc.Comm(), roll.Comm()
	}

	// Intra-rank threads shorten the local multiplies by the shared
	// parallel-efficiency curve — the same factor the virtual engines
	// charge, so closed-form and simulated rankings agree on the hybrid
	// trade-off. Speedup(1) is exactly 1, leaving serial scores bitwise
	// unchanged.
	p := float64(o.Grid.Size())
	gemm = s.m.Compute(2 * float64(sh.M) * float64(sh.N) * float64(sh.K) / p / machine.Speedup(o.Threads))
	return bcast, shift, gemm
}

// predictPhases returns the spec's phases as the map a plan and a
// resolved spec carry (zero phases omitted); the fidelity tests compare
// it against traced virtual runs.
func (s *scorer) predictPhases(spec engine.Spec) map[string]float64 {
	bcast, shift, gemm := s.phases(spec)
	out := make(map[string]float64, 3)
	for _, ph := range []struct {
		name string
		sec  float64
	}{{"bcast", bcast}, {"shift", shift}, {"gemm", gemm}} {
		if ph.sec > 0 {
			out[ph.name] = ph.sec
		}
	}
	return out
}
