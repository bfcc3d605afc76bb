package tune

import (
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/topo"
)

// scorer evaluates candidates in closed form. The SUMMA family — SUMMA,
// HSUMMA and multilevel — has one cost: model.Family over the spec's
// hierarchy (engine.Spec.Hierarchy), the paper's Tables I–II generalised
// to rectangular problems on S×T grids and any number of levels, which on
// a square problem scores exactly what model.SUMMA and model.HSUMMA do
// (asserted in the model and tune package tests). The baselines carry
// their own short formulas below; every broadcast is priced by the
// paper's own equation-(1) factors (model.For: Table I's binomial,
// Table II's Van de Geijn).
type scorer struct {
	sh matrix.Shape
	m  machine.Model
}

// bcastStep returns the cost of broadcasting elems matrix elements over a
// communicator of p ranks under the candidate's broadcast model.
func (s *scorer) bcastStep(bc model.Broadcast, p, elems float64) float64 {
	if p <= 1 {
		return 0
	}
	return bc.Latency(p)*s.m.Alpha + elems*bc.Bandwidth(p)*s.m.Beta
}

// familyComm is the SUMMA family's communication cost for a hierarchy on
// the given problem and grid under the knobs' block and broadcast.
func (s *scorer) familyComm(sh matrix.Shape, g topo.Grid, k core.Knobs, levels []core.Level) float64 {
	ml := make([]model.Level, len(levels))
	for i, lv := range levels {
		ml[i] = model.Level{I: float64(lv.I), J: float64(lv.J), Width: float64(lv.BlockSize)}
	}
	return model.Family(model.RectParams{
		Shape: sh, Grid: g, B: k.BlockSize,
		Machine: s.m, Bcast: model.For(k.Broadcast),
	}, ml).Comm()
}

// score returns the candidate's analytic (comm, total) in seconds, at the
// shape it would actually execute: the requested shape rounded up to the
// candidate's divisibility constraints (identity on dividing shapes).
// Scoring the padded shape keeps the stage-1 ranking honest on
// non-dividing problems, where candidates with different blocks pad by
// different amounts and an analytic-only plan has no stage-2 run to
// correct it. A candidate that cannot execute the shape at all ranks last.
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
	N := float64(sh.N)
	p := float64(o.Grid.Size())
	q := float64(o.Grid.S) // the square-only baselines' grid side
	tile := N * N / p      // and their per-rank tile, in elements

	levels, family := spec.Hierarchy()
	switch {
	case family:
		bcast = s.familyComm(sh, o.Grid, o.Knobs, levels)
	case spec.Algorithm == engine.Cannon:
		// q−1 alignment shifts amortise into the q compute-step shifts on
		// the virtual transport's full-duplex rendezvous; charge 2 transfers
		// of the n²/p tile per step plus one alignment round each way.
		// (Square-only: the enumeration never proposes Cannon otherwise.)
		shift = 2 * (q + 1) * (s.m.Alpha + tile*s.m.Beta)
	case spec.Algorithm == engine.Fox:
		bcast = q * s.bcastStep(model.For(o.Broadcast), q, tile)
		shift = q * (s.m.Alpha + tile*s.m.Beta)
	}

	// Intra-rank threads shorten the local multiplies by the shared
	// parallel-efficiency curve — the same factor the virtual engines
	// charge, so analytic and simulated rankings agree on the hybrid
	// trade-off. Speedup(1) is exactly 1, leaving serial scores bitwise
	// unchanged. Specs running the sub-cubic local kernel charge the flops
	// the virtual transports would — the historical 2MNK/p expression is
	// kept bitwise intact for everything else.
	if o.LocalStrassen {
		gemm = s.localKernelCompute(spec)
	} else {
		gemm = s.m.Compute(2 * float64(sh.M) * N * float64(sh.K) / p / machine.Speedup(o.Threads))
	}
	return bcast, shift, gemm
}

// predictPhases returns the spec's phases as the map a plan and a
// resolved spec carry (zero phases omitted) — the denominator of the
// serving layer's measured/predicted drift tracking; the fidelity tests
// compare it against traced virtual runs.
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

// localKernelCompute charges a classic algorithm's local multiplies
// through the sub-cubic kernel descriptor: the same per-step flop counts
// the virtual transports record, so the analytic ranking sees the local
// kernel's win exactly where the simulation does.
func (s *scorer) localKernelCompute(spec engine.Spec) float64 {
	o, sh := spec.Opts, spec.Shape()
	x := o.Exec()
	var flops float64
	switch spec.Algorithm {
	case engine.Cannon, engine.Fox:
		q := o.Grid.S
		t := sh.N / q
		flops = float64(q) * x.Flops(t, t, t)
	default: // SUMMA family: K/b rank-b updates of the (M/S)×(N/T) tile
		b := o.BlockSize
		if b <= 0 {
			b = 1
		}
		flops = float64(sh.K/b) * x.Flops(sh.M/o.Grid.S, sh.N/o.Grid.T, b)
	}
	return s.m.Compute(flops / machine.Speedup(o.Threads))
}
