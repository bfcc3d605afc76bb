package tune

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hockney"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/topo"
)

// scorer evaluates candidates with the closed-form broadcast models of
// internal/model generalised to rectangular problems on rectangular S×T
// grids (the paper's tables assume n×n on √p×√p): SUMMA and HSUMMA score
// through model.SUMMARect/HSUMMARect, which reduce bit-exactly to
// model.SUMMA and model.HSUMMA on square problems (asserted in the model
// and tune package tests), so a square request ranks exactly as before
// the generalisation. One scorer is built per plan so the
// schedule-derived broadcast factors are cached across the thousands of
// stage-1 evaluations.
type scorer struct {
	sh matrix.Shape
	m  hockney.Model
	// overlap scores total as max(comm, compute) instead of their sum.
	overlap bool
	bcasts  map[bcKey]model.Broadcast
}

type bcKey struct {
	alg      sched.Algorithm
	segments int
}

func newScorer(sh matrix.Shape, m hockney.Model, overlap bool) *scorer {
	return &scorer{sh: sh, m: m, overlap: overlap, bcasts: make(map[bcKey]model.Broadcast)}
}

// bcast returns the equation-(1) factors L(p), W(p) for a broadcast
// algorithm: the paper's closed forms where it states them (Tables I–II),
// schedule-derived factors (model.FromSchedule) for the rest — tying the
// planner's stage 1 to the exact schedules stage 2 executes.
func (s *scorer) bcast(alg sched.Algorithm, segments int) model.Broadcast {
	if alg == "" {
		alg = sched.Binomial
	}
	k := bcKey{alg, segments}
	if bc, ok := s.bcasts[k]; ok {
		return bc
	}
	var bc model.Broadcast
	switch alg {
	case sched.Binomial:
		bc = model.BinomialTree{}
	case sched.VanDeGeijn:
		bc = model.VanDeGeijn{}
	case sched.Flat:
		bc = model.FlatTree{}
	default:
		bc = model.NewFromSchedule(alg, segments)
	}
	s.bcasts[k] = bc
	return bc
}

// bcastStep returns the cost of broadcasting elems matrix elements over a
// communicator of p ranks under the candidate's broadcast model.
func (s *scorer) bcastStep(bc model.Broadcast, p, elems float64) float64 {
	if p <= 1 {
		return 0
	}
	return bc.Latency(p)*s.m.Alpha + elems*bc.Bandwidth(p)*s.m.Beta
}

// execShape returns the shape the candidate would actually execute: the
// requested shape rounded up to the candidate's divisibility constraints
// (identity on dividing shapes). Scoring the padded shape keeps the
// stage-1 ranking honest on non-dividing problems, where candidates with
// different blocks pad by different amounts and an analytic-only plan
// has no stage-2 run to correct it.
func (s *scorer) execShape(c Candidate) matrix.Shape {
	spec := engine.Spec{Algorithm: c.Algorithm, Opts: core.Options{Shape: s.sh, Grid: c.Grid, Knobs: c.Knobs}, Levels: c.Levels}
	padded, err := spec.PaddedShape()
	if err != nil {
		return s.sh // square-only rejection is handled by the enumeration
	}
	return padded
}

// score returns the candidate's analytic (comm, total) in seconds.
func (s *scorer) score(c Candidate) (comm, total float64) {
	sh := s.execShape(c)
	M := float64(sh.M)
	N := float64(sh.N)
	K := float64(sh.K)
	p := float64(c.Grid.Size())
	S := float64(c.Grid.S)
	T := float64(c.Grid.T)
	tileA := M / S // rows of the per-rank A panel (and C tile)
	tileB := N / T // cols of the per-rank B panel

	switch c.Algorithm {
	case engine.SUMMA:
		comm = model.SUMMARect(model.RectParams{
			Shape: sh, Grid: c.Grid, B: c.BlockSize,
			Machine: s.m, Bcast: s.bcast(c.Broadcast, c.Segments),
		}).Comm()

	case engine.HSUMMA:
		comm = model.HSUMMARect(model.RectParams{
			Shape: sh, Grid: c.Grid, B: c.BlockSize,
			Machine: s.m, Bcast: s.bcast(c.Broadcast, c.Segments),
		}, c.GroupShape[0], c.GroupShape[1], c.OuterBlockSize).Comm()

	case engine.Multilevel:
		bc := s.bcast(c.Broadcast, c.Segments)
		remS, remT := S, T
		for _, lv := range c.Levels {
			Bk := float64(lv.BlockSize)
			comm += (K / Bk) * (s.bcastStep(bc, float64(lv.J), tileA*Bk) + s.bcastStep(bc, float64(lv.I), Bk*tileB))
			remS /= float64(lv.I)
			remT /= float64(lv.J)
		}
		b := float64(c.BlockSize)
		comm += (K / b) * (s.bcastStep(bc, remT, tileA*b) + s.bcastStep(bc, remS, b*tileB))

	case engine.Cannon:
		// q−1 alignment shifts amortise into the q compute-step shifts on
		// the virtual transport's full-duplex rendezvous; charge 2 transfers
		// of the n²/p tile per step plus one alignment round each way.
		// (Square-only: the enumeration never proposes Cannon otherwise.)
		q := S
		tile := N * N / p
		shift := s.m.Alpha + tile*s.m.Beta
		comm = 2 * (q + 1) * shift

	case engine.Fox:
		bc := s.bcast(c.Broadcast, c.Segments)
		q := S
		tile := N * N / p
		comm = q * (s.bcastStep(bc, q, tile) + (s.m.Alpha + tile*s.m.Beta))

	case engine.Strassen:
		comm = s.strassenComm(c, sh)
	}

	// Intra-rank threads shorten the local multiplies by the shared
	// parallel-efficiency curve — the same factor the virtual engines
	// charge, so analytic and simulated rankings agree on the hybrid
	// trade-off. Speedup(1) is exactly 1, leaving serial scores bitwise
	// unchanged. Candidates running sub-cubic arithmetic (the strassen
	// algorithm and/or the local kernel) charge the flops the virtual
	// transports would — the historical 2MNK/p expression is kept bitwise
	// intact for everything else.
	var compute float64
	switch {
	case c.Algorithm == engine.Strassen:
		compute = s.strassenCompute(c, sh)
	case c.LocalStrassen:
		compute = s.localKernelCompute(c, sh)
	default:
		compute = s.m.Compute(2 * M * N * K / p / hockney.Speedup(c.Threads))
	}
	if s.overlap {
		total = comm
		if compute > total {
			total = compute
		}
	} else {
		total = comm + compute
	}
	return comm, total
}

// strassenLevelTraffic derives the per-level per-rank communication of the
// quadrant recursion from the same product table the execution walks
// (core.StrassenProducts): the critical-path rank's staged-term and
// contribution messages, and its axpy element count (operand assembly plus
// C combination). Every message carries one tile (n/s)² at every level.
func strassenLevelTraffic() (maxMsgs, maxAxpys int) {
	var msgs, axpys [4]int
	for _, p := range core.StrassenProducts() {
		for _, operand := range [][]core.StrassenTerm{p.A, p.B} {
			for _, t := range operand {
				if t.Q != p.Host {
					msgs[t.Q]++    // staged send
					msgs[p.Host]++ // staged receive
				}
			}
			axpys[p.Host] += len(operand) - 1 // first term is a copy
		}
		for _, t := range p.C {
			if t.Q != p.Host {
				msgs[p.Host]++ // contribution send
				msgs[t.Q]++    // contribution receive
			}
			axpys[t.Q]++ // every contribution lands as one axpy
		}
	}
	for q := 0; q < 4; q++ {
		if msgs[q] > maxMsgs {
			maxMsgs = msgs[q]
		}
		if axpys[q] > maxAxpys {
			maxAxpys = axpys[q]
		}
	}
	return maxMsgs, maxAxpys
}

// strassenComm models the quadrant recursion's communication: per level
// the critical-path rank exchanges tile-sized staging and contribution
// messages, each quadrant then computes its (up to two) hosted products
// sequentially — cost(l) = level + 2·cost(l−1) — bottoming out in the
// SUMMA (or HSUMMA) closed form on the sub-grid.
func (s *scorer) strassenComm(c Candidate, sh matrix.Shape) float64 {
	levels := core.StrassenLevelsOf(c.StrassenLevels)
	div := 1 << levels
	if c.Grid.S != c.Grid.T || c.Grid.S%div != 0 || sh.N%div != 0 {
		return 0 // infeasible candidates never reach scoring via enumeration
	}
	tile := float64(sh.N) / float64(c.Grid.S)
	elems := tile * tile
	msgs, _ := strassenLevelTraffic()
	level := float64(msgs) * (s.m.Alpha + elems*s.m.Beta)

	sub := topo.Grid{S: c.Grid.S / div, T: c.Grid.S / div}
	var bottom float64
	if sub.Size() > 1 {
		params := model.RectParams{
			Shape: matrix.Square(sh.N / div), Grid: sub, B: c.BlockSize,
			Machine: s.m, Bcast: s.bcast(c.Broadcast, c.Segments),
		}
		if G := c.StrassenInnerGroups; G > 0 {
			if h, err := topo.FactorGroups(sub, G); err == nil {
				bottom = model.HSUMMARect(params, h.I, h.J, c.OuterBlockSize).Comm()
			} else {
				bottom = model.SUMMARect(params).Comm()
			}
		} else {
			bottom = model.SUMMARect(params).Comm()
		}
	}
	comm := bottom
	for l := 0; l < levels; l++ {
		comm = level + 2*comm
	}
	return comm
}

// strassenCompute models the quadrant recursion's critical-path flops the
// way the virtual transports charge them: 2^levels sequential bottom
// problems of n/2^levels on the sub-grid — each K/b rank-b local updates
// through the candidate's execution descriptor (sub-cubic when the local
// kernel is on) — plus the per-level quadrant add/sub arithmetic, which is
// never thread-accelerated (matching comm.Axpy on every transport).
func (s *scorer) strassenCompute(c Candidate, sh matrix.Shape) float64 {
	levels := core.StrassenLevelsOf(c.StrassenLevels)
	div := 1 << levels
	if c.Grid.S%div != 0 || sh.N%div != 0 || c.BlockSize <= 0 {
		return 0
	}
	x := c.Exec()
	tile := sh.N / c.Grid.S // per-rank tile edge, invariant across levels
	steps := float64(sh.N/div) / float64(c.BlockSize)
	gemm := steps * x.Flops(tile, tile, c.BlockSize)
	_, axpys := strassenLevelTraffic()
	axpy := float64(axpys) * float64(tile) * float64(tile)
	gf, af := gemm, 0.0
	for l := 0; l < levels; l++ {
		gf, af = 2*gf, axpy+2*af
	}
	return s.m.Compute(gf/hockney.Speedup(c.Threads) + af)
}

// predictPhases decomposes the candidate's closed-form cost onto the
// trace phase vocabulary: the comm term split across bcast / shift / p2p
// exactly as the transports would record it (SUMMA-family traffic is all
// broadcast rounds, Cannon all SendRecv shifts, Fox broadcasts plus a
// roll shift per step, Strassen p2p quadrant staging around a broadcast
// bottom), and the compute term under "gemm". Zero phases are omitted.
// The per-phase sums reproduce score()'s comm and compute up to floating-
// point association — the formulas are the same, only factored per phase
// — so a plan's prediction and its ranking never disagree on what the
// model said. This is the denominator of the serving layer's
// measured/predicted drift tracking, so it must stay in lockstep with
// score(): the fidelity tests compare it against traced virtual runs.
func (s *scorer) predictPhases(c Candidate) map[string]float64 {
	sh := s.execShape(c)
	N := float64(sh.N)
	p := float64(c.Grid.Size())
	S := float64(c.Grid.S)

	var bcast, shift, p2p float64
	switch c.Algorithm {
	case engine.SUMMA, engine.HSUMMA, engine.Multilevel:
		bcast, _ = s.score(c) // single-phase: the whole comm term is broadcast
	case engine.Cannon:
		comm, _ := s.score(c)
		shift = comm
	case engine.Fox:
		bc := s.bcast(c.Broadcast, c.Segments)
		q := S
		tile := N * N / p
		bcast = q * s.bcastStep(bc, q, tile)
		shift = q * (s.m.Alpha + tile*s.m.Beta)
	case engine.Strassen:
		bcast, p2p = s.strassenCommSplit(c, sh)
	}

	var gemm float64
	switch {
	case c.Algorithm == engine.Strassen:
		gemm = s.strassenCompute(c, sh)
	case c.LocalStrassen:
		gemm = s.localKernelCompute(c, sh)
	default:
		gemm = s.m.Compute(2 * float64(sh.M) * N * float64(sh.K) / p / hockney.Speedup(c.Threads))
	}

	out := make(map[string]float64, 3)
	for _, ph := range []struct {
		name string
		sec  float64
	}{{"bcast", bcast}, {"shift", shift}, {"p2p", p2p}, {"gemm", gemm}} {
		if ph.sec > 0 {
			out[ph.name] = ph.sec
		}
	}
	return out
}

// strassenCommSplit is strassenComm with the per-level quadrant staging
// (point-to-point sends) separated from the bottom SUMMA/HSUMMA term
// (broadcast rounds): the recursion comm(l) = level + 2·comm(l−1) folds
// to p2p(l) = level + 2·p2p(l−1) over a bottom that doubles per level.
func (s *scorer) strassenCommSplit(c Candidate, sh matrix.Shape) (bcast, p2p float64) {
	levels := core.StrassenLevelsOf(c.StrassenLevels)
	div := 1 << levels
	if c.Grid.S != c.Grid.T || c.Grid.S%div != 0 || sh.N%div != 0 {
		return 0, 0
	}
	tile := float64(sh.N) / float64(c.Grid.S)
	elems := tile * tile
	msgs, _ := strassenLevelTraffic()
	level := float64(msgs) * (s.m.Alpha + elems*s.m.Beta)

	sub := topo.Grid{S: c.Grid.S / div, T: c.Grid.S / div}
	var bottom float64
	if sub.Size() > 1 {
		params := model.RectParams{
			Shape: matrix.Square(sh.N / div), Grid: sub, B: c.BlockSize,
			Machine: s.m, Bcast: s.bcast(c.Broadcast, c.Segments),
		}
		if G := c.StrassenInnerGroups; G > 0 {
			if h, err := topo.FactorGroups(sub, G); err == nil {
				bottom = model.HSUMMARect(params, h.I, h.J, c.OuterBlockSize).Comm()
			} else {
				bottom = model.SUMMARect(params).Comm()
			}
		} else {
			bottom = model.SUMMARect(params).Comm()
		}
	}
	bcast = bottom
	for l := 0; l < levels; l++ {
		p2p = level + 2*p2p
		bcast = 2 * bcast
	}
	return bcast, p2p
}

// localKernelCompute charges a classic algorithm's local multiplies
// through the sub-cubic kernel descriptor: the same per-step flop counts
// the virtual transports record, so the analytic ranking sees the local
// kernel's win exactly where the simulation does.
func (s *scorer) localKernelCompute(c Candidate, sh matrix.Shape) float64 {
	x := c.Exec()
	var flops float64
	switch c.Algorithm {
	case engine.Cannon, engine.Fox:
		q := c.Grid.S
		t := sh.N / q
		flops = float64(q) * x.Flops(t, t, t)
	default: // SUMMA family: K/b rank-b updates of the (M/S)×(N/T) tile
		b := c.BlockSize
		if b <= 0 {
			b = 1
		}
		flops = float64(sh.K/b) * x.Flops(sh.M/c.Grid.S, sh.N/c.Grid.T, b)
	}
	return s.m.Compute(flops / hockney.Speedup(c.Threads))
}
