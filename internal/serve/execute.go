package serve

import (
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// RunStats is the one declaration of a live run's statistics: the one-shot
// façade reports it as hsumma.Stats (an alias) and Stats embeds it, so both
// surfaces carry the same fields under the same names, filled by the same
// code (Execute).
type RunStats struct {
	// Messages and Bytes are rank-traffic totals across all ranks. Requests
	// served as part of a coalesced batch report the whole batched run's
	// traffic (the run is shared; per-request attribution would be fiction).
	Messages int64
	Bytes    int64
	// MaxRankCommSeconds is the largest per-rank wall time spent inside
	// communication calls.
	MaxRankCommSeconds float64
	// MaxRankWaitSeconds is the largest per-rank time spent blocked on a
	// message that had not arrived yet (≤ MaxRankCommSeconds): waiting for
	// a peer or a core, as opposed to moving data.
	MaxRankWaitSeconds float64
	// WallSeconds is the end-to-end elapsed time of the call: setup +
	// distributed run + crop (on a session it includes time queued behind
	// earlier requests).
	WallSeconds float64
	// SetupSeconds is the pre-run staging time this call paid: cutting the
	// operands into per-rank views, plus the one copy of each operand that
	// does not have the execution shape (see Execute). The one-shot Multiply
	// adds spec resolution, which a session paid once at
	// NewSession — the session-reuse win these two fields exist to measure.
	SetupSeconds float64
	// GemmSeconds is the largest per-rank wall time spent inside local
	// multiplies — the compute half of the paper's comm/compute breakdown.
	GemmSeconds float64
	// CommSecondsByPhase breaks the critical rank's communication time
	// (MaxRankCommSeconds) down by operation phase — "bcast" (broadcast
	// rounds), "shift" (SendRecv exchanges), "p2p" (Split and Barrier).
	// Zero-valued phases are omitted; the entries sum to
	// MaxRankCommSeconds.
	CommSecondsByPhase map[string]float64
	// BusyImbalance is max/mean per-rank busy time (communication plus
	// local multiplies): 1.0 is a perfectly even run, and the gap above 1
	// is wall time lost to the slowest rank.
	BusyImbalance float64
	// PredictedSecondsByPhase is the tune model's closed-form per-phase
	// prediction for the resolved execution (bcast/shift/p2p/gemm), the
	// yardstick CommSecondsByPhase and GemmSeconds can be audited against:
	// measured/predicted ratios near 1 mean the plan's cost model still
	// describes this machine. Predictions are evaluated for the planner's
	// target platform (default Grid'5000) — on other hardware the *ratios
	// between phases* remain meaningful even when the absolute seconds do
	// not.
	PredictedSecondsByPhase map[string]float64
}

// fromSummary fills the per-rank aggregate fields from an mpi.Summary.
func (st *RunStats) fromSummary(s mpi.Summary) {
	st.Messages = s.Messages
	st.Bytes = s.Bytes
	st.MaxRankCommSeconds = s.MaxComm
	st.MaxRankWaitSeconds = s.MaxWait
	st.GemmSeconds = s.MaxGemm
	st.CommSecondsByPhase = trace.CommPhaseMap(s.CommByPhase)
	st.BusyImbalance = s.Imbalance
}

// Scratch keeps a session's execution-shaped operand copies resident, one
// matrix per operand and batch width. Each is zeroed when allocated and a
// session only ever rewrites the same request-shaped region of it, so the
// zero pad fringe survives reuse. The nil Scratch allocates a fresh matrix
// per call — what the one-shot path wants.
type Scratch map[[2]int]*matrix.Dense

const (
	operandA = iota // width-independent: always kept under width 0
	operandB
	operandC
)

func (s Scratch) get(operand, width, rows, cols int) *matrix.Dense {
	if s == nil {
		return matrix.New(rows, cols)
	}
	m := s[[2]int{operand, width}]
	if m == nil {
		m = matrix.New(rows, cols)
		s[[2]int{operand, width}] = m
	}
	return m
}

// Execute is the one live execution path — stage by views, run, crop — that
// the one-shot hsumma.Multiply and every Session batch go through. It
// computes A·B_i for each right-hand side in bs (one for a plain multiply,
// k for a coalesced same-A batch) under spec, which must be resolved and
// padded for the widened problem A · [B_0 … B_k-1]. The run is
// mpi.RunStatsTraced: one rank goroutine per grid position, spawned for
// this call and gone when it returns.
//
// The staging rule is per operand and read off the input. An operand that
// already has the execution shape is handed to the ranks as BlockMap.Views
// of the caller's matrix — no element is copied, and when that holds for C
// too the ranks accumulate straight into the returned product. An operand
// that does not (a padded shape, or the k > 1 batch whose B columns must sit
// side by side) is copied once into an execution-shaped matrix from scratch
// and viewed from there; the products are then cropped out of the
// execution-shaped C. Either way the ranks read the caller's operands or
// the scratch until the run ends, and never write A or B.
//
// staged, when non-nil, is called with the per-rank tiles after staging and
// before the run (a test hook). The returned RunStats has every field but
// WallSeconds filled; runSeconds is the distributed run alone.
func Execute(spec engine.Spec, a *matrix.Dense, bs []*matrix.Dense, scratch Scratch,
	rec *trace.Recorder, staged func(aT, bT, cT []*matrix.Dense)) (outs []*matrix.Dense, st RunStats, runSeconds float64, err error) {
	stageStart := time.Now()
	es, grid, k := spec.Shape(), spec.Opts.Grid, len(bs)
	m, n := a.Rows, bs[0].Cols
	var bm [3]*dist.BlockMap // of A, B and C
	for i, d := range [3][2]int{{es.M, es.K}, {es.K, es.N}, {es.M, es.N}} {
		if bm[i], err = dist.NewBlockMap(d[0], d[1], grid); err != nil {
			return nil, st, 0, err
		}
	}
	aX, bX := a, bs[0]
	if a.Cols != es.K || m != es.M {
		aX = scratch.get(operandA, 0, es.M, es.K)
		aX.View(0, 0, m, a.Cols).CopyFrom(a)
	}
	if k > 1 || bX.Rows != es.K || n != es.N {
		bX = scratch.get(operandB, k, es.K, es.N)
		for i, b := range bs {
			bX.View(0, i*n, b.Rows, n).CopyFrom(b)
		}
	}
	inPlace := k == 1 && m == es.M && n == es.N
	var cX *matrix.Dense
	if inPlace || scratch == nil {
		cX = matrix.New(es.M, es.N)
	} else {
		cX = scratch.get(operandC, k, es.M, es.N)
		cX.Zero()
	}
	aT, bT, cT := bm[0].Views(aX), bm[1].Views(bX), bm[2].Views(cX)
	st.SetupSeconds = time.Since(stageStart).Seconds()
	// The host spans stay on the timeline even when staging copied nothing
	// (≈0 s), so every traced run has the same span structure.
	if rec != nil {
		rec.Host(trace.PhaseScatter, rec.Since(stageStart), st.SetupSeconds, int64(8*(es.M*es.K+es.K*es.N)), 0)
	}
	if staged != nil {
		staged(aT, bT, cT)
	}

	var mu sync.Mutex
	var algErr error
	runStart := time.Now()
	ranks, err := mpi.RunStatsTraced(grid.Size(), func(c *mpi.Comm) {
		r := c.Rank()
		if e := engine.Run(mpi.AsComm(c), spec, aT[r], bT[r], cT[r]); e != nil {
			mu.Lock()
			if algErr == nil {
				algErr = e
			}
			mu.Unlock()
		}
	}, rec)
	runSeconds = time.Since(runStart).Seconds()
	if err == nil {
		err = algErr
	}
	if err != nil {
		return nil, st, runSeconds, err
	}
	st.fromSummary(mpi.Summarize(ranks))
	st.PredictedSecondsByPhase = spec.Predicted

	cropStart := time.Now()
	outs = make([]*matrix.Dense, k)
	if inPlace {
		outs[0] = cX
	} else {
		for i := range outs {
			outs[i] = cX.View(0, i*n, m, n).Clone()
		}
	}
	if rec != nil {
		rec.Host(trace.PhaseGather, rec.Since(cropStart), time.Since(cropStart).Seconds(), int64(8*es.M*es.N), 0)
	}
	return outs, st, runSeconds, nil
}
