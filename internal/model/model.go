// Package model implements the paper's closed-form performance analysis
// (Section IV): the generic broadcast model T_bcast(m,p) = L(p)·α + m·W(p)·β
// of equation (1); one communication cost for the whole SUMMA family — a
// sum over the broadcast stages of a hierarchy (family in cost.go), of
// which Table I/II's SUMMA row is the no-level instance and the HSUMMA row
// the one-level instance; the extremum analysis of ∂T_HS/∂G (equations
// 6–11, with the G = √p stationary point and the α/β ⋛ 2nb/p
// minimum/maximum condition); and the exascale prediction of Figure 10.
//
// Conventions: the paper's analysis (SUMMA, HSUMMA, Params) assumes a
// square √p×√p grid and √G×√G groups with b = B unless stated, and treats
// G as a real number; the planner's instances (RectParams, Family) take an
// explicit S×T grid, a rectangular problem and integer levels, and price
// each broadcast at its communicator's whole size (factors). Message
// sizes are counted in matrix elements, the unit the platform presets
// quote β in and the virtual engines charge (ElemBytes rescales for a β
// quoted per byte).
package model

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sched"
)

// Broadcast is the paper's generic homogeneous broadcast model (eq. 1):
// broadcasting m bytes over p processors costs L(p)·α + m·W(p)·β, with
// L(1) = W(1) = 0.
type Broadcast interface {
	// Latency returns L(p), the α multiplier.
	Latency(p float64) float64
	// Bandwidth returns W(p), the mβ multiplier.
	Bandwidth(p float64) float64
	// Name identifies the algorithm in reports.
	Name() string
}

// BinomialTree is the binomial broadcast: L(p) = W(p) = log₂(p) — the
// model behind the paper's Table I.
type BinomialTree struct{}

// Latency returns log₂(p).
func (BinomialTree) Latency(p float64) float64 { return safeLog2(p) }

// Bandwidth returns log₂(p).
func (BinomialTree) Bandwidth(p float64) float64 { return safeLog2(p) }

// Name implements Broadcast.
func (BinomialTree) Name() string { return "binomial" }

// VanDeGeijn is the scatter-allgather broadcast: L(p) = log₂(p) + p − 1,
// W(p) = 2(p−1)/p — the model behind the paper's Table II.
type VanDeGeijn struct{}

// Latency returns log₂(p) + p − 1.
func (VanDeGeijn) Latency(p float64) float64 {
	if p <= 1 {
		return 0
	}
	return safeLog2(p) + p - 1
}

// Bandwidth returns 2(p−1)/p.
func (VanDeGeijn) Bandwidth(p float64) float64 {
	if p <= 1 {
		return 0
	}
	return 2 * (p - 1) / p
}

// Name implements Broadcast.
func (VanDeGeijn) Name() string { return "vandegeijn" }

// For returns the closed-form model of a broadcast algorithm: Table I's
// binomial tree or Table II's Van de Geijn (the empty name is binomial).
// The planner's scorer and `hsumma-run model` both map names through it.
func For(alg sched.Algorithm) Broadcast {
	switch alg {
	case "", sched.Binomial:
		return BinomialTree{}
	case sched.VanDeGeijn:
		return VanDeGeijn{}
	}
	panic(fmt.Sprintf("model: unknown broadcast algorithm %q", alg))
}

// factors returns bc's L(q) and W(q) as a cost charges them. The paper's
// analysis (Params) takes equation (1) as written, real-valued in q, since
// it differentiates in G. The planner's instances (RectParams, whole set)
// broadcast over q whole members and price Van de Geijn as the schedule
// internal/sched generates runs it: its scatter takes ⌈log₂q⌉ rounds, so
// L(q) = ⌈log₂q⌉ + q − 1, the schedule's latency on every q and Table II's
// at powers of two; W(q) = 2(q−1)/q is the schedule's to rounding. The
// binomial tree keeps log₂q on both paths: off powers of two no
// per-broadcast price is exact for it, and the planner replays it (see
// tune's replayed).
func factors(bc Broadcast, q float64, whole bool) (l, w float64) {
	if _, vdg := bc.(VanDeGeijn); vdg && whole && q > 1 {
		return float64(bits.Len(uint(q)-1)) + q - 1, bc.Bandwidth(q)
	}
	return bc.Latency(q), bc.Bandwidth(q)
}

func safeLog2(p float64) float64 {
	if p <= 1 {
		return 0
	}
	return math.Log2(p)
}
