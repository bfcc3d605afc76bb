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
// explicit S×T grid, a rectangular problem and integer levels. Message
// sizes are counted in matrix elements, the unit the platform presets
// quote β in and the virtual engines charge (ElemBytes rescales for a β
// quoted per byte).
package model

import (
	"fmt"
	"math"

	"repro/internal/machine"
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

// FromSchedule derives L(p) and W(p) numerically from the actual schedules
// in internal/sched: broadcast cost is affine in the message size for every
// provided algorithm, so two evaluations per p recover the exact factors.
// The tests use it as the schedules' reference: they assert the paper's
// closed forms agree with the generated schedules.
type FromSchedule struct {
	Alg sched.Algorithm

	cache map[int][2]float64
}

// NewFromSchedule returns a schedule-derived broadcast model.
func NewFromSchedule(alg sched.Algorithm) *FromSchedule {
	return &FromSchedule{Alg: alg, cache: make(map[int][2]float64)}
}

func (f *FromSchedule) factors(p float64) [2]float64 {
	ip := int(p + 0.5)
	if ip <= 1 {
		return [2]float64{0, 0}
	}
	if v, ok := f.cache[ip]; ok {
		return v
	}
	s, err := sched.NewBroadcast(f.Alg, ip, 0)
	if err != nil {
		panic(fmt.Sprintf("model: %v", err))
	}
	// Cost with unit α, zero β isolates L; zero α, unit β (per byte,
	// message of one byte) isolates W.
	l := s.Cost(1, machine.Model{Alpha: 1, Beta: 0})
	w := s.Cost(1, machine.Model{Alpha: 0, Beta: 1})
	v := [2]float64{l, w}
	f.cache[ip] = v
	return v
}

// Latency implements Broadcast using the generated schedule.
func (f *FromSchedule) Latency(p float64) float64 { return f.factors(p)[0] }

// Bandwidth implements Broadcast using the generated schedule.
func (f *FromSchedule) Bandwidth(p float64) float64 { return f.factors(p)[1] }

// Name implements Broadcast.
func (f *FromSchedule) Name() string { return "sched:" + string(f.Alg) }

func safeLog2(p float64) float64 {
	if p <= 1 {
		return 0
	}
	return math.Log2(p)
}
