// Package simnet is the discrete-event network simulator that stands in for
// the paper's physical testbeds (Grid'5000, BlueGene/P). It maintains one
// virtual clock per rank and advances them by replaying the *same*
// communication schedules (internal/sched) the real runtime executes, under
// the Hockney model — so a simulated figure measures exactly the
// communication pattern of the runnable algorithm, at scales (16384 ranks)
// no single-machine run could host.
//
// Semantics match sched.CostOnClocks: rounds are full-duplex one-port, a
// transfer starts when both endpoints are past their previous work, and
// both endpoints are occupied until it completes. Two extensions beyond
// CostOnClocks:
//
//   - an optional contention model scaling β by the number of transfers
//     a round of the collective moves at once (collectives on disjoint
//     ranks, e.g. the √p row broadcasts of one SUMMA step, each fire when
//     their own last member arrives and are not round-aligned);
//
//   - per-rank communication-time accounting, mirroring how the paper
//     reports "communication time" separately from execution time.
//
// A collective fires as a Program (Sim.Compile): its schedule compiled for
// one payload on this simulator — each transfer's ranks and duration, each
// round's extent — kept in a table indexed by algorithm, size and root.
// Rounds that touch each rank at most once (the binomial tree, the Van de
// Geijn scatter) advance clocks in place. The O(p²)-transfer ring suffix
// of the Van de Geijn broadcast is advanced with an exact O(p) recurrence
// (see execRingTail) instead of transfer by transfer;
// TestRingFastPathEquivalence proves the equivalence against the
// event-level executor, and TestCompiledExecOneBitIdentical holds the
// compiled path to the transfer-by-transfer one bit for bit.
package simnet

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sched"
)

// ContentionFunc maps the number of concurrent transfers in a simulation
// round to a multiplier applied to β (the reciprocal bandwidth). It models
// link sharing: 1 means contention-free (the paper's model assumption).
type ContentionFunc func(flows int) float64

// NoContention is the paper's analytic assumption: full bandwidth per flow.
func NoContention(int) float64 { return 1 }

// SharedSegment models a single shared medium (commodity Ethernet):
// concurrent flows divide the bandwidth evenly.
func SharedSegment(flows int) float64 {
	if flows < 1 {
		return 1
	}
	return float64(flows)
}

// TorusContention returns a coarse 3D-torus bisection model: flows share
// roughly degree·p^(2/3) independent links; below that capacity there is no
// slowdown, above it bandwidth divides.
func TorusContention(degree, p int) ContentionFunc {
	if degree < 1 {
		degree = 1
	}
	cap3d := float64(degree) * pow23(float64(p))
	return func(flows int) float64 {
		f := float64(flows)
		if f <= cap3d {
			return 1
		}
		return f / cap3d
	}
}

// pow23 computes x^(2/3) without importing math for a single call site
// would be silly — use the obvious route.
func pow23(x float64) float64 {
	// cube root via Newton iterations (x > 0 in all uses), then square.
	if x <= 0 {
		return 0
	}
	c := x
	for i := 0; i < 64; i++ {
		c = (2*c + x/(c*c)) / 3
	}
	return c * c
}

// ContentionFor translates a platform preset's contention description into
// a ContentionFunc over p ranks. enabled=false always yields NoContention —
// the default for figure reproduction, matching the paper's model.
func ContentionFor(pf machine.Platform, p int, enabled bool) ContentionFunc {
	if !enabled {
		return NoContention
	}
	switch pf.Contention {
	case machine.ContentionShared:
		return SharedSegment
	case machine.ContentionTorus:
		return TorusContention(pf.TorusDegree, p)
	default:
		return NoContention
	}
}

// LinkCostFunc scales the bandwidth term of a specific src→dst transfer —
// e.g. by torus hop distance (machine.Torus), modelling wormhole routing
// where a d-hop message occupies d links. Nil means uniform links (the
// paper's assumption).
type LinkCostFunc func(src, dst int) float64

// Sim is a virtual-time machine over p ranks.
type Sim struct {
	model      machine.Model
	contention ContentionFunc
	linkCost   LinkCostFunc
	clocks     []float64
	comm       []float64
	progs      programs
}

// New returns a simulator for p ranks under the given model, with no
// contention.
func New(p int, m machine.Model) *Sim {
	if p <= 0 {
		panic(fmt.Sprintf("simnet: invalid rank count %d", p))
	}
	s := &Sim{
		model:      m,
		contention: NoContention,
		clocks:     make([]float64, p),
		comm:       make([]float64, p),
	}
	s.progs.algs = sched.Algorithms()
	s.progs.reset()
	return s
}

// SetContention installs a link-sharing model; nil restores NoContention.
func (s *Sim) SetContention(f ContentionFunc) {
	if f == nil {
		f = NoContention
	}
	s.contention = f
	s.progs.reset()
}

// SetLinkCost installs a per-transfer bandwidth multiplier (nil = uniform
// links).
func (s *Sim) SetLinkCost(f LinkCostFunc) { s.linkCost = f }

// linkFactor returns the bandwidth multiplier for one transfer.
func (s *Sim) linkFactor(src, dst int) float64 {
	if s.linkCost == nil {
		return 1
	}
	return s.linkCost(src, dst)
}

// Size returns the number of simulated ranks.
func (s *Sim) Size() int { return len(s.clocks) }

// Clock returns a rank's current virtual time.
func (s *Sim) Clock(rank int) float64 { return s.clocks[rank] }

// CommTime returns the accumulated time a rank has spent inside
// communication (transfers plus waiting for peers), the quantity the paper
// plots as "communication time".
func (s *Sim) CommTime(rank int) float64 { return s.comm[rank] }

// MaxClock returns the virtual time at which the last rank finishes — the
// simulated execution time.
func (s *Sim) MaxClock() float64 {
	max := 0.0
	for _, c := range s.clocks {
		if c > max {
			max = c
		}
	}
	return max
}

// MaxCommTime returns the largest per-rank communication time.
func (s *Sim) MaxCommTime() float64 {
	max := 0.0
	for _, c := range s.comm {
		if c > max {
			max = c
		}
	}
	return max
}

// ComputeRank advances one rank by the time of `flops` floating-point
// operations.
func (s *Sim) ComputeRank(rank int, flops float64) {
	s.clocks[rank] += s.model.Compute(flops)
}

// TransferTime returns the virtual duration of one point-to-point transfer
// of elems elements among `flows` concurrent ones, applying the contention
// and link models. Both virtual execution engines route their SendRecv
// timing through this one function, so the engines agree bit for bit.
func (s *Sim) TransferTime(src, dst, elems, flows int) float64 {
	eff := s.model
	eff.Beta *= s.contention(flows) * s.linkFactor(src, dst)
	return eff.PointToPoint(float64(elems))
}

// AdvanceComm moves a rank's clock forward to end, accounting the advance
// (transfer plus waiting) as communication time. The caller must own the
// rank's clock — be the goroutine it belongs to, or the single-threaded
// event loop.
func (s *Sim) AdvanceComm(rank int, end float64) {
	if end > s.clocks[rank] {
		s.comm[rank] += end - s.clocks[rank]
		s.clocks[rank] = end
	}
}

// Clocks exposes the per-rank clock array itself, for the execution
// engines (internal/evsim's event loop reads rank clocks on its shift and
// compute paths). The caller owns synchronisation; everyone else should
// use Clock.
func (s *Sim) Clocks() []float64 { return s.clocks }
