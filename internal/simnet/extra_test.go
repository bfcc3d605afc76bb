package simnet

import (
	"math"
	"testing"

	"repro/internal/sched"
)

func TestLinkCostScalesBandwidthOnly(t *testing.T) {
	sc, _ := sched.NewBroadcast(sched.Binomial, 2, 0)
	free := New(2, testModel)
	free.ExecOne(Collective{Sched: sc, Members: []int{0, 1}, PayloadBytes: 1e6})
	far := New(2, testModel)
	far.SetLinkCost(func(a, b int) float64 { return 5 })
	far.ExecOne(Collective{Sched: sc, Members: []int{0, 1}, PayloadBytes: 1e6})
	wantDelta := 4 * 1e6 * testModel.Beta
	if got := far.MaxClock() - free.MaxClock(); math.Abs(got-wantDelta) > 1e-12 {
		t.Fatalf("link-cost delta %g, want %g", got, wantDelta)
	}
}

func TestLinkCostDisablesRingFastPath(t *testing.T) {
	// With non-uniform links the vdg ring must run event-level; verify
	// the result reacts to a link-cost function that only affects one
	// edge (the fast path would apply a uniform value).
	p := 8
	sc, _ := sched.NewBroadcast(sched.VanDeGeijn, p, 0)
	uniform := New(p, testModel)
	uniform.SetLinkCost(func(a, b int) float64 { return 1 })
	uniform.ExecOne(Collective{Sched: sc, Members: identity(p), PayloadBytes: 8e5})
	skewed := New(p, testModel)
	skewed.SetLinkCost(func(a, b int) float64 {
		if a == 3 || b == 3 {
			return 10
		}
		return 1
	})
	skewed.ExecOne(Collective{Sched: sc, Members: identity(p), PayloadBytes: 8e5})
	if skewed.MaxClock() <= uniform.MaxClock() {
		t.Fatal("slow edge did not slow the broadcast")
	}
}

func TestSetLinkCostNilRestoresUniform(t *testing.T) {
	sim := New(2, testModel)
	sim.SetLinkCost(func(a, b int) float64 { return 100 })
	sim.SetLinkCost(nil)
	sc, _ := sched.NewBroadcast(sched.Binomial, 2, 0)
	sim.ExecOne(Collective{Sched: sc, Members: []int{0, 1}, PayloadBytes: 1e6})
	want := testModel.PointToPoint(1e6)
	if math.Abs(sim.MaxClock()-want) > 1e-15 {
		t.Fatal("nil link cost should restore uniform links")
	}
}

func TestEmptyPhaseNoOp(t *testing.T) {
	// A one-member collective moves nothing, so no clock may move.
	sim := New(4, testModel)
	sim.ComputeRank(2, 1e9)
	sc, _ := sched.NewBroadcast(sched.VanDeGeijn, 1, 0)
	sim.ExecOne(Collective{Sched: sc, Members: []int{2}, PayloadBytes: 1e6})
	if sim.Clock(2) != testModel.Compute(1e9) || sim.CommTime(2) != 0 || sim.MaxClock() != sim.Clock(2) {
		t.Fatal("one-member collective advanced clocks")
	}
}

func TestComputeRanksSelective(t *testing.T) {
	sim := New(4, testModel)
	sim.ComputeRank(1, 1e9)
	sim.ComputeRank(3, 1e9)
	if sim.Clock(0) != 0 || sim.Clock(2) != 0 {
		t.Fatal("compute leaked to unselected ranks")
	}
	if sim.Clock(1) != sim.Clock(3) || sim.Clock(1) <= 0 {
		t.Fatal("selected ranks did not advance")
	}
}
