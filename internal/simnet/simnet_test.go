package simnet

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sched"
)

var testModel = machine.Model{Alpha: 1e-5, Beta: 1e-9, Gamma: 1e-10}

func TestSingleCollectiveMatchesSchedCost(t *testing.T) {
	for _, alg := range sched.Algorithms() {
		for _, p := range []int{2, 3, 7, 16, 33} {
			sc, err := sched.NewBroadcast(alg, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			sim := New(p, testModel)
			members := identity(p)
			sim.ExecOne(Collective{Sched: sc, Members: members, PayloadBytes: 1e6})
			want := sc.Cost(1e6, testModel)
			if got := sim.MaxClock(); math.Abs(got-want) > 1e-15+1e-12*want {
				t.Fatalf("%s p=%d: sim %g, sched.Cost %g", alg, p, got, want)
			}
		}
	}
}

// The O(p) ring fast path must agree exactly with transfer-by-transfer
// execution of the same Van de Geijn schedule, for any starting clocks.
func TestRingFastPathEquivalence(t *testing.T) {
	f := func(pp uint8, seed uint16) bool {
		p := int(pp%30) + 2
		sc, err := sched.NewBroadcast(sched.VanDeGeijn, p, int(seed)%p)
		if err != nil {
			return false
		}
		payload := 1e5 + float64(seed)
		// Random-ish but deterministic initial clocks.
		init := make([]float64, p)
		x := uint64(seed) + 1
		for i := range init {
			x = x*6364136223846793005 + 1442695040888963407
			init[i] = float64(x%1000) * 1e-6
		}
		// Reference: event-level execution via sched.CostOnClocks.
		ref := make([]float64, p)
		copy(ref, init)
		sc.CostOnClocks(ref, payload, testModel)
		// Fast path via the simulator.
		sim := New(p, testModel)
		copy(sim.clocks, init)
		sim.ExecOne(Collective{Sched: sc, Members: identity(p), PayloadBytes: payload})
		for i := range ref {
			if math.Abs(ref[i]-sim.clocks[i]) > 1e-12*(1+ref[i]) {
				t.Logf("p=%d rank %d: ref %.15g fast %.15g", p, i, ref[i], sim.clocks[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDisjointCollectivesRunConcurrently(t *testing.T) {
	// Two binomial broadcasts on disjoint members must cost the same as
	// one (they overlap perfectly), not twice as much.
	p := 8
	sc, _ := sched.NewBroadcast(sched.Binomial, 4, 0)
	sim := New(p, testModel)
	sim.ExecOne(Collective{Sched: sc, Members: []int{0, 1, 2, 3}, PayloadBytes: 1e6})
	sim.ExecOne(Collective{Sched: sc, Members: []int{4, 5, 6, 7}, PayloadBytes: 1e6})
	want := sc.Cost(1e6, testModel)
	if got := sim.MaxClock(); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("concurrent phases: %g, want %g", got, want)
	}
}

func TestSequentialPhasesAccumulate(t *testing.T) {
	p := 4
	sc, _ := sched.NewBroadcast(sched.Binomial, p, 0)
	sim := New(p, testModel)
	one := sc.Cost(1e6, testModel)
	sim.ExecOne(Collective{Sched: sc, Members: identity(p), PayloadBytes: 1e6})
	sim.ExecOne(Collective{Sched: sc, Members: identity(p), PayloadBytes: 1e6})
	if got := sim.MaxClock(); math.Abs(got-2*one) > 1e-12 {
		t.Fatalf("two phases: %g, want %g", got, 2*one)
	}
}

func TestComputeSeparatedFromComm(t *testing.T) {
	p := 4
	sc, _ := sched.NewBroadcast(sched.Binomial, p, 0)
	sim := New(p, testModel)
	sim.ExecOne(Collective{Sched: sc, Members: identity(p), PayloadBytes: 8e5})
	commOnly := sim.MaxCommTime()
	for r := 0; r < p; r++ {
		sim.ComputeRank(r, 1e9) // 0.1s at γ=1e-10
	}
	if math.Abs(sim.MaxCommTime()-commOnly) > 1e-15 {
		t.Fatal("compute leaked into comm time")
	}
	wantTotal := commOnly + 0.1
	if math.Abs(sim.MaxClock()-wantTotal) > 1e-9 {
		t.Fatalf("total %g, want %g", sim.MaxClock(), wantTotal)
	}
}

func TestCommTimeIncludesWaiting(t *testing.T) {
	// Rank 1 computes for long before a broadcast; rank 0 (root) then
	// waits for it — waiting counts as communication for rank 0.
	p := 2
	sc, _ := sched.NewBroadcast(sched.Binomial, p, 0)
	sim := New(p, testModel)
	sim.ComputeRank(1, 1e9) // rank 1 busy until 0.1
	sim.ExecOne(Collective{Sched: sc, Members: identity(p), PayloadBytes: 0})
	hop := testModel.Alpha
	if got := sim.CommTime(0); math.Abs(got-(0.1+hop)) > 1e-9 {
		t.Fatalf("root comm time %g, want %g (wait + hop)", got, 0.1+hop)
	}
	if got := sim.CommTime(1); math.Abs(got-hop) > 1e-12 {
		t.Fatalf("late rank comm time %g, want %g", got, hop)
	}
}

func TestContentionScalesBandwidthOnly(t *testing.T) {
	p := 2
	sc, _ := sched.NewBroadcast(sched.Binomial, p, 0)
	free := New(p, testModel)
	free.ExecOne(Collective{Sched: sc, Members: identity(p), PayloadBytes: 1e6})
	congested := New(p, testModel)
	congested.SetContention(func(int) float64 { return 10 })
	congested.ExecOne(Collective{Sched: sc, Members: identity(p), PayloadBytes: 1e6})
	wantDelta := 9 * 1e6 * testModel.Beta // only the mβ term scales
	if got := congested.MaxClock() - free.MaxClock(); math.Abs(got-wantDelta) > 1e-12 {
		t.Fatalf("contention delta %g, want %g", got, wantDelta)
	}
}

func TestSharedSegmentCountsFlows(t *testing.T) {
	// A 4-rank binomial broadcast under SharedSegment: round 0 moves one
	// transfer at full bandwidth, round 1 two, so each sees half of it.
	sc, _ := sched.NewBroadcast(sched.Binomial, 4, 0)
	sim := New(4, testModel)
	sim.SetContention(SharedSegment)
	sim.ExecOne(Collective{Sched: sc, Members: identity(4), PayloadBytes: 1e6})
	want := testModel.Alpha + 1e6*testModel.Beta + testModel.Alpha + 1e6*testModel.Beta*2
	if got := sim.MaxClock(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("shared segment: %g, want %g", got, want)
	}
}

func TestTorusContentionSaturates(t *testing.T) {
	f := TorusContention(6, 16384)
	if f(1) != 1 {
		t.Fatal("single flow must be contention-free")
	}
	cap3d := 6 * math.Pow(16384, 2.0/3.0)
	if got := f(int(cap3d) * 2); math.Abs(got-2) > 0.01 {
		t.Fatalf("2x capacity should give factor 2, got %g", got)
	}
}

func TestPow23(t *testing.T) {
	for _, x := range []float64{1, 8, 27, 1000, 16384, 1048576} {
		want := math.Pow(x, 2.0/3.0)
		if got := pow23(x); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("pow23(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestContentionFor(t *testing.T) {
	if f := ContentionFor(machine.Grid5000(), 128, false); f(100) != 1 {
		t.Fatal("disabled contention must be free")
	}
	if f := ContentionFor(machine.Grid5000(), 128, true); f(100) != 100 {
		t.Fatal("grid5000 should share the segment")
	}
	if f := ContentionFor(machine.BlueGeneP(), 16384, true); f(1) != 1 {
		t.Fatal("torus single flow should be free")
	}
}

func TestMemberMappingPermutes(t *testing.T) {
	// Executing on permuted members must permute the clocks, not change
	// the cost.
	p := 5
	sc, _ := sched.NewBroadcast(sched.Binomial, p, 0)
	simA := New(p, testModel)
	simA.ExecOne(Collective{Sched: sc, Members: []int{0, 1, 2, 3, 4}, PayloadBytes: 1e5})
	simB := New(p, testModel)
	simB.ExecOne(Collective{Sched: sc, Members: []int{4, 3, 2, 1, 0}, PayloadBytes: 1e5})
	if math.Abs(simA.MaxClock()-simB.MaxClock()) > 1e-15 {
		t.Fatal("member permutation changed the cost")
	}
	if math.Abs(simA.Clock(1)-simB.Clock(3)) > 1e-15 {
		t.Fatal("member permutation did not permute clocks")
	}
}

func TestWrongMemberCountPanics(t *testing.T) {
	sc, _ := sched.NewBroadcast(sched.Binomial, 4, 0)
	sim := New(4, testModel)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on member/schedule mismatch")
		}
	}()
	sim.ExecOne(Collective{Sched: sc, Members: []int{0, 1}, PayloadBytes: 1})
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for p=0")
		}
	}()
	New(0, testModel)
}

// Property: simulated broadcast time is non-decreasing in payload and in
// rank count for binomial trees.
func TestQuickMonotonicity(t *testing.T) {
	f := func(p1, p2 uint8, m1, m2 uint32) bool {
		pa, pb := int(p1%60)+2, int(p2%60)+2
		if pa > pb {
			pa, pb = pb, pa
		}
		ma, mb := float64(m1), float64(m2)
		if ma > mb {
			ma, mb = mb, ma
		}
		cost := func(p int, m float64) float64 {
			sc, err := sched.NewBroadcast(sched.Binomial, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			sim := New(p, testModel)
			sim.ExecOne(Collective{Sched: sc, Members: identity(p), PayloadBytes: m})
			return sim.MaxClock()
		}
		return cost(pa, ma) <= cost(pb, mb)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func identity(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}
