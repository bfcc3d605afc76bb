package sched

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

var testModel = machine.Model{Alpha: 1e-5, Beta: 1e-9}

func mustBcast(t *testing.T, alg Algorithm, p, root int) *Schedule {
	t.Helper()
	s, err := NewBroadcast(alg, p, root)
	if err != nil {
		t.Fatalf("NewBroadcast(%s,%d,%d): %v", alg, p, root, err)
	}
	return s
}

func TestAllAlgorithmsValidate(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 32, 33, 64, 100, 128} {
			for _, root := range []int{0, p / 2, p - 1} {
				s := mustBcast(t, alg, p, root)
				if err := Validate(s); err != nil {
					t.Fatalf("%s p=%d root=%d invalid: %v", alg, p, root, err)
				}
			}
		}
	}
}

func TestTreeAlgorithmsNonRedundant(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 16, 31} {
		for _, root := range []int{0, p - 1} {
			s := mustBcast(t, Binomial, p, root)
			if err := ValidateNoRedundancy(s); err != nil {
				t.Fatalf("binomial p=%d root=%d redundant: %v", p, root, err)
			}
		}
	}
}

func TestSingleRankEmptySchedule(t *testing.T) {
	for _, alg := range Algorithms() {
		s := mustBcast(t, alg, 1, 0)
		if s.NumTransfers() != 0 {
			t.Fatalf("%s p=1 has %d transfers", alg, s.NumTransfers())
		}
		if s.Cost(1e6, testModel) != 0 {
			t.Fatalf("%s p=1 non-zero cost", alg)
		}
	}
}

func TestBadArguments(t *testing.T) {
	if _, err := NewBroadcast(Binomial, 0, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := NewBroadcast(Binomial, 4, 4); err == nil {
		t.Fatal("root=p accepted")
	}
	if _, err := NewBroadcast(Algorithm("nope"), 4, 0); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// The binomial tree must complete in exactly ⌈log₂ p⌉ rounds — the paper's
// Table I latency factor.
func TestBinomialRoundCount(t *testing.T) {
	for _, c := range []struct{ p, rounds int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {128, 7}, {1024, 10},
	} {
		s := mustBcast(t, Binomial, c.p, 0)
		if len(s.Rounds) != c.rounds {
			t.Fatalf("binomial p=%d: %d rounds, want %d", c.p, len(s.Rounds), c.rounds)
		}
	}
}

// Binomial cost must equal log₂(p)(α+mβ) for power-of-two p (paper §IV).
func TestBinomialCostMatchesFormula(t *testing.T) {
	m := 1e6 // bytes
	for _, p := range []int{2, 4, 8, 16, 64, 256} {
		s := mustBcast(t, Binomial, p, 0)
		got := s.Cost(m, testModel)
		want := math.Log2(float64(p)) * (testModel.Alpha + m*testModel.Beta)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("binomial p=%d cost %g, want %g", p, got, want)
		}
	}
}

// Van de Geijn cost must match (log₂p + p − 1)α + 2((p−1)/p)mβ for
// power-of-two p (paper Table II). The clock-based replay should agree with
// the closed form to within rounding: the scatter's bandwidth term is
// (p−1)/p·m serialised down the tree and the ring adds (p−1)/p·m more.
func TestVanDeGeijnCostMatchesFormula(t *testing.T) {
	m := 8e6
	for _, p := range []int{2, 4, 8, 16, 64, 128} {
		s := mustBcast(t, VanDeGeijn, p, 0)
		got := s.Cost(m, testModel)
		pf := float64(p)
		want := (math.Log2(pf)+pf-1)*testModel.Alpha + 2*(pf-1)/pf*m*testModel.Beta
		if math.Abs(got-want) > 0.02*want {
			t.Fatalf("vandegeijn p=%d cost %g, want %g (%.1f%% off)",
				p, got, want, 100*math.Abs(got-want)/want)
		}
	}
}

// The binomial tree moves exactly (p−1)·m bytes aggregate. Van de Geijn
// moves more in aggregate — the binomial scatter ships m/2 per round over
// log₂(p) rounds (segments traverse several hops) and the ring adds
// (p−1)·p·(m/p) — even though its *per-rank* (critical-path) bytes are
// lower, which is what the paper's bandwidth factor counts.
func TestTotalBytes(t *testing.T) {
	m := 1000.0
	if got := mustBcast(t, Binomial, 16, 0).TotalBytes(m); got != 15*m {
		t.Fatalf("binomial total bytes %g, want %g", got, 15*m)
	}
	// p=16: scatter log₂(16)·m/2 = 2m; ring 15 rounds × 16 ranks × m/16.
	sv := mustBcast(t, VanDeGeijn, 16, 0)
	want := 2*m + 15*m
	if got := sv.TotalBytes(m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("vandegeijn total bytes %g, want %g", got, want)
	}
}

// For large messages Van de Geijn must beat binomial (2(p−1)/p·mβ versus
// log₂(p)·mβ); for tiny messages binomial must win on latency.
func TestAlgorithmCrossover(t *testing.T) {
	p := 64
	bin := mustBcast(t, Binomial, p, 0)
	vdg := mustBcast(t, VanDeGeijn, p, 0)
	big := 1e8
	if bin.Cost(big, testModel) <= vdg.Cost(big, testModel) {
		t.Fatal("binomial should lose to van de Geijn on large messages")
	}
	small := 8.0
	if bin.Cost(small, testModel) >= vdg.Cost(small, testModel) {
		t.Fatal("binomial should beat van de Geijn on small messages")
	}
}

func TestRootRelativity(t *testing.T) {
	// A schedule rooted at r must be the root-0 schedule with ranks
	// rotated: costs identical, validation passes, and the root is the
	// only rank never receiving.
	for _, alg := range Algorithms() {
		p := 16
		s0 := mustBcast(t, alg, p, 0)
		s5 := mustBcast(t, alg, p, 5)
		if math.Abs(s0.Cost(1e6, testModel)-s5.Cost(1e6, testModel)) > 1e-12 {
			t.Fatalf("%s: cost depends on root", alg)
		}
		for _, round := range s5.Rounds {
			for _, tr := range round.Transfers {
				if tr.Dst == 5 && alg != VanDeGeijn {
					t.Fatalf("%s: root received a transfer", alg)
				}
			}
		}
	}
}

func TestCostOnClocksComposition(t *testing.T) {
	// Two broadcasts back to back cost the sum of their costs when the
	// clocks are shared (no overlap possible on identical rank sets).
	p := 8
	s := mustBcast(t, Binomial, p, 0)
	single := s.Cost(1e6, testModel)
	clocks := make([]float64, p)
	s.CostOnClocks(clocks, 1e6, testModel)
	s.CostOnClocks(clocks, 1e6, testModel)
	max := 0.0
	for _, c := range clocks {
		if c > max {
			max = c
		}
	}
	if math.Abs(max-2*single) > 1e-12 {
		t.Fatalf("composed cost %g, want %g", max, 2*single)
	}
}

func TestCostOnClocksWrongLengthPanics(t *testing.T) {
	s := mustBcast(t, Binomial, 8, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong clock slice length did not panic")
		}
	}()
	s.CostOnClocks(make([]float64, 4), 1, testModel)
}

// Property: every generated schedule for random (alg, p, root) validates.
func TestQuickAllValid(t *testing.T) {
	algs := Algorithms()
	f := func(pp, rr, aa uint16) bool {
		p := int(pp%200) + 1
		root := int(rr) % p
		alg := algs[int(aa)%len(algs)]
		s, err := NewBroadcast(alg, p, root)
		if err != nil {
			return false
		}
		return Validate(s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: cost is monotone in message size.
func TestQuickCostMonotoneInSize(t *testing.T) {
	s := mustBcast(t, VanDeGeijn, 24, 0)
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return s.Cost(x, testModel) <= s.Cost(y, testModel)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSegBytes(t *testing.T) {
	s := mustBcast(t, VanDeGeijn, 4, 0)
	tr := Transfer{Src: 0, Dst: 2, SegLo: 2, SegHi: 4}
	if got := s.SegBytes(tr, 1000); got != 500 {
		t.Fatalf("SegBytes = %g, want 500", got)
	}
}

func TestSegmentRange(t *testing.T) {
	// 10 elements in 4 segments: sizes 3,3,2,2.
	cases := []struct{ lo, hi, wantLo, wantHi int }{
		{0, 1, 0, 3}, {1, 2, 3, 6}, {2, 3, 6, 8}, {3, 4, 8, 10}, {0, 4, 0, 10}, {1, 3, 3, 8},
	}
	for _, c := range cases {
		lo, hi := SegmentRange(10, 4, c.lo, c.hi)
		if lo != c.wantLo || hi != c.wantHi {
			t.Fatalf("SegmentRange(10,4,%d,%d) = %d,%d want %d,%d", c.lo, c.hi, lo, hi, c.wantLo, c.wantHi)
		}
	}
	// Payload smaller than segment count: empty middle segments are fine.
	lo, hi := SegmentRange(2, 4, 2, 3)
	if lo != 2 || hi != 2 {
		t.Fatalf("SegmentRange(2,4,2,3) = %d,%d", lo, hi)
	}
}

// TestCacheKeepsPointerIdentity: one Cache resolves equal calls to one
// *Schedule (the executors key further caches on it), distinct calls to
// distinct ones, and build errors are not cached as schedules.
func TestCacheKeepsPointerIdentity(t *testing.T) {
	c := NewCache()
	a, err := c.Broadcast(Binomial, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := c.Broadcast(Binomial, 8, 3); b != a {
		t.Fatal("second lookup built a new schedule")
	}
	if b, _ := c.Broadcast(Binomial, 8, 4); b == a {
		t.Fatal("different roots share a schedule")
	}
	if err := Validate(a); err != nil || a.Root != 3 || a.NumRanks != 8 {
		t.Fatalf("cached schedule is not the requested one: %+v (%v)", a, err)
	}
	if _, err := c.Broadcast(Algorithm("bogus"), 8, 0); err == nil {
		t.Fatal("unknown algorithm must fail through the cache too")
	}
}
