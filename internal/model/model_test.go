package model

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sched"
)

func grid5000Params() Params {
	return Params{N: 8192, P: 128, B: 64, Machine: machine.Grid5000().Model, Bcast: VanDeGeijn{}}
}

func bgpParams() Params {
	return Params{N: 65536, P: 16384, B: 256, Machine: machine.BlueGeneP().Model, Bcast: VanDeGeijn{}}
}

func exascaleParams() Params {
	return Params{N: 1 << 22, P: 1 << 20, B: 256, Machine: machine.Exascale().Model, Bcast: VanDeGeijn{}}
}

// The degeneracy identity of Section IV: T_HS(G=1) = T_HS(G=p) = T_S.
func TestHSUMMADegeneratesToSUMMA(t *testing.T) {
	for _, bc := range []Broadcast{BinomialTree{}, VanDeGeijn{}} {
		par := Params{N: 4096, P: 1024, B: 64, Machine: machine.Model{Alpha: 1e-5, Beta: 1e-9}, Bcast: bc}
		s := SUMMA(par).Comm()
		h1 := HSUMMA(par, 1).Comm()
		hp := HSUMMA(par, float64(par.P)).Comm()
		if math.Abs(s-h1) > 1e-12*s || math.Abs(s-hp) > 1e-12*s {
			t.Fatalf("%s: T_S=%g T_HS(1)=%g T_HS(p)=%g", bc.Name(), s, h1, hp)
		}
	}
}

// Equation (9): ∂T_HS/∂G = 0 at G = √p for the Van de Geijn model.
func TestStationaryPointAtSqrtP(t *testing.T) {
	par := bgpParams()
	sq := math.Sqrt(float64(par.P))
	d := DerivativeG(par, sq)
	// Scale: compare against the derivative away from the extremum.
	dRef := math.Abs(DerivativeG(par, sq/4)) + math.Abs(DerivativeG(par, sq*4))
	if math.Abs(d) > 1e-3*dRef {
		t.Fatalf("derivative at √p = %g, reference magnitude %g", d, dRef)
	}
}

// Equations (10)/(11) with the paper's own platform numbers: both Grid'5000
// (α/β = 1e5 ≫ 2nb/p = 8192) and BG/P (3000 > 2048) satisfy the interior-
// minimum condition; the interior minimum must beat the endpoints.
func TestMinimumConditionOnPaperPlatforms(t *testing.T) {
	for _, par := range []Params{grid5000Params(), bgpParams(), exascaleParams()} {
		if !MinimumAtSqrtP(par) {
			t.Fatalf("platform %v should satisfy the minimum condition", par.Machine)
		}
		sq := math.Sqrt(float64(par.P))
		interior := HSUMMA(par, sq).Comm()
		edge := SUMMA(par).Comm()
		if interior >= edge {
			t.Fatalf("interior minimum %g not below endpoint %g", interior, edge)
		}
	}
}

// When the condition flips (huge bandwidth cost, tiny latency), G=√p must
// be a maximum: endpoints win.
func TestMaximumWhenConditionFails(t *testing.T) {
	par := Params{N: 65536, P: 256, B: 256,
		Machine: machine.Model{Alpha: 1e-9, Beta: 1e-6}, Bcast: VanDeGeijn{}}
	if MinimumAtSqrtP(par) {
		t.Fatal("condition should fail for latency-free machine")
	}
	sq := math.Sqrt(float64(par.P))
	interior := HSUMMA(par, sq).Comm()
	edge := SUMMA(par).Comm()
	if interior <= edge {
		t.Fatalf("interior %g should exceed endpoint %g when condition fails", interior, edge)
	}
}

// The closed forms of Tables I and II must agree with the factors derived
// from the executable schedules at powers of two, both broadcasts exactly.
func TestClosedFormsMatchSchedules(t *testing.T) {
	binSched := NewFromSchedule(sched.Binomial)
	vdgSched := NewFromSchedule(sched.VanDeGeijn)
	for _, p := range []float64{2, 4, 8, 16, 64, 128, 1024} {
		if l, ls := (BinomialTree{}).Latency(p), binSched.Latency(p); math.Abs(l-ls) > 1e-9 {
			t.Fatalf("binomial L(%g): closed %g sched %g", p, l, ls)
		}
		if w, ws := (BinomialTree{}).Bandwidth(p), binSched.Bandwidth(p); math.Abs(w-ws) > 1e-9 {
			t.Fatalf("binomial W(%g): closed %g sched %g", p, w, ws)
		}
		if l, ls := (VanDeGeijn{}).Latency(p), vdgSched.Latency(p); math.Abs(l-ls) > 1e-9 {
			t.Fatalf("vdg L(%g): closed %g sched %g", p, l, ls)
		}
		if w, ws := (VanDeGeijn{}).Bandwidth(p), vdgSched.Bandwidth(p); math.Abs(w-ws) > 1e-9 {
			t.Fatalf("vdg W(%g): closed %g sched %g", p, w, ws)
		}
	}
}

func TestFromScheduleP1IsZero(t *testing.T) {
	m := NewFromSchedule(sched.Binomial)
	if m.Latency(1) != 0 || m.Bandwidth(1) != 0 {
		t.Fatal("L(1) and W(1) must be 0 (paper's boundary condition)")
	}
}

// Optimal-G search over the BG/P configuration must land in the interior,
// and the paper's reported optimum (G = 512 on 16384 cores) must be within
// a factor ~4 of our model's optimum (the model is congestion-free, the
// machine was not — the paper itself reports the same kind of offset).
func TestOptimalGOnBGP(t *testing.T) {
	par := bgpParams()
	var candidates []int
	for g := 1; g <= par.P; g *= 2 {
		candidates = append(candidates, g)
	}
	bestG, best := OptimalG(par, candidates)
	if bestG <= 1 || bestG >= par.P {
		t.Fatalf("optimum G=%d not interior", bestG)
	}
	if best.Comm() >= SUMMA(par).Comm() {
		t.Fatal("optimum does not beat SUMMA")
	}
	if bestG < 128 || bestG > 4096 {
		t.Fatalf("optimum G=%d implausibly far from paper's 512 / √p=128", bestG)
	}
}

// Figure 10's qualitative content: on the exascale platform the HSUMMA
// curve over G is U-shaped with an interior minimum several times below
// the SUMMA endpoints.
func TestExascalePredictionShape(t *testing.T) {
	par := exascaleParams()
	endpoint := SUMMA(par).Comm()
	sq := math.Sqrt(float64(par.P)) // 1024
	mid := HSUMMA(par, sq).Comm()
	if mid >= endpoint {
		t.Fatal("no exascale win predicted")
	}
	if endpoint/mid < 1.5 {
		t.Fatalf("exascale improvement only %.2fx, expected a clear win", endpoint/mid)
	}
	// U shape: cost decreases from G=1 to √p and increases after.
	prev := HSUMMA(par, 1).Comm()
	for g := 4.0; g <= sq; g *= 4 {
		cur := HSUMMA(par, g).Comm()
		if cur > prev+1e-12 {
			t.Fatalf("not decreasing towards √p at G=%g", g)
		}
		prev = cur
	}
	prev = HSUMMA(par, sq).Comm()
	for g := sq * 4; g <= float64(par.P); g *= 4 {
		cur := HSUMMA(par, g).Comm()
		if cur < prev-1e-12 {
			t.Fatalf("not increasing past √p at G=%g", g)
		}
		prev = cur
	}
}

// Computation cost is 2n³/p·γ regardless of G — HSUMMA changes only
// communication (paper Tables I and II, "Comp. Cost" column).
func TestComputeCostIndependentOfG(t *testing.T) {
	par := bgpParams()
	c0 := SUMMA(par).Compute
	for _, g := range []float64{1, 4, 64, 512, 16384} {
		if c := HSUMMA(par, g).Compute; c != c0 {
			t.Fatalf("compute cost changed with G=%g: %g vs %g", g, c, c0)
		}
	}
	want := 2 * math.Pow(65536, 3) / 16384 * par.Machine.Gamma
	if math.Abs(c0-want) > 1e-9*want {
		t.Fatalf("compute cost %g, want %g", c0, want)
	}
}

// Splitting b and B: larger outer blocks reduce outer latency while leaving
// bandwidth unchanged.
func TestSplitBlocksReduceOuterLatency(t *testing.T) {
	par := bgpParams()
	g := 128.0
	same := HSUMMASplitBlocks(par, g, par.B)
	bigger := HSUMMASplitBlocks(par, g, par.B*4)
	if bigger.Latency >= same.Latency {
		t.Fatal("larger outer block should reduce latency")
	}
	if math.Abs(bigger.Bandwidth-same.Bandwidth) > 1e-12*same.Bandwidth {
		t.Fatal("outer block size must not change bandwidth term")
	}
	if same.Comm() <= 0 {
		t.Fatal("degenerate cost")
	}
}

func TestSplitBlocksValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-multiple outer block accepted")
		}
	}()
	HSUMMASplitBlocks(bgpParams(), 4, 300)
}

func TestValidateRejects(t *testing.T) {
	bad := []Params{
		{N: 0, P: 4, B: 1},
		{N: 4, P: 0, B: 1},
		{N: 4, P: 4, B: 0},
	}
	for _, par := range bad {
		if par.Validate() == nil {
			t.Fatalf("accepted %+v", par)
		}
	}
}

func TestHSUMMARejectsBadG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("G out of range accepted")
		}
	}()
	HSUMMA(grid5000Params(), 0.5)
}

// Property: for any machine with α,β > 0 and any G in (1,p), HSUMMA's cost
// never exceeds both endpoints by more than numerical noise... stronger:
// cost at any G is bounded below by the compute cost and above by
// T_S(latency)+T_S(bandwidth) when the condition holds.
func TestQuickInteriorNeverWorseThanWorstEndpoint(t *testing.T) {
	f := func(a, b uint16, gExp uint8) bool {
		par := Params{
			N: 1 << 14, P: 1 << 12, B: 64,
			Machine: machine.Model{Alpha: 1e-8 + float64(a)*1e-9, Beta: 1e-12 + float64(b)*1e-12},
			Bcast:   VanDeGeijn{},
		}
		G := float64(int(1) << (gExp % 13))
		c := HSUMMA(par, G).Comm()
		s := SUMMA(par).Comm()
		// The interior can only be worse than the endpoints when the
		// condition fails, and then the maximum sits at √p; in all
		// cases cost stays within [min(s, T(√p)), max(s, T(√p))].
		lo := math.Min(s, HSUMMA(par, math.Sqrt(float64(par.P))).Comm())
		hi := math.Max(s, HSUMMA(par, math.Sqrt(float64(par.P))).Comm())
		return c >= lo-1e-9*hi && c <= hi+1e-9*hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Bandwidth factor of HSUMMA at G=√p with Van de Geijn is 8(1−1/p^¼)·n²/√p
// (the last row of Table II).
func TestTableIIOptimalRow(t *testing.T) {
	par := bgpParams()
	p := float64(par.P)
	n := float64(par.N)
	got := HSUMMA(par, math.Sqrt(p)).Bandwidth
	want := 8 * (1 - 1/math.Pow(p, 0.25)) * n * n / math.Sqrt(p) * par.Machine.Beta * par.elemBytes()
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("Table II optimal bandwidth: got %g want %g", got, want)
	}
	gotL := HSUMMA(par, math.Sqrt(p)).Latency
	wantL := (math.Log2(p) + 4*(math.Pow(p, 0.25)-1)) * n / float64(par.B) * par.Machine.Alpha
	if math.Abs(gotL-wantL) > 1e-9*wantL {
		t.Fatalf("Table II optimal latency: got %g want %g", gotL, wantL)
	}
}
