package model

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
)

func TestBroadcastModelNames(t *testing.T) {
	if (BinomialTree{}).Name() != "binomial" || (VanDeGeijn{}).Name() != "vandegeijn" {
		t.Fatal("model names wrong")
	}
	// For maps each schedule to its own table's model, and the empty name
	// to binomial.
	for alg, want := range map[sched.Algorithm]string{"": "binomial", sched.Binomial: "binomial", sched.VanDeGeijn: "vandegeijn"} {
		if got := For(alg).Name(); got != want {
			t.Fatalf("For(%q) = %s, want %s", alg, got, want)
		}
	}
}

func TestVanDeGeijnBoundaries(t *testing.T) {
	v := VanDeGeijn{}
	if v.Latency(1) != 0 || v.Bandwidth(1) != 0 {
		t.Fatal("vdg L(1)/W(1) must be 0")
	}
	if v.Bandwidth(1e12) >= 2 {
		t.Fatal("vdg W must stay below 2")
	}
}

func TestDerivativeSignsAroundOptimum(t *testing.T) {
	par := Params{N: 65536, P: 16384, B: 256,
		Machine: machine.Model{Alpha: 3e-6, Beta: 1e-9}, Bcast: VanDeGeijn{}}
	sq := math.Sqrt(float64(par.P))
	if DerivativeG(par, sq/8) >= 0 {
		t.Fatal("cost should decrease left of √p when the condition holds")
	}
	if DerivativeG(par, sq*8) <= 0 {
		t.Fatal("cost should increase right of √p when the condition holds")
	}
}

func TestOptimalGRestrictedCandidates(t *testing.T) {
	par := Params{N: 65536, P: 16384, B: 256,
		Machine: machine.Model{Alpha: 3e-6, Beta: 1e-9}, Bcast: VanDeGeijn{}}
	g, cost := OptimalG(par, []int{1, 16384})
	if g != 1 && g != 16384 {
		t.Fatalf("restricted search escaped candidates: %d", g)
	}
	if math.Abs(cost.Comm()-SUMMA(par).Comm()) > 1e-12*cost.Comm() {
		t.Fatal("endpoint cost must equal SUMMA")
	}
	// Out-of-range candidates are ignored gracefully.
	g2, _ := OptimalG(par, []int{-5, 0, 128, 1 << 30})
	if g2 != 128 {
		t.Fatalf("expected 128 to win, got %d", g2)
	}
}

func TestCostAccessors(t *testing.T) {
	c := Cost{Latency: 1, Bandwidth: 2, Compute: 3}
	if c.Comm() != 3 || c.Total() != 6 {
		t.Fatalf("accessors wrong: %v %v", c.Comm(), c.Total())
	}
}

func TestSafeLog2(t *testing.T) {
	if safeLog2(0.5) != 0 || safeLog2(1) != 0 {
		t.Fatal("log2 below 1 must clamp to 0")
	}
	if math.Abs(safeLog2(8)-3) > 1e-15 {
		t.Fatal("log2(8) != 3")
	}
}

// MinimumAtSqrtP respects the ElemBytes unit knob: byte-counting tightens
// the condition by 8x.
func TestMinimumConditionUnits(t *testing.T) {
	par := Params{N: 65536, P: 16384, B: 256,
		Machine: machine.Model{Alpha: 3e-6, Beta: 1e-9}, Bcast: VanDeGeijn{}}
	if !MinimumAtSqrtP(par) {
		t.Fatal("element units: paper's condition should hold")
	}
	par.ElemBytes = 8
	if MinimumAtSqrtP(par) {
		t.Fatal("byte units: 375 < 2048, condition should fail")
	}
}
