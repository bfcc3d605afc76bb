// Package simalg_test holds the virtual-runner tests — the live/sim and
// engine parity suites among them — at their original import path so their
// ids stay stable; the runner itself is engine.Simulate
// (internal/engine/simulate.go).
package simalg_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/topo"
)

var testMachine = machine.Model{Alpha: 1e-5, Beta: 1e-9, Gamma: 1e-10}

func mustHier(t *testing.T, g topo.Grid, G int) topo.Hier {
	t.Helper()
	h, err := topo.FactorGroups(g, G)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// On a square power-of-two grid with the binomial broadcast every rank
// finishes each broadcast round simultaneously, so the simulated SUMMA time
// must match the closed-form model exactly.
func TestSUMMAMatchesClosedFormBinomial(t *testing.T) {
	g := topo.Grid{S: 8, T: 8}
	cfg := Config{N: 512, Grid: g, Knobs: core.Knobs{BlockSize: 64, Broadcast: sched.Binomial}, Machine: testMachine}
	res, err := SUMMA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par := model.Params{N: 512, P: 64, B: 64, Machine: testMachine, Bcast: model.BinomialTree{}}
	want := model.SUMMA(par)
	if rel := math.Abs(res.Comm-want.Comm()) / want.Comm(); rel > 1e-9 {
		t.Fatalf("sim comm %g vs model %g (rel %g)", res.Comm, want.Comm(), rel)
	}
	if rel := math.Abs(res.Total-want.Total()) / want.Total(); rel > 1e-9 {
		t.Fatalf("sim total %g vs model %g (rel %g)", res.Total, want.Total(), rel)
	}
}

// HSUMMA simulation must agree with the closed form (binomial, square
// grids, square groups) — equation (3)–(5).
func TestHSUMMAMatchesClosedFormBinomial(t *testing.T) {
	g := topo.Grid{S: 8, T: 8}
	for _, G := range []int{1, 4, 16, 64} {
		cfg := Config{N: 512, Grid: g, Knobs: core.Knobs{BlockSize: 64, Broadcast: sched.Binomial}, Groups: mustHier(t, g, G), Machine: testMachine}
		res, err := HSUMMA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		par := model.Params{N: 512, P: 64, B: 64, Machine: testMachine, Bcast: model.BinomialTree{}}
		want := model.HSUMMA(par, float64(G))
		if rel := math.Abs(res.Comm-want.Comm()) / want.Comm(); rel > 1e-9 {
			t.Fatalf("G=%d: sim comm %g vs model %g (rel %g)", G, res.Comm, want.Comm(), rel)
		}
	}
}

// G=1 and G=p must reproduce the SUMMA simulation exactly — same phases,
// same schedules, same clocks.
func TestHSUMMADegeneratesToSUMMA(t *testing.T) {
	g := topo.Grid{S: 4, T: 8}
	for _, alg := range []sched.Algorithm{sched.Binomial, sched.VanDeGeijn} {
		cfg := Config{N: 256, Grid: g, Knobs: core.Knobs{BlockSize: 32, Broadcast: alg}, Machine: testMachine}
		su, err := SUMMA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, G := range []int{1, g.Size()} {
			hcfg := cfg
			hcfg.Groups = mustHier(t, g, G)
			hs, err := HSUMMA(hcfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(hs.Comm-su.Comm) > 1e-12*su.Comm || math.Abs(hs.Total-su.Total) > 1e-12*su.Total {
				t.Fatalf("%s G=%d: HSUMMA sim (%g,%g) != SUMMA sim (%g,%g)",
					alg, G, hs.Comm, hs.Total, su.Comm, su.Total)
			}
		}
	}
}

// The headline mechanism: on a latency-dominated platform, an intermediate
// G beats both endpoints.
func TestInteriorGWins(t *testing.T) {
	g := topo.Grid{S: 16, T: 16}
	lat := machine.Model{Alpha: 1e-3, Beta: 1e-10, Gamma: 0}
	base := Config{N: 1024, Grid: g, Knobs: core.Knobs{BlockSize: 32, Broadcast: sched.VanDeGeijn}, Machine: lat}
	su, err := SUMMA(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Groups = mustHier(t, g, 16) // G = √p
	hs, err := HSUMMA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Comm >= su.Comm {
		t.Fatalf("interior G did not win: HSUMMA %g vs SUMMA %g", hs.Comm, su.Comm)
	}
}

// Compute time must be identical across algorithms and G (same flops).
func TestComputeInvariant(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	base := Config{N: 256, Grid: g, Knobs: core.Knobs{BlockSize: 32}, Machine: testMachine}
	su, _ := SUMMA(base)
	cfg := base
	cfg.Groups = mustHier(t, g, 4)
	hs, _ := HSUMMA(cfg)
	if su.Compute != hs.Compute {
		t.Fatalf("compute differs: %g vs %g", su.Compute, hs.Compute)
	}
	want := testMachine.Compute(2 * 256 * 256 * 256 / 16)
	if math.Abs(su.Compute-want) > 1e-15 {
		t.Fatalf("compute %g, want %g", su.Compute, want)
	}
}

// Total ≈ Comm + Compute when phases serialise (no overlap in the
// simulated algorithm, as in the paper's non-overlapped implementation).
func TestTotalDecomposition(t *testing.T) {
	g := topo.Grid{S: 8, T: 8}
	cfg := Config{N: 512, Grid: g, Knobs: core.Knobs{BlockSize: 64, Broadcast: sched.Binomial}, Machine: testMachine}
	res, _ := SUMMA(cfg)
	if math.Abs(res.Total-(res.Comm+res.Compute)) > 1e-9*res.Total {
		t.Fatalf("total %g != comm %g + compute %g", res.Total, res.Comm, res.Compute)
	}
}

func TestValidationErrors(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	if _, err := SUMMA(Config{N: 0, Grid: g, Knobs: core.Knobs{BlockSize: 8}, Machine: testMachine}); err == nil {
		t.Fatal("accepted n=0")
	}
	hb := Config{N: 256, Grid: g, Knobs: core.Knobs{BlockSize: 8, OuterBlockSize: 12}, Groups: mustHier(t, g, 4), Machine: testMachine}
	if _, err := HSUMMA(hb); err == nil {
		t.Fatal("accepted B not multiple of b")
	}
	// Non-divisible problems are no longer rejected: the spec is padded to
	// the execution shape (the result the padded live run computes, then
	// crops). The padded shape is echoed on the result.
	res, err := SUMMA(Config{N: 100, Grid: g, Knobs: core.Knobs{BlockSize: 8}, Machine: testMachine})
	if err != nil {
		t.Fatalf("n=100 on 4x4 should pad, got %v", err)
	}
	if res.Shape.K != 128 || res.Shape.M != 100 || res.Shape.N != 100 {
		t.Fatalf("unexpected padded shape %v", res.Shape)
	}
}

func TestCannonSquareOnly(t *testing.T) {
	if _, err := Cannon(Config{N: 64, Grid: topo.Grid{S: 2, T: 4}, Knobs: core.Knobs{BlockSize: 8}, Machine: testMachine}); err == nil {
		t.Fatal("Cannon accepted non-square grid")
	}
}

// Cannon's communication per the classic analysis: two alignment phases
// plus 2(q−1) single-hop shift phases of (n/q)² elements each.
func TestCannonCommMagnitude(t *testing.T) {
	q, n := 8, 512
	cfg := Config{N: n, Grid: topo.Grid{S: q, T: q}, Knobs: core.Knobs{BlockSize: n / q}, Machine: testMachine}
	res, err := Cannon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tile := float64(n / q)
	hop := testMachine.Alpha + tile*tile*testMachine.Beta
	want := (2 + 2*float64(q-1)) * hop
	if math.Abs(res.Comm-want) > 1e-9*want {
		t.Fatalf("cannon comm %g, want %g", res.Comm, want)
	}
}

// Contention must slow things down, never speed them up.
func TestContentionMonotone(t *testing.T) {
	g := topo.Grid{S: 8, T: 8}
	cfg := Config{N: 512, Grid: g, Knobs: core.Knobs{BlockSize: 64, Broadcast: sched.VanDeGeijn}, Machine: testMachine}
	free, _ := SUMMA(cfg)
	cfg.Contention = func(f int) float64 { return float64(f) }
	congested, _ := SUMMA(cfg)
	if congested.Comm <= free.Comm {
		t.Fatalf("contention did not slow comm: %g vs %g", congested.Comm, free.Comm)
	}
	if congested.Compute != free.Compute {
		t.Fatal("contention changed compute time")
	}
}

// A miniature of the paper's Figure 8 shape on a 16×16 grid: the G sweep
// has an interior minimum under Van de Geijn on a latency-heavy machine,
// and the endpoints equal SUMMA.
func TestGSweepUShape(t *testing.T) {
	g := topo.Grid{S: 16, T: 16}
	m := machine.Model{Alpha: 1e-4, Beta: 1e-10}
	base := Config{N: 2048, Grid: g, Knobs: core.Knobs{BlockSize: 64, Broadcast: sched.VanDeGeijn}, Machine: m}
	su, err := SUMMA(base)
	if err != nil {
		t.Fatal(err)
	}
	bestG, bestComm := 1, math.Inf(1)
	for G := 1; G <= 256; G *= 2 {
		cfg := base
		cfg.Groups = mustHier(t, g, G)
		hs, err := HSUMMA(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hs.Comm < bestComm {
			bestG, bestComm = G, hs.Comm
		}
	}
	if bestG <= 1 || bestG >= 256 {
		t.Fatalf("minimum at boundary G=%d — no U shape", bestG)
	}
	if bestComm >= su.Comm {
		t.Fatal("best HSUMMA does not beat SUMMA")
	}
}

// The real BG/P preset at a reduced scale still shows the win with the
// paper's b=B blocks.
func TestBGPPresetSmallScale(t *testing.T) {
	pf := machine.BlueGeneP()
	g := topo.Grid{S: 32, T: 32} // 1024 "cores"
	// b chosen so the paper's minimum condition α/β > 2nb/p holds at this
	// reduced scale: 2·8192·64/1024 = 1024 < 3000.
	base := Config{N: 8192, Grid: g, Knobs: core.Knobs{BlockSize: 64, Broadcast: sched.VanDeGeijn}, Machine: pf.Model}
	su, err := SUMMA(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Groups = mustHier(t, g, 32)
	hs, err := HSUMMA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Comm >= su.Comm {
		t.Fatalf("no win on scaled BG/P: HSUMMA %g vs SUMMA %g", hs.Comm, su.Comm)
	}
}
