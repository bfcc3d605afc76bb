package hsumma

// Cross-path integration tests: the three computation paths (real runtime,
// discrete-event simulator, closed-form model) must tell one consistent
// story about the same algorithm. These tests exercise the public API end
// to end.

import (
	"math"
	"testing"

	"repro/internal/topo"
)

// The runtime's measured traffic for one SUMMA run must equal the byte
// count predicted from the broadcast schedules: n/b steps, each moving one
// (n/s)×b panel over every row (via a (t−1)-edge tree) and one b×(n/t)
// panel over every column.
func TestRuntimeTrafficMatchesSchedulePrediction(t *testing.T) {
	n, p, b := 32, 16, 4
	g, _ := topo.SquarestGrid(p) // 4x4
	a := RandomMatrix(n, n, 1)
	bb := RandomMatrix(n, n, 2)
	_, st, err := Multiply(a, bb, Config{Procs: p, Algorithm: AlgSUMMA, BlockSize: b, Broadcast: BcastBinomial})
	if err != nil {
		t.Fatal(err)
	}
	steps := n / b
	aPanelBytes := 8 * (n / g.S) * b
	bPanelBytes := 8 * b * (n / g.T)
	// Binomial tree moves (size-1) copies of the payload per broadcast.
	want := int64(steps * (g.S*(g.T-1)*aPanelBytes + g.T*(g.S-1)*bPanelBytes))
	if st.Bytes != want {
		t.Fatalf("runtime moved %d bytes, schedule predicts %d", st.Bytes, want)
	}
}

// HSUMMA's aggregate traffic at any G with tree broadcasts equals SUMMA's:
// the paper's "the amount of data sent is the same as in SUMMA".
func TestTrafficInvariantAcrossG(t *testing.T) {
	n, p, b := 32, 16, 4
	a := RandomMatrix(n, n, 3)
	bb := RandomMatrix(n, n, 4)
	_, ref, err := Multiply(a, bb, Config{Procs: p, Algorithm: AlgSUMMA, BlockSize: b})
	if err != nil {
		t.Fatal(err)
	}
	for _, G := range []int{1, 2, 4, 8, 16} {
		_, st, err := Multiply(a, bb, Config{Procs: p, Algorithm: AlgHSUMMA, Groups: G, BlockSize: b})
		if err != nil {
			t.Fatal(err)
		}
		if st.Bytes != ref.Bytes {
			t.Fatalf("G=%d traffic %d != SUMMA %d", G, st.Bytes, ref.Bytes)
		}
	}
}

// Under the binomial broadcast the closed-form model says HSUMMA's cost is
// exactly G-invariant; the simulator must reproduce that invariance through
// entirely different machinery (virtual clocks over generated schedules).
func TestSimulatorReproducesBinomialGInvariance(t *testing.T) {
	m := Machine{Alpha: 1e-5, Beta: 1e-9}
	var ref float64
	for i, G := range []int{1, 4, 16, 64, 256} {
		res, err := Simulate(SimConfig{
			N: 2048, Procs: 256, BlockSize: 64, Groups: G,
			Algorithm: AlgHSUMMA, Broadcast: BcastBinomial, Machine: m,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.Comm
			continue
		}
		if math.Abs(res.Comm-ref) > 1e-9*ref {
			t.Fatalf("binomial G=%d comm %g differs from G=1's %g", G, res.Comm, ref)
		}
	}
}

// The simulator's SUMMA-vs-HSUMMA verdict must agree with the closed-form
// condition (eq. 10) on both sides of the threshold.
func TestSimulatorAgreesWithConditionBothSides(t *testing.T) {
	const n, p, b = 2048, 256, 64
	for _, c := range []struct {
		name      string
		m         Machine
		shouldWin bool
	}{
		{"latency-bound", Machine{Alpha: 1e-3, Beta: 1e-11}, true},
		{"bandwidth-bound", Machine{Alpha: 1e-9, Beta: 1e-7}, false},
	} {
		par := ModelParams{N: n, P: p, B: b, Machine: c.m, Bcast: VanDeGeijnModel{}}
		if MinimumAtSqrtP(par) != c.shouldWin {
			t.Fatalf("%s: condition verdict unexpected", c.name)
		}
		su, err := Simulate(SimConfig{N: n, Procs: p, BlockSize: b, Algorithm: AlgSUMMA,
			Broadcast: BcastVanDeGeijn, Machine: c.m})
		if err != nil {
			t.Fatal(err)
		}
		hs, err := Simulate(SimConfig{N: n, Procs: p, BlockSize: b, Algorithm: AlgHSUMMA,
			Groups: 16, Broadcast: BcastVanDeGeijn, Machine: c.m})
		if err != nil {
			t.Fatal(err)
		}
		simWin := hs.Comm < su.Comm*(1-1e-9)
		if simWin != c.shouldWin {
			t.Fatalf("%s: simulator says win=%v (%g vs %g), condition says %v",
				c.name, simWin, hs.Comm, su.Comm, c.shouldWin)
		}
	}
}

// All five distributed algorithms agree on the same product.
func TestAllAlgorithmsAgreeEndToEnd(t *testing.T) {
	n := 24
	a := RandomMatrix(n, n, 11)
	bb := RandomMatrix(n, n, 12)
	want := Reference(a, bb)
	for _, cfg := range []Config{
		{Procs: 4, Algorithm: AlgSUMMA, BlockSize: 3},
		{Procs: 4, Algorithm: AlgHSUMMA, Groups: 2, BlockSize: 3},
		{Procs: 4, Algorithm: AlgCannon},
		{Procs: 4, Algorithm: AlgFox},
		{Procs: 4, Algorithm: AlgMultilevel, BlockSize: 3, Levels: []Level{{I: 2, J: 1, BlockSize: 6}}},
	} {
		got, _, err := Multiply(a, bb, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Algorithm, err)
		}
		if d := MaxAbsDiff(got, want); d > 1e-10 {
			t.Fatalf("%s differs from reference by %g", cfg.Algorithm, d)
		}
	}
}
