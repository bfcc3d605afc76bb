package hsumma

import (
	"errors"
	"math"
	"strings"
	"testing"
)

const tol = 1e-10

func TestMultiplyAllAlgorithms(t *testing.T) {
	n := 16
	a := RandomMatrix(n, n, 1)
	b := RandomMatrix(n, n, 2)
	want := Reference(a, b)
	cases := []Config{
		{Procs: 4, Algorithm: AlgSUMMA, BlockSize: 4},
		{Procs: 4, Algorithm: AlgHSUMMA, BlockSize: 4, Groups: 2},
		{Procs: 4, Algorithm: AlgHSUMMA, BlockSize: 2, OuterBlockSize: 8, Groups: 4},
		{Procs: 4, Algorithm: AlgCannon},
		{Procs: 4, Algorithm: AlgFox},
		{Procs: 8, Algorithm: AlgSUMMA, BlockSize: 2},
		{Procs: 8, Algorithm: AlgHSUMMA, BlockSize: 2},
		{Procs: 16, Algorithm: AlgHSUMMA, BlockSize: 4, Groups: 4, Broadcast: BcastVanDeGeijn},
		{Procs: 16, Algorithm: AlgMultilevel, BlockSize: 2},
		{Procs: 1, Algorithm: AlgSUMMA, BlockSize: 4},
	}
	for _, cfg := range cases {
		cfg := cfg
		got, st, err := Multiply(a, b, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if d := MaxAbsDiff(got, want); d > tol {
			t.Fatalf("%+v: result off by %g", cfg, d)
		}
		if cfg.Procs > 1 && st.Messages == 0 && cfg.Algorithm != AlgMultilevel {
			t.Fatalf("%+v: no traffic recorded", cfg)
		}
	}
}

func TestMultiplyDefaultsToHSUMMA(t *testing.T) {
	n := 16
	a := RandomMatrix(n, n, 3)
	b := RandomMatrix(n, n, 4)
	got, _, err := Multiply(a, b, Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, Reference(a, b)); d > tol {
		t.Fatalf("default config off by %g", d)
	}
}

func TestMultiplyExplicitGrid(t *testing.T) {
	n := 16
	a := RandomMatrix(n, n, 5)
	b := RandomMatrix(n, n, 6)
	grid := [2]int{2, 4}
	got, _, err := Multiply(a, b, Config{Procs: 8, Grid: &grid, Algorithm: AlgSUMMA, BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, Reference(a, b)); d > tol {
		t.Fatalf("explicit grid off by %g", d)
	}
	// Mismatched grid must error.
	bad := [2]int{2, 3}
	if _, _, err := Multiply(a, b, Config{Procs: 8, Grid: &bad}); err == nil {
		t.Fatal("grid/procs mismatch accepted")
	}
}

func TestMultiplyInputValidation(t *testing.T) {
	// Rectangular shapes are supported; mismatched inner dimensions are not.
	if _, _, err := Multiply(NewMatrix(4, 6), NewMatrix(5, 4), Config{Procs: 4}); err == nil {
		t.Fatal("mismatched inner dimensions accepted")
	}
	if _, _, err := Multiply(NewMatrix(4, 4), NewMatrix(4, 4), Config{Procs: 0}); err == nil {
		t.Fatal("zero procs accepted")
	}
	// Unknown names — "strassen" included: there is no Strassen in the
	// runtime — fail on the paths hsumma-run's live and sim modes take,
	// listing the algorithms there are.
	for _, name := range []Algorithm{"magic", "strassen"} {
		const have = "summa, hsumma, multilevel, cannon, fox, auto"
		if _, _, err := Multiply(NewMatrix(4, 4), NewMatrix(4, 4), Config{Procs: 4, Algorithm: name}); err == nil || !strings.Contains(err.Error(), have) {
			t.Fatalf("Multiply with algorithm %q: err %v, want one listing %s", name, err, have)
		}
		if _, err := Simulate(SimConfig{N: 4, Procs: 4, Algorithm: name, Machine: PlatformGrid5000().Model}); err == nil || !strings.Contains(err.Error(), have) {
			t.Fatalf("Simulate with algorithm %q: err %v, want one listing %s", name, err, have)
		}
	}
	// The square-only baselines reject rectangular problems via the shared
	// ErrSquareOnly.
	if _, _, err := Multiply(NewMatrix(4, 6), NewMatrix(6, 4), Config{Procs: 4, Algorithm: AlgCannon}); !errors.Is(err, ErrSquareOnly) {
		t.Fatalf("Cannon on a rectangular problem: got %v, want ErrSquareOnly", err)
	}
	if _, _, err := Multiply(NewMatrix(4, 6), NewMatrix(6, 4), Config{Procs: 4, Algorithm: AlgFox}); !errors.Is(err, ErrSquareOnly) {
		t.Fatalf("Fox on a rectangular problem: got %v, want ErrSquareOnly", err)
	}
}

func TestSimulateSUMMAvsHSUMMA(t *testing.T) {
	m := Machine{Alpha: 1e-3, Beta: 1e-10, Gamma: 1e-10}
	base := SimConfig{N: 1024, Procs: 256, BlockSize: 32, Broadcast: BcastVanDeGeijn, Machine: m}
	su, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Algorithm = AlgHSUMMA
	hs, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Comm >= su.Comm {
		t.Fatalf("HSUMMA sim %g not below SUMMA %g on latency-bound machine", hs.Comm, su.Comm)
	}
	if hs.Groups <= 1 {
		t.Fatalf("auto group selection picked G=%d", hs.Groups)
	}
}

func TestSimulateCannon(t *testing.T) {
	m := Machine{Alpha: 1e-5, Beta: 1e-9}
	res, err := Simulate(SimConfig{N: 256, Procs: 16, BlockSize: 64, Algorithm: AlgCannon, Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm <= 0 {
		t.Fatal("no simulated communication")
	}
}

func TestSimulateContentionNeedsPlatform(t *testing.T) {
	if _, err := Simulate(SimConfig{N: 256, Procs: 16, BlockSize: 64, Machine: Machine{Alpha: 1}, Contention: true}); err == nil {
		t.Fatal("contention without platform accepted")
	}
	pf := PlatformGrid5000()
	res, err := Simulate(SimConfig{N: 256, Procs: 16, BlockSize: 64, Machine: pf.Model, Contention: true, Platform: &pf})
	if err != nil {
		t.Fatal(err)
	}
	free, _ := Simulate(SimConfig{N: 256, Procs: 16, BlockSize: 64, Machine: pf.Model})
	if res.Comm <= free.Comm {
		t.Fatal("contention did not slow the shared-segment platform")
	}
}

func TestPredictAPI(t *testing.T) {
	pf := PlatformBlueGeneP()
	// The interior optimum exists under the Van de Geijn broadcast
	// (Table II); under the binomial model HSUMMA's cost is G-invariant.
	par := ModelParams{N: 65536, P: 16384, B: 256, Machine: pf.Model, Bcast: VanDeGeijnModel{}}
	if !MinimumAtSqrtP(par) {
		t.Fatal("paper's BG/P condition should hold")
	}
	g, cost := PredictOptimalG(par)
	if g <= 1 || cost.Comm() <= 0 {
		t.Fatalf("degenerate prediction g=%d cost=%+v", g, cost)
	}
	if Predict(par, 1).Comm() <= cost.Comm() {
		t.Fatal("optimal G not better than SUMMA endpoint")
	}
}

func TestRunExperimentAPI(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 11 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	out, err := RunExperiment("valbgp", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "valbgp") || !strings.Contains(out, "2nb/p") {
		t.Fatalf("unexpected report:\n%s", out)
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// The plan experiment's report is a function of its options alone: it plans
// on a planner of its own, so a second call in the same process — which the
// shared planner would serve from its cache — prints the same cache line.
func TestPlanExperimentRepeatable(t *testing.T) {
	var outs [2]string
	for i := range outs {
		var err error
		if outs[i], err = RunExperiment("plan", ExperimentOptions{Quick: true}); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0] != outs[1] {
		t.Fatalf("two runs in one process differ:\n%s\n---\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "0 hits, 3 misses, 0 replays this run") {
		t.Fatalf("unexpected cache line:\n%s", outs[0])
	}
}

// End-to-end consistency: the runtime's measured comm traffic for HSUMMA
// at G=1 equals plain SUMMA's (the degeneracy claim at the traffic level).
func TestTrafficDegeneracy(t *testing.T) {
	n := 32
	a := RandomMatrix(n, n, 9)
	b := RandomMatrix(n, n, 10)
	_, s1, err := Multiply(a, b, Config{Procs: 16, Algorithm: AlgSUMMA, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := Multiply(a, b, Config{Procs: 16, Algorithm: AlgHSUMMA, Groups: 1, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Bytes != s2.Bytes {
		t.Fatalf("G=1 traffic %d != SUMMA traffic %d", s2.Bytes, s1.Bytes)
	}
}

func TestSimulateMatchesPredictOnSquareGrid(t *testing.T) {
	m := Machine{Alpha: 1e-5, Beta: 1e-9, Gamma: 0}
	sim, err := Simulate(SimConfig{N: 512, Procs: 64, BlockSize: 64, Algorithm: AlgSUMMA, Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	par := ModelParams{N: 512, P: 64, B: 64, Machine: m}
	pred := Predict(par, 1) // G=1 is SUMMA
	if rel := math.Abs(sim.Comm-pred.Comm()) / pred.Comm(); rel > 1e-9 {
		t.Fatalf("sim %g vs closed form %g (rel %g)", sim.Comm, pred.Comm(), rel)
	}
}

func TestBroadcastByName(t *testing.T) {
	cases := map[string]interface{}{
		"":                  BcastBinomial,
		"binomial":          BcastBinomial,
		"vandegeijn":        BcastVanDeGeijn,
		"vdg":               BcastVanDeGeijn,
		"scatter-allgather": BcastVanDeGeijn,
	}
	for name, want := range cases {
		got, err := BroadcastByName(name)
		if err != nil {
			t.Fatalf("BroadcastByName(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("BroadcastByName(%q) = %v, want %v", name, got, want)
		}
	}
	// Unknown names used to silently fall back to binomial; they must now
	// be rejected, as must the retired schedules, naming the two the
	// paper's cost tables cover.
	for _, name := range []string{"binomal", "flat", "binary", "chain", "pipeline"} {
		if _, err := BroadcastByName(name); err == nil || !strings.Contains(err.Error(), "binomial, vandegeijn") {
			t.Fatalf("BroadcastByName(%q): err %v, want one naming binomial, vandegeijn", name, err)
		}
	}
}

// Every algorithm Multiply runs must also run on the virtual communicator —
// the acceptance invariant of the unified engine.
func TestSimulateAllAlgorithms(t *testing.T) {
	m := Machine{Alpha: 1e-5, Beta: 1e-9, Gamma: 1e-10}
	for _, cfg := range []SimConfig{
		{N: 64, Procs: 16, BlockSize: 4, Algorithm: AlgSUMMA, Machine: m},
		{N: 64, Procs: 16, BlockSize: 4, Algorithm: AlgHSUMMA, Groups: 4, Machine: m},
		{N: 64, Procs: 16, BlockSize: 4, Algorithm: AlgMultilevel,
			Levels: []Level{{I: 2, J: 2, BlockSize: 8}}, Machine: m},
		{N: 64, Procs: 16, Algorithm: AlgCannon, Machine: m},
		{N: 64, Procs: 16, Algorithm: AlgFox, Machine: m},
	} {
		cfg := cfg
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Algorithm, err)
		}
		if res.Comm <= 0 || res.Total < res.Comm {
			t.Fatalf("%s: degenerate simulated times %+v", cfg.Algorithm, res)
		}
	}
}

// BlockSize: 0 means "auto" in Simulate exactly as in Multiply: both paths
// share one default rule (tune.DefaultBlockSize), so a zero-b simulation
// measures the same configuration a zero-b live run executes.
func TestSimulateDefaultsBlockSize(t *testing.T) {
	m := Machine{Alpha: 1e-5, Beta: 1e-9}
	res, err := Simulate(SimConfig{N: 256, Procs: 16, Algorithm: AlgSUMMA, Machine: m})
	if err != nil {
		t.Fatalf("SUMMA simulation without BlockSize rejected: %v", err)
	}
	// 256/4 = 64 per tile: the shared rule picks the largest power of two
	// ≤ 64 dividing the tile, i.e. 64.
	if res.BlockSize != 64 {
		t.Fatalf("defaulted block size %d, want 64", res.BlockSize)
	}
	explicit, err := Simulate(SimConfig{N: 256, Procs: 16, Algorithm: AlgSUMMA, BlockSize: 64, Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm != explicit.Comm || res.Bytes != explicit.Bytes {
		t.Fatalf("auto-b simulation (%g s, %d B) differs from explicit b=64 (%g s, %d B)",
			res.Comm, res.Bytes, explicit.Comm, explicit.Bytes)
	}
	if _, err := Simulate(SimConfig{N: 64, Procs: 16, Algorithm: AlgCannon, Machine: m}); err != nil {
		t.Fatalf("Cannon simulation without BlockSize rejected: %v", err)
	}
}
