package hsumma

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// The rectangular property test (the public-surface acceptance): for a
// grid of shapes spanning tall, wide, fat-K, skinny and non-divisible
// (ragged/padding) cases, every algorithm's distributed result must match
// the local blas reference GEMM, and the live run's aggregate traffic
// must match the simulated run of the same configuration bit-for-bit.

// propertyShapes is the shape grid: divisible and non-divisible M/N/K in
// every aspect class.
func propertyShapes() []Shape {
	return []Shape{
		{M: 32, N: 32, K: 32},  // square, divisible
		{M: 64, N: 16, K: 32},  // tall
		{M: 16, N: 64, K: 32},  // wide
		{M: 16, N: 16, K: 128}, // fat-K
		{M: 64, N: 64, K: 8},   // skinny-K
		{M: 33, N: 17, K: 29},  // prime-ish: every dimension pads
		{M: 40, N: 36, K: 50},  // K ragged on a 4-divisible grid
		{M: 3, N: 70, K: 10},   // M smaller than the grid dimension
	}
}

func TestRectPropertyLiveMatchesReference(t *testing.T) {
	const procs = 4
	for _, sh := range propertyShapes() {
		for _, alg := range []Algorithm{AlgSUMMA, AlgHSUMMA, AlgMultilevel, AlgCannon, AlgFox} {
			sh, alg := sh, alg
			t.Run(fmt.Sprintf("%s/%s", sh, alg), func(t *testing.T) {
				a := RandomMatrix(sh.M, sh.K, 901)
				b := RandomMatrix(sh.K, sh.N, 902)
				cfg := Config{Procs: procs, Algorithm: alg}
				if alg == AlgMultilevel {
					cfg.Levels = []Level{{I: 2, J: 2, BlockSize: 4}}
					cfg.BlockSize = 2
				}
				got, stats, err := Multiply(a, b, cfg)
				if alg == AlgCannon || alg == AlgFox {
					if sh.IsSquare() {
						if err != nil {
							t.Fatal(err)
						}
					} else {
						if !errors.Is(err, ErrSquareOnly) {
							t.Fatalf("square-only %s on %s: got %v, want ErrSquareOnly", alg, sh, err)
						}
						return
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if got.Rows != sh.M || got.Cols != sh.N {
					t.Fatalf("result is %dx%d, want %dx%d", got.Rows, got.Cols, sh.M, sh.N)
				}
				want := Reference(a, b)
				if d := MaxAbsDiff(got, want); d > 1e-10 {
					t.Fatalf("distributed %s differs from blas reference by %g on %s", alg, d, sh)
				}
				if stats.Messages == 0 && procs > 1 {
					t.Fatal("no traffic recorded")
				}
			})
		}
	}
}

// The same configurations simulated must report exactly the live run's
// aggregate traffic — the parity invariant extended over the shape grid,
// including the padded (non-divisible) shapes.
func TestRectPropertyLiveSimTrafficParity(t *testing.T) {
	const procs = 4
	machine := Machine{Alpha: 1e-5, Beta: 1e-9, Gamma: 1e-10}
	for _, sh := range propertyShapes() {
		for _, alg := range []Algorithm{AlgSUMMA, AlgHSUMMA, AlgMultilevel} {
			sh, alg := sh, alg
			t.Run(fmt.Sprintf("%s/%s", sh, alg), func(t *testing.T) {
				a := RandomMatrix(sh.M, sh.K, 911)
				b := RandomMatrix(sh.K, sh.N, 912)
				cfg := Config{Procs: procs, Algorithm: alg}
				scfg := SimConfig{Shape: sh, Procs: procs, Algorithm: alg, Machine: machine}
				if alg == AlgMultilevel {
					cfg.Levels = []Level{{I: 2, J: 2, BlockSize: 4}}
					cfg.BlockSize = 2
					scfg.Levels = cfg.Levels
					scfg.BlockSize = cfg.BlockSize
				}
				_, live, err := Multiply(a, b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := Simulate(scfg)
				if err != nil {
					t.Fatal(err)
				}
				if live.Messages != sim.Messages || live.Bytes != sim.Bytes {
					t.Fatalf("traffic parity broken on %s/%s: live (%d msgs, %d B) vs sim (%d msgs, %d B)",
						sh, alg, live.Messages, live.Bytes, sim.Messages, sim.Bytes)
				}
				if err := sim.Shape.Validate(); err != nil {
					t.Fatalf("sim echoed invalid shape: %v", err)
				}
				// The echoed execution shape never shrinks the problem.
				if sim.Shape.M < sh.M || sim.Shape.N < sh.N || sim.Shape.K < sh.K {
					t.Fatalf("execution shape %v smaller than requested %v", sim.Shape, sh)
				}
			})
		}
	}
}

// The non-divisible shapes must round-trip the ragged dist paths exactly:
// Scatter→Gather over each operand's own (balanced, ragged) BlockMap is
// the identity.
func TestRectRaggedDistRoundTrip(t *testing.T) {
	g := topo.Grid{S: 2, T: 2}
	for _, sh := range propertyShapes() {
		sh := sh
		t.Run(sh.String(), func(t *testing.T) {
			for _, op := range []struct {
				name       string
				rows, cols int
			}{
				{"A", sh.M, sh.K}, {"B", sh.K, sh.N}, {"C", sh.M, sh.N},
			} {
				bm, err := dist.NewBlockMap(op.rows, op.cols, g)
				if err != nil {
					t.Fatal(err)
				}
				m := matrix.Random(op.rows, op.cols, 77)
				if got := bm.Gather(bm.Scatter(m)); !matrix.Equal(got, m) {
					t.Fatalf("%s %dx%d does not round-trip Scatter→Gather", op.name, op.rows, op.cols)
				}
				if !bm.Uniform() {
					// The ragged path really is exercised for the
					// non-divisible shapes.
					r, c := bm.TileShape(g.Size() - 1)
					if r > bm.LocalRows() || c > bm.LocalCols() {
						t.Fatalf("ragged tile %dx%d exceeds the max tile", r, c)
					}
				}
			}
		})
	}
}

// SimulateShape is the explicit-shape convenience; it must agree with
// setting SimConfig.Shape directly.
func TestSimulateShape(t *testing.T) {
	machine := Machine{Alpha: 1e-5, Beta: 1e-9, Gamma: 1e-10}
	sh := Shape{M: 512, N: 64, K: 256}
	direct, err := Simulate(SimConfig{Shape: sh, Procs: 16, Algorithm: AlgSUMMA, Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	viaHelper, err := SimulateShape(sh, SimConfig{N: 999 /* overridden */, Procs: 16, Algorithm: AlgSUMMA, Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	if direct != viaHelper {
		t.Fatalf("SimulateShape differs: %+v vs %+v", viaHelper, direct)
	}
	if direct.Total <= 0 || direct.Comm <= 0 {
		t.Fatalf("degenerate sim result %+v", direct)
	}
}

// All three public surfaces must report the identical dimension-naming
// validation error for an invalid shape, and the identical ErrSquareOnly
// for square-only baselines on rectangles.
func TestShapeErrorsIdenticalAcrossSurfaces(t *testing.T) {
	// Invalid shape (K=0 after inference: A is 4x0).
	_, _, mErr := Multiply(NewMatrix(4, 0), NewMatrix(0, 4), Config{Procs: 4})
	_, sErr := Simulate(SimConfig{Shape: Shape{M: 4, N: 4, K: 0}, Procs: 4, Machine: Machine{Alpha: 1, Beta: 1}})
	_, pErr := Plan(PlanConfig{Platform: PlatformGrid5000(), Shape: Shape{M: 4, N: 4, K: 0}, Procs: 4})
	for name, err := range map[string]error{"multiply": mErr, "simulate": sErr, "plan": pErr} {
		if err == nil {
			t.Fatalf("%s accepted K=0", name)
		}
	}

	// Square-only baselines on a rectangular problem: ErrSquareOnly from
	// every surface.
	rect := Shape{M: 8, N: 4, K: 8}
	_, _, mErr = Multiply(NewMatrix(8, 8), NewMatrix(8, 4), Config{Procs: 4, Algorithm: AlgCannon})
	_, sErr = Simulate(SimConfig{Shape: rect, Procs: 4, Algorithm: AlgFox, Machine: Machine{Alpha: 1, Beta: 1}})
	_, pErr = Plan(PlanConfig{Platform: PlatformGrid5000(), Shape: rect, Procs: 4,
		Algorithms: []Algorithm{AlgCannon}})
	for name, err := range map[string]error{"multiply": mErr, "simulate": sErr, "plan": pErr} {
		if !errors.Is(err, ErrSquareOnly) {
			t.Fatalf("%s: got %v, want ErrSquareOnly", name, err)
		}
	}
}
