package hsumma

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/mpi"
)

// Tests that pin the one-shot façade's view-based staging: Multiply hands
// the ranks views of the caller's operands and of one output matrix, and
// that must be indistinguishable — bit for bit — from the explicit
// copying path (Scatter → engine.Run → Gather) the benchmark's decomposed
// replay uses. Resident sessions stage through the same function
// (serve.Execute); internal/serve's TestSessionBitIdenticalToMultiply pins
// them to both.

// stagingCase is one algorithm configuration with a problem size that
// divides the grid and block sizes and one where every dimension pads
// (square: Cannon, Fox and Strassen need it).
type stagingCase struct {
	name string
	cfg  Config
	n    [2]int // divisible, padded
}

// stagingCases covers all six algorithms.
func stagingCases() []stagingCase {
	return []stagingCase{
		{"summa", Config{Procs: 4, Algorithm: AlgSUMMA, BlockSize: 4}, [2]int{32, 29}},
		{"hsumma", Config{Procs: 16, Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 4}, [2]int{64, 53}},
		{"hsumma-outer", Config{Procs: 16, Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 2, OuterBlockSize: 8, Broadcast: BcastVanDeGeijn}, [2]int{64, 53}},
		{"multilevel", Config{Procs: 16, Algorithm: AlgMultilevel, Levels: []Level{{I: 2, J: 2, BlockSize: 4}}, BlockSize: 2}, [2]int{32, 27}},
		{"cannon", Config{Procs: 9, Algorithm: AlgCannon}, [2]int{36, 31}},
		// Padded to 33, Fox broadcasts 11×11 tiles over rows of 3: Van de
		// Geijn then splits 121 elements into uneven segments.
		{"fox", Config{Procs: 9, Algorithm: AlgFox, Broadcast: BcastVanDeGeijn}, [2]int{36, 31}},
		{"strassen", Config{Procs: 16, Algorithm: AlgStrassen, BlockSize: 4}, [2]int{64, 45}},
	}
}

// padTo embeds m in the top-left corner of a zeroed r×c matrix.
func padTo(m *Matrix, r, c int) *Matrix {
	out := matrix.New(r, c)
	out.View(0, 0, m.Rows, m.Cols).CopyFrom(m)
	return out
}

// explicitMultiply is the copying path's product.
func explicitMultiply(t *testing.T, a, b *Matrix, cfg Config) *Matrix {
	t.Helper()
	out, _ := explicitRun(t, a, b, cfg)
	return out
}

// explicitRun is the copying path: pad, Scatter private tiles, run the
// engine on the live transport, Gather, crop. It returns the product and
// the run's traffic summary.
func explicitRun(t *testing.T, a, b *Matrix, cfg Config) (*Matrix, mpi.Summary) {
	t.Helper()
	shape := Shape{M: a.Rows, N: b.Cols, K: a.Cols}
	spec, grid, err := resolveSpec(shape, cfg)
	if err != nil {
		t.Fatal(err)
	}
	es := spec.Opts.Shape
	maps := [3]*dist.BlockMap{}
	for i, d := range [3][2]int{{es.M, es.K}, {es.K, es.N}, {es.M, es.N}} {
		if maps[i], err = dist.NewBlockMap(d[0], d[1], grid); err != nil {
			t.Fatal(err)
		}
	}
	aT, bT := maps[0].Scatter(padTo(a, es.M, es.K)), maps[1].Scatter(padTo(b, es.K, es.N))
	cT := make([]*matrix.Dense, grid.Size())
	for r := range cT {
		cT[r] = matrix.New(maps[2].LocalRows(), maps[2].LocalCols())
	}
	var mu sync.Mutex
	var algErr error
	ranks, err := mpi.RunStats(grid.Size(), func(c *mpi.Comm) {
		r := c.Rank()
		if e := engine.Run(mpi.AsComm(c), spec, aT[r], bT[r], cT[r]); e != nil {
			mu.Lock()
			algErr = e
			mu.Unlock()
		}
	})
	if err != nil || algErr != nil {
		t.Fatal(err, algErr)
	}
	return maps[2].Gather(cT).View(0, 0, shape.M, shape.N).Clone(), mpi.Summarize(ranks)
}

func TestViewStagingBitIdenticalToCopyingPath(t *testing.T) {
	for _, tc := range stagingCases() {
		for i, kind := range []string{"divisible", "padded"} {
			tc, n := tc, tc.n[i]
			t.Run(fmt.Sprintf("%s/%s", tc.name, kind), func(t *testing.T) {
				a, b := RandomMatrix(n, n, 11), RandomMatrix(n, n, 12)
				aBefore, bBefore := a.Clone(), b.Clone()
				got, _, err := Multiply(a, b, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !matrix.Equal(a, aBefore) || !matrix.Equal(b, bBefore) {
					t.Fatal("Multiply wrote to an operand")
				}
				if want := explicitMultiply(t, a, b, tc.cfg); !matrix.Equal(got, want) {
					t.Fatalf("view-staged product differs from Scatter → Run → Gather (max |diff| %g)", MaxAbsDiff(got, want))
				}
				if d := MaxAbsDiff(got, Reference(a, b)); d > 1e-9*float64(n) {
					t.Fatalf("max |diff| vs the sequential reference = %g", d)
				}
			})
		}
	}
}

// TestMultiplyAliasedOperands: both operands may be one matrix — ranks
// read two sets of views over the same storage and write neither.
func TestMultiplyAliasedOperands(t *testing.T) {
	for _, tc := range stagingCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a := RandomMatrix(tc.n[1], tc.n[1], 21)
			before := a.Clone()
			got, _, err := Multiply(a, a, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(a, before) {
				t.Fatal("Multiply wrote to its aliased operand")
			}
			if !matrix.Equal(got, explicitMultiply(t, before, before.Clone(), tc.cfg)) {
				t.Fatal("A·A with aliased operands differs from the product of two private copies")
			}
		})
	}
}

// TestLiveCommAllocationBudget keeps the pooling honest on the benchmark's
// live_comm configuration (n=512, 16 ranks, HSUMMA G=4, b=32): the result
// matrix is 2 MB on its own, so the budget leaves room for little else —
// a per-hop make or a rebuilt schedule per broadcast blows through it.
func TestLiveCommAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds load at random under the race detector")
	}
	const n = 512
	a, b := RandomMatrix(n, n, 1), RandomMatrix(n, n, 2)
	cfg := Config{Procs: 16, Algorithm: AlgHSUMMA, Groups: 4, BlockSize: 32}
	run := func() {
		if _, _, err := Multiply(a, b, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the payload pool and the kernel's packing buffers
	if objs := testing.AllocsPerRun(5, run); objs > 1900 {
		t.Fatalf("Multiply allocates %.0f objects per op; budget is 1900", objs)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6; mb > 6.5 {
		t.Fatalf("Multiply allocates %.1f MB per op; budget is 6.5 MB", mb)
	}
}
