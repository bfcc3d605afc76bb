package model

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/topo"
)

func presets() []machine.Platform {
	return []machine.Platform{
		machine.Grid5000(), machine.BlueGeneP(), machine.Exascale(),
		machine.Grid5000Calibrated(), machine.BlueGenePCalibrated(),
	}
}

// Acceptance: the rectangular cost model reduces *bit-exactly* to the
// existing square formulas at M = N = K, on every platform preset and
// under both of the paper's broadcast models.
func TestRectReducesToSquareBitExact(t *testing.T) {
	n, p, b := 65536, 16384, 256
	grid := topo.Grid{S: 128, T: 128}
	for _, pf := range presets() {
		for _, bc := range []Broadcast{BinomialTree{}, VanDeGeijn{}} {
			rp := RectParams{Shape: matrix.Square(n), Grid: grid, B: b, Machine: pf.Model, Bcast: bc}
			sp := Params{N: n, P: p, B: b, Machine: pf.Model, Bcast: bc}

			if got, want := SUMMARect(rp), SUMMA(sp); got != want {
				t.Fatalf("%s/%s SUMMA: rect %+v != square %+v", pf.Name, bc.Name(), got, want)
			}
			for _, G := range []int{1, 16, 128, 1024, 16384} {
				I := int(math.Round(math.Sqrt(float64(G))))
				if I*I != G {
					continue
				}
				got := HSUMMARect(rp, I, I, 0)
				want := HSUMMA(sp, float64(G))
				if got != want {
					t.Fatalf("%s/%s HSUMMA G=%d: rect %+v != square %+v", pf.Name, bc.Name(), G, got, want)
				}
			}
			// Split blocks (B = 4b) must reduce to the Table II general row.
			if got, want := HSUMMARect(rp, 16, 16, 4*b), HSUMMASplitBlocks(sp, 256, 4*b); got != want {
				t.Fatalf("%s/%s split blocks: rect %+v != square %+v", pf.Name, bc.Name(), got, want)
			}
		}
	}
}

// The one formula against the paper: Table I (binomial broadcast) and
// Table II (scatter-allgather), written out literally — SUMMA's row and
// HSUMMA's "inside groups" plus "between groups" rows — on every platform
// preset, with B = b and with the general row's B = 4b.
func TestFamilyMatchesPaperTables(t *testing.T) {
	const n, p, G, b = 65536.0, 16384.0, 256.0, 256.0
	sqP, sqG, sqIn := math.Sqrt(p), math.Sqrt(G), math.Sqrt(p/G)
	agree := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("%s: formula %g, paper's table %g", what, got, want)
		}
	}
	for _, pf := range presets() {
		alpha, beta := pf.Model.Alpha, pf.Model.Beta
		for _, B := range []float64{b, 4 * b} {
			tables := []struct {
				bc                  Broadcast
				summaLat, summaBW   float64
				hsummaLat, hsummaBW float64
			}{
				{ // Table I
					bc:        BinomialTree{},
					summaLat:  math.Log2(p) * n / b * alpha,
					summaBW:   math.Log2(p) * n * n / sqP * beta,
					hsummaLat: math.Log2(p/G)*n/b*alpha + math.Log2(G)*n/B*alpha,
					hsummaBW:  math.Log2(p/G)*n*n/sqP*beta + math.Log2(G)*n*n/sqP*beta,
				},
				{ // Table II
					bc:        VanDeGeijn{},
					summaLat:  (math.Log2(p) + 2*(sqP-1)) * n / b * alpha,
					summaBW:   4 * (1 - 1/sqP) * n * n / sqP * beta,
					hsummaLat: (math.Log2(p/G)+2*(sqIn-1))*n/b*alpha + (math.Log2(G)+2*(sqG-1))*n/B*alpha,
					hsummaBW:  4*(1-sqG/sqP)*n*n/sqP*beta + 4*(1-1/sqG)*n*n/sqP*beta,
				},
			}
			for _, tb := range tables {
				name := pf.Name + "/" + tb.bc.Name()
				rp := RectParams{Shape: matrix.Square(int(n)), Grid: topo.Grid{S: int(sqP), T: int(sqP)}, B: int(b), Machine: pf.Model, Bcast: tb.bc}
				s := SUMMARect(rp)
				agree(name+" SUMMA latency", s.Latency, tb.summaLat)
				agree(name+" SUMMA bandwidth", s.Bandwidth, tb.summaBW)
				h := HSUMMARect(rp, int(sqG), int(sqG), int(B))
				agree(name+" HSUMMA latency", h.Latency, tb.hsummaLat)
				agree(name+" HSUMMA bandwidth", h.Bandwidth, tb.hsummaBW)
			}
		}
	}
}

// Rectangular sanity: a tall problem on a tall grid must broadcast less
// than on the transposed (mismatched) grid — the effect that makes the
// planner's orientation search worthwhile.
func TestRectOrientationMatters(t *testing.T) {
	m := machine.Model{Alpha: 1e-5, Beta: 1e-9, Gamma: 1e-11}
	sh := matrix.Shape{M: 16384, N: 512, K: 16384}
	tall := SUMMARect(RectParams{Shape: sh, Grid: topo.Grid{S: 32, T: 4}, B: 64, Machine: m})
	wide := SUMMARect(RectParams{Shape: sh, Grid: topo.Grid{S: 4, T: 32}, B: 64, Machine: m})
	if tall.Comm() >= wide.Comm() {
		t.Fatalf("tall-on-tall %g not cheaper than tall-on-wide %g", tall.Comm(), wide.Comm())
	}
	// Compute is orientation-independent.
	if tall.Compute != wide.Compute {
		t.Fatalf("compute differs with orientation: %g vs %g", tall.Compute, wide.Compute)
	}
}

func TestRectParamsValidate(t *testing.T) {
	m := machine.Model{Alpha: 1, Beta: 1}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero shape", func() {
		SUMMARect(RectParams{Grid: topo.Grid{S: 2, T: 2}, B: 2, Machine: m})
	})
	mustPanic("zero block", func() {
		SUMMARect(RectParams{Shape: matrix.Square(8), Grid: topo.Grid{S: 2, T: 2}, Machine: m})
	})
	mustPanic("bad groups", func() {
		HSUMMARect(RectParams{Shape: matrix.Square(8), Grid: topo.Grid{S: 2, T: 2}, B: 2, Machine: m}, 3, 1, 0)
	})
}
