package simalg_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/topo"
)

// Overlap can only help, and is bounded below by both the pure-comm and
// pure-compute timelines.
func TestOverlapBounds(t *testing.T) {
	g := topo.Grid{S: 8, T: 8}
	base := Config{N: 1024, Grid: g, Knobs: core.Knobs{BlockSize: 64, Broadcast: sched.VanDeGeijn},
		Machine: machine.Model{Alpha: 1e-4, Beta: 1e-9, Gamma: 2e-10}}
	plain, err := SUMMA(base)
	if err != nil {
		t.Fatal(err)
	}
	ov := base
	ov.Overlap = true
	lapped, err := SUMMA(ov)
	if err != nil {
		t.Fatal(err)
	}
	if lapped.Total > plain.Total+1e-12 {
		t.Fatalf("overlap made things slower: %g vs %g", lapped.Total, plain.Total)
	}
	if lapped.Total < lapped.Compute-1e-12 {
		t.Fatalf("overlap total %g below pure compute %g", lapped.Total, lapped.Compute)
	}
	if lapped.Total < plain.Comm-1e-12 {
		t.Fatalf("overlap total %g below pure comm %g", lapped.Total, plain.Comm)
	}
	// With comparable comm and compute shares, overlap should give a
	// real improvement, approaching max(comm, compute).
	if plain.Total-lapped.Total < 0.1*math.Min(plain.Comm, plain.Compute) {
		t.Fatalf("overlap saved almost nothing: %g -> %g (comm %g, compute %g)",
			plain.Total, lapped.Total, plain.Comm, plain.Compute)
	}
}

// In the compute-dominated regime, overlapped total approaches compute +
// one communication step (pipeline fill).
func TestOverlapComputeDominated(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	cfg := Config{N: 512, Grid: g, Knobs: core.Knobs{BlockSize: 64, Broadcast: sched.Binomial},
		Machine: machine.Model{Alpha: 1e-7, Beta: 1e-12, Gamma: 1e-9},
		Overlap: true}
	res, err := SUMMA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total > res.Compute*1.05 {
		t.Fatalf("compute-dominated overlap total %g far above compute %g", res.Total, res.Compute)
	}
}

// Overlap applies to HSUMMA too, and never reports a smaller comm time
// (comm accounting is independent of overlap).
func TestOverlapHSUMMA(t *testing.T) {
	g := topo.Grid{S: 8, T: 8}
	h, err := topo.FactorGroups(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{N: 1024, Grid: g, Knobs: core.Knobs{BlockSize: 64, Broadcast: sched.VanDeGeijn}, Groups: h,
		Machine: machine.Model{Alpha: 1e-4, Beta: 1e-9, Gamma: 2e-10}}
	plain, err := HSUMMA(base)
	if err != nil {
		t.Fatal(err)
	}
	ov := base
	ov.Overlap = true
	lapped, err := HSUMMA(ov)
	if err != nil {
		t.Fatal(err)
	}
	if lapped.Total > plain.Total+1e-12 {
		t.Fatalf("HSUMMA overlap slower: %g vs %g", lapped.Total, plain.Total)
	}
	if math.Abs(lapped.Comm-plain.Comm) > 1e-12*plain.Comm {
		t.Fatalf("overlap changed comm accounting: %g vs %g", lapped.Comm, plain.Comm)
	}
}
