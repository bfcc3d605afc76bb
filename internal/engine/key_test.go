package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/topo"
)

// TestSpecKeyCanonicalisesDefaults locks in that a spec spelling a default
// out loud keys identically to one leaving it blank — the serving layer
// would otherwise split one logical workload across two resident sessions.
func TestSpecKeyCanonicalisesDefaults(t *testing.T) {
	base := Spec{
		Algorithm: SUMMA,
		Opts: core.Options{
			Shape: matrix.Square(64), Grid: topo.Grid{S: 4, T: 4}, Knobs: core.Knobs{BlockSize: 16},
		},
	}
	explicit := base
	explicit.Opts.Broadcast = sched.Binomial
	explicit.Opts.OuterBlockSize = 16 // ignored by SUMMA — must not split the key
	if base.Key() != explicit.Key() {
		t.Fatalf("defaulted and explicit specs key differently:\n  %s\n  %s", base.Key(), explicit.Key())
	}

	different := base
	different.Opts.Broadcast = sched.VanDeGeijn
	if base.Key() == different.Key() {
		t.Fatal("distinct broadcasts must key differently")
	}

	// Keys are routing, plan-cache and /metrics identities: their bytes,
	// including the constant seg=1 field, do not change.
	if got, want := different.Key(), "summa|64x64x64|g=4x4|b=16|bc=vandegeijn|seg=1"; got != want {
		t.Fatalf("key %q, want %q", got, want)
	}

	// HSUMMA's outer block B is execution-relevant there, and only there.
	h, err := topo.FactorGroups(topo.Grid{S: 4, T: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	hbase := base
	hbase.Algorithm = HSUMMA
	hbase.Opts.Groups = h
	hBeqB := hbase
	hBeqB.Opts.OuterBlockSize = 16 // B = b, the default
	if hbase.Key() != hBeqB.Key() {
		t.Fatal("HSUMMA with implicit and explicit B = b must share a key")
	}
	hB32 := hbase
	hB32.Opts.OuterBlockSize = 32
	if hbase.Key() == hB32.Key() {
		t.Fatal("distinct HSUMMA outer blocks must key differently")
	}
}
