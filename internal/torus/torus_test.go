// Package torus_test holds the torus-geometry tests at their original
// import path so their ids stay stable; the geometry itself lives in
// internal/machine (torus.go).
package torus_test

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func TestForCoresShapes(t *testing.T) {
	cases := []struct {
		p       int
		x, y, z int
	}{
		{4, 1, 1, 1},
		{32, 2, 2, 2},
		{2048, 8, 8, 8},
		{16384, 16, 16, 16}, // Shaheen VN mode: 4096 nodes
		{256, 4, 4, 4},
	}
	for _, c := range cases {
		tor, err := machine.ForCores(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if tor.X != c.x || tor.Y != c.y || tor.Z != c.z {
			t.Fatalf("machine.ForCores(%d) = %v, want %dx%dx%d", c.p, tor, c.x, c.y, c.z)
		}
		if tor.Cores() != c.p {
			t.Fatalf("machine.ForCores(%d).Cores() = %d", c.p, tor.Cores())
		}
	}
	if _, err := machine.ForCores(6); err == nil {
		t.Fatal("non-multiple of 4 accepted")
	}
	if _, err := machine.ForCores(0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestSameNodeDistanceZero(t *testing.T) {
	tor, _ := machine.ForCores(32)
	for r := 0; r < 4; r++ {
		if d := tor.Distance(0, r); d != 0 {
			t.Fatalf("ranks 0 and %d share node 0 but distance %d", r, d)
		}
	}
	if tor.LinkCost(0, 1) != 1 {
		t.Fatal("same-node link cost should be 1")
	}
}

func TestNeighborDistance(t *testing.T) {
	tor, _ := machine.ForCores(2048) // 8x8x8
	// Ranks 0..3 on node (0,0,0); ranks 4..7 on node (1,0,0).
	if d := tor.Distance(0, 4); d != 1 {
		t.Fatalf("adjacent nodes distance %d", d)
	}
}

func TestWraparound(t *testing.T) {
	tor, _ := machine.ForCores(2048) // 8x8x8
	// Node (7,0,0) = node index 7 -> rank 28. Torus wrap: distance 1.
	if d := tor.Distance(0, 28); d != 1 {
		t.Fatalf("wraparound distance %d, want 1", d)
	}
	// Node (4,0,0) -> rank 16: maximal X distance 4.
	if d := tor.Distance(0, 16); d != 4 {
		t.Fatalf("antipodal X distance %d, want 4", d)
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	tor, _ := machine.ForCores(256)
	f := func(a, b uint16) bool {
		ra, rb := int(a)%256, int(b)%256
		d := tor.Distance(ra, rb)
		if d != tor.Distance(rb, ra) {
			return false // symmetry
		}
		if ra == rb && d != 0 {
			return false
		}
		maxD := tor.X/2 + tor.Y/2 + tor.Z/2
		return d >= 0 && d <= maxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	tor, _ := machine.ForCores(256)
	f := func(a, b, c uint16) bool {
		ra, rb, rc := int(a)%256, int(b)%256, int(c)%256
		return tor.Distance(ra, rc) <= tor.Distance(ra, rb)+tor.Distance(rb, rc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNodeCoordRoundTrip(t *testing.T) {
	tor, _ := machine.ForCores(2048)
	seen := map[[3]int]int{}
	for rank := 0; rank < tor.Cores(); rank += tor.CoresPerNode {
		x, y, z := tor.NodeCoord(rank)
		key := [3]int{x, y, z}
		if _, dup := seen[key]; dup {
			t.Fatalf("node %v mapped twice", key)
		}
		seen[key] = rank
	}
	if len(seen) != tor.Nodes() {
		t.Fatalf("%d distinct nodes, want %d", len(seen), tor.Nodes())
	}
}

func TestNodeCoordPanicsOutOfRange(t *testing.T) {
	tor, _ := machine.ForCores(32)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tor.NodeCoord(32)
}
