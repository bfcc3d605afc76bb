package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topo"
)

func runMultilevel(t *testing.T, g topo.Grid, n int, levels []Level, b int) *matrix.Dense {
	t.Helper()
	bm, err := dist.NewBlockMap(n, n, g)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(n, n, 55)
	bb := matrix.Random(n, n, 56)
	aT, bT := bm.Scatter(a), bm.Scatter(bb)
	cT := make([]*matrix.Dense, g.Size())
	for r := range cT {
		cT[r] = matrix.New(bm.LocalRows(), bm.LocalCols())
	}
	if err := mpi.Run(g.Size(), func(c *mpi.Comm) {
		o := Options{N: n, Grid: g}
		if e := MultilevelHSUMMA(mpi.AsComm(c), o, levels, b, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
			panic(e)
		}
	}); err != nil {
		t.Fatal(err)
	}
	got := bm.Gather(cT)
	want := matrix.New(n, n)
	Reference(want, a, bb)
	if d := matrix.MaxAbsDiff(got, want); d > tol {
		t.Fatalf("multilevel result differs from reference by %g", d)
	}
	return got
}

func TestMultilevelZeroLevelsIsSUMMA(t *testing.T) {
	runMultilevel(t, topo.Grid{S: 2, T: 4}, 16, nil, 2)
}

func TestMultilevelOneLevel(t *testing.T) {
	runMultilevel(t, topo.Grid{S: 4, T: 4}, 16, []Level{{I: 2, J: 2, BlockSize: 4}}, 2)
}

func TestMultilevelTwoLevels(t *testing.T) {
	// 8x8 grid: 2x2 coarse groups of 2x2 mid groups of 2x2 fine grids.
	runMultilevel(t, topo.Grid{S: 8, T: 8}, 32, []Level{
		{I: 2, J: 2, BlockSize: 4},
		{I: 2, J: 2, BlockSize: 2},
	}, 2)
}

func TestMultilevelThreeLevels(t *testing.T) {
	runMultilevel(t, topo.Grid{S: 8, T: 8}, 64, []Level{
		{I: 2, J: 2, BlockSize: 8},
		{I: 2, J: 2, BlockSize: 4},
		{I: 2, J: 1, BlockSize: 2},
	}, 1)
}

func TestMultilevelRectangular(t *testing.T) {
	runMultilevel(t, topo.Grid{S: 2, T: 8}, 32, []Level{{I: 1, J: 4, BlockSize: 4}}, 2)
}

// One level with matching block sizes must equal two-level HSUMMA exactly:
// identical communicators, identical broadcast schedules, identical
// floating-point association.
func TestMultilevelOneLevelMatchesHSUMMAExactly(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	n, b, B := 16, 2, 4
	h, _ := topo.NewHier(g, 2, 2)
	bm, _ := dist.NewBlockMap(n, n, g)
	a := matrix.Random(n, n, 91)
	bb := matrix.Random(n, n, 92)

	run := func(two bool) *matrix.Dense {
		aT, bT := bm.Scatter(a), bm.Scatter(bb)
		cT := make([]*matrix.Dense, g.Size())
		for r := range cT {
			cT[r] = matrix.New(bm.LocalRows(), bm.LocalCols())
		}
		if err := mpi.Run(g.Size(), func(c *mpi.Comm) {
			var e error
			if two {
				e = HSUMMA(mpi.AsComm(c), Options{N: n, Grid: g, Knobs: Knobs{BlockSize: b, OuterBlockSize: B}, Groups: h},
					aT[c.Rank()], bT[c.Rank()], cT[c.Rank()])
			} else {
				e = MultilevelHSUMMA(mpi.AsComm(c), Options{N: n, Grid: g}, []Level{{I: 2, J: 2, BlockSize: B}}, b,
					aT[c.Rank()], bT[c.Rank()], cT[c.Rank()])
			}
			if e != nil {
				panic(e)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return bm.Gather(cT)
	}
	if !matrix.Equal(run(true), run(false)) {
		t.Fatal("one-level multilevel differs from HSUMMA")
	}
}

func TestMultilevelValidation(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	mk := func(levels []Level, b int) error {
		var got error
		err := mpi.Run(g.Size(), func(c *mpi.Comm) {
			tile := matrix.New(4, 4)
			e := MultilevelHSUMMA(mpi.AsComm(c), Options{N: 16, Grid: g}, levels, b, tile, tile.Clone(), tile.Clone())
			if c.Rank() == 0 {
				got = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	cases := []struct {
		name   string
		levels []Level
		b      int
	}{
		{"level products exceed grid", []Level{{I: 8, J: 2, BlockSize: 4}}, 2},
		{"width not multiple of next", []Level{{I: 2, J: 2, BlockSize: 3}}, 2},
		{"top width exceeds tile", []Level{{I: 2, J: 2, BlockSize: 8}}, 2},
		{"zero level dims", []Level{{I: 0, J: 2, BlockSize: 4}}, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if mk(c.levels, c.b) == nil {
				t.Fatalf("%s accepted", c.name)
			}
		})
	}
}

func TestMultilevelLatencyReduction(t *testing.T) {
	// The point of the hierarchy: fewer total messages on the critical
	// path. Compare aggregate message counts of SUMMA vs one-level
	// hierarchy on the same problem — the hierarchical run must send
	// fewer, larger inter-group messages at the top level. (Aggregate
	// counts also include inner traffic, so just assert both complete
	// and record the counts for the curious.)
	g := topo.Grid{S: 4, T: 4}
	n, b := 32, 2
	count := func(levels []Level, B int) int64 {
		bm, _ := dist.NewBlockMap(n, n, g)
		a := matrix.Random(n, n, 5)
		bb := matrix.Random(n, n, 6)
		aT, bT := bm.Scatter(a), bm.Scatter(bb)
		cT := make([]*matrix.Dense, g.Size())
		for r := range cT {
			cT[r] = matrix.New(bm.LocalRows(), bm.LocalCols())
		}
		stats, err := mpi.RunStats(g.Size(), func(c *mpi.Comm) {
			if e := MultilevelHSUMMA(mpi.AsComm(c), Options{N: n, Grid: g}, levels, b, aT[c.Rank()], bT[c.Rank()], cT[c.Rank()]); e != nil {
				panic(e)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var msgs int64
		for _, s := range stats {
			msgs += s.SentMessages
		}
		_ = B
		return msgs
	}
	flat := count(nil, b)
	hier := count([]Level{{I: 2, J: 2, BlockSize: 8}}, 8)
	if flat <= 0 || hier <= 0 {
		t.Fatal("no messages counted")
	}
	if hier >= flat {
		t.Fatalf("hierarchy did not reduce message count: flat=%d hier=%d", flat, hier)
	}
}

// stubComm is one rank of a grid with nobody else in it: collectives and
// the data plane do nothing but count, so a test can run a single rank's
// pivot loop alone and observe what the loop itself does.
type stubComm struct {
	rank, size int
	packs      *int
}

func (s stubComm) Rank() int                                             { return s.rank }
func (s stubComm) Size() int                                             { return s.size }
func (s stubComm) Split(color, key int) comm.Comm                        { return s }
func (s stubComm) SendRecv(int, int, *comm.Panel, int, int, *comm.Panel) {}
func (s stubComm) Bcast(sched.Algorithm, int, *comm.Panel)               {}
func (s stubComm) NewPanel(rows, cols int, role comm.Role) *comm.Panel {
	p := comm.Header(rows, cols, role)
	return &p
}
func (s stubComm) NewTile(rows, cols int) *matrix.Dense {
	return &matrix.Dense{Rows: rows, Cols: cols, Stride: cols}
}
func (s stubComm) Pack(*comm.Panel, *matrix.Dense, int, int)         { *s.packs++ }
func (s stubComm) Repack(*comm.Panel, *comm.Panel, int)              {}
func (s stubComm) Gemm(*matrix.Dense, *comm.Panel, *comm.Panel, int) {}

// The loop's bookkeeping is allocated once per run, never per step: a pack
// names its window of the tile instead of allocating a view of it, so one
// rank's run allocates the same whether it walks K in 8 steps or in 64 —
// under no levels, HSUMMA's one, and two.
func TestPivotLoopAllocatesPerRunNotPerStep(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	const k = 1024 // per-rank K extent 256
	for name, levels := range map[string]func(b int) []Level{
		"summa":     func(int) []Level { return nil },
		"hsumma":    func(b int) []Level { return []Level{{I: 2, J: 2, BlockSize: 2 * b}} },
		"two-level": func(b int) []Level { return []Level{{I: 2, J: 1, BlockSize: 2 * b}, {I: 1, J: 2, BlockSize: b}} },
	} {
		own := func(steps int) float64 {
			b := k / steps
			packs := 0
			c := stubComm{rank: 5, size: g.Size(), packs: &packs}
			o := Options{Shape: matrix.Shape{M: 64, N: 64, K: k}, Grid: g}
			aLoc, bLoc, cLoc := c.NewTile(16, k/4), c.NewTile(k/4, 16), c.NewTile(16, 16)
			allocs := testing.AllocsPerRun(5, func() {
				packs = 0
				if err := MultilevelHSUMMA(c, o, levels(b), b, aLoc, bLoc, cLoc); err != nil {
					t.Fatal(err)
				}
			})
			if packs == 0 {
				t.Fatalf("%s: the stub rank packed nothing", name)
			}
			return allocs
		}
		if few, many := own(8), own(64); few != many {
			t.Errorf("%s: %v allocations of the loop's own at K/b = 8, %v at K/b = 64", name, few, many)
		}
	}
}

// TestStreamClasses pins the class rule: SUMMA is one class, a level
// splits the grid by the in-group position along each dimension it groups,
// a level of one group along a dimension splits nothing there, and options
// the pivot loop rejects get one class per rank (nil).
func TestStreamClasses(t *testing.T) {
	g := topo.Grid{S: 4, T: 4}
	cases := []struct {
		name   string
		levels []Level
		want   int
	}{
		{"summa", nil, 1},
		{"hsumma 2x2", []Level{{I: 2, J: 2, BlockSize: 4}}, 4},
		{"hsumma 1x1", []Level{{I: 1, J: 1, BlockSize: 4}}, 1},
		{"hsumma 4x4", []Level{{I: 4, J: 4, BlockSize: 4}}, 1},
		{"hsumma 1x2", []Level{{I: 1, J: 2, BlockSize: 4}}, 2},
		{"outer level sets the stride", []Level{{I: 2, J: 2, BlockSize: 4}, {I: 2, J: 2, BlockSize: 2}}, 4},
		{"first grouping per dimension", []Level{{I: 1, J: 2, BlockSize: 4}, {I: 2, J: 1, BlockSize: 2}}, 4},
	}
	for _, c := range cases {
		o := Options{N: 16, Grid: g, Knobs: Knobs{BlockSize: 2}}
		class := StreamClasses(&o, c.levels)
		if len(class) != g.Size() {
			t.Fatalf("%s: %d class entries for %d ranks", c.name, len(class), g.Size())
		}
		distinct := map[int]bool{}
		for _, k := range class {
			distinct[k] = true
		}
		if len(distinct) != c.want {
			t.Errorf("%s: %d classes, want %d", c.name, len(distinct), c.want)
		}
	}
	// The 2x2 case spelled out: the class is the position in the group.
	o := Options{N: 16, Grid: g, Knobs: Knobs{BlockSize: 2}}
	class := StreamClasses(&o, cases[1].levels)
	for r, k := range class {
		if i, j := g.Coords(r); k != i%2*2+j%2 {
			t.Fatalf("rank (%d,%d) in class %d, want %d", i, j, k, i%2*2+j%2)
		}
	}
	bad := Options{N: 15, Grid: g, Knobs: Knobs{BlockSize: 2}}
	if class := StreamClasses(&bad, nil); class != nil {
		t.Fatalf("rejected options got classes %v", class)
	}
}
