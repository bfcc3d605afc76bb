package tune

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// TestClosedFormMatchesEventEngine is the invariant that lets the planner
// skip virtual runs: on a grid whose sides are powers of two, every
// candidate's closed-form total equals the contention-free event engine's
// simulated total within 1e-12 relative (and its comm within 1e-12 of the
// total), for every algorithm — the SUMMA family by model.Family, Cannon
// and Fox by model.Cannon and model.Fox — and on any grid so does every
// candidate that runs no binomial tree: Cannon, and SUMMA, HSUMMA and Fox
// under Van de Geijn. The points are the four measured presets × seven
// (n, p) points, plus a padded shape, a rectangular one, a core-budget
// plan (whose p = 1 split puts Cannon on a 1×1 grid, where it sends
// nothing), and 36 and 24 ranks, whose grids (6×6, 4×6 and the other
// factorisations) have a side that is not a power of two. On those grids
// the planner proposes only power-of-two group counts and the grid's size,
// so HSUMMA under Van de Geijn is also checked at every other count
// (G = 3, 6, 9, 12 and 18 on 6×6; see otherGroupCounts). Under -short and
// the race detector only the points with p ≤ 16 and the extras run.
func TestClosedFormMatchesEventEngine(t *testing.T) {
	short := testing.Short() || raceEnabled
	var reqs []Request
	for _, pf := range []machine.Platform{
		machine.Grid5000(), machine.Grid5000Calibrated(), machine.BlueGeneP(), machine.BlueGenePCalibrated(),
	} {
		for _, np := range [][2]int{{256, 4}, {512, 16}, {1024, 16}, {2048, 64}, {4096, 64}, {4096, 256}, {8192, 256}} {
			if short && np[1] > 16 {
				continue
			}
			reqs = append(reqs, Request{Platform: pf, N: np[0], P: np[1]})
		}
	}
	pf := machine.Grid5000()
	reqs = append(reqs,
		Request{Platform: pf, N: 1000, P: 16},
		Request{Platform: pf, Shape: matrix.Shape{M: 2048, N: 512, K: 1024}, P: 16},
		Request{Platform: pf, N: 1024, CoreBudget: 8},
		Request{Platform: pf, N: 1536, P: 36},
		Request{Platform: machine.BlueGenePCalibrated(), N: 768, P: 24})

	checked, cannonQ1 := 0, 0
	odd := map[engine.Algorithm]int{} // checked on a grid with a side that is not a power of two
	for _, req := range reqs {
		req = req.withDefaults()
		cands, err := Candidates(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range candidateGrids(req) {
			if !powerOfTwo(g.S) || !powerOfTwo(g.T) {
				cands = append(cands, otherGroupCounts(req, g)...)
			}
		}
		sc := &scorer{sh: req.Shape, m: req.Platform.Model}
		for _, c := range cands {
			if !powerOfTwo(c.Grid.S) || !powerOfTwo(c.Grid.T) {
				if c.Broadcast == sched.Binomial {
					continue
				}
				odd[c.Algorithm]++
			}
			spec, err := c.Spec(req.Shape)
			if err != nil {
				t.Fatal(err)
			}
			comm, total := sc.score(c)
			res, _, err := engine.Simulate(spec, simnet.VConfig{Model: req.Platform.Model}, engine.ExecutorEvent)
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			checked++
			if math.Abs(res.Total-total) > 1e-12*res.Total || math.Abs(res.Comm-comm) > 1e-12*res.Total {
				t.Errorf("%s %v %s: closed form comm %.15g total %.15g, event engine comm %.15g total %.15g",
					req.Platform.Name, req.Shape, c, comm, total, res.Comm, res.Total)
			}
			if c.Algorithm == engine.Cannon && c.Grid.Size() == 1 {
				cannonQ1++
				if comm != 0 || res.Comm != 0 {
					t.Errorf("%s on one rank: closed-form comm %g, simulated %g, want 0", c, comm, res.Comm)
				}
			}
		}
	}
	if checked == 0 || cannonQ1 == 0 {
		t.Fatalf("checked %d candidates, %d Cannon on one rank; want both > 0", checked, cannonQ1)
	}
	for _, alg := range []engine.Algorithm{engine.SUMMA, engine.HSUMMA, engine.Cannon, engine.Fox} {
		if odd[alg] == 0 {
			t.Errorf("no %s candidate checked on a grid with a side that is not a power of two", alg)
		}
	}
}

// otherGroupCounts lists the HSUMMA candidates under Van de Geijn at the
// valid group counts of g that arrangements leaves out (neither a power of
// two nor g's size), arranged as topo.FactorGroups arranges them, at every
// b and B the generator pairs with a level on g.
func otherGroupCounts(req Request, g topo.Grid) []Candidate {
	var out []Candidate
	for _, G := range topo.ValidGroupCounts(g) {
		if powerOfTwo(G) || G == g.Size() {
			continue
		}
		h, _ := topo.FactorGroups(g, G)
		for _, b := range blockCandidates(req.Shape, g) {
			for _, w := range widthChains(req, g, 1, b) {
				c := Candidate{
					Algorithm: engine.HSUMMA, Grid: g, Groups: G, GroupShape: [2]int{h.I, h.J},
					Knobs: core.Knobs{BlockSize: b, OuterBlockSize: w[0], Broadcast: sched.VanDeGeijn},
				}
				if fits(c, req.Shape) {
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// TestCannonDominatesOnSquareGrids holds that on a square grid no
// candidate the planner proposes can beat Cannon on any machine the
// contention-free closed form describes. Every price there is L·α + W·β +
// F·γ with (L, W, F) independent of the machine, so it suffices that
// Cannon's latency L (priced at α = 1, β = γ = 0) and bandwidth W (at β = 1,
// α = γ = 0) are each at most every other candidate's, multilevel
// included. The sweep is n ∈ {4096, 65536, 2²²} × p ∈ {16, 32, …, 16384,
// 65536, 2²⁰}, plus n = 3072 on p ∈ {6, 12, 24, 36, 48, 96, 384, 1536}; its
// 25 points with a square grid are checked.
func TestCannonDominatesOnSquareGrids(t *testing.T) {
	type point struct{ n, p int }
	var pts []point
	for _, n := range []int{4096, 65536, 1 << 22} {
		for p := 16; p <= 16384; p *= 2 {
			pts = append(pts, point{n, p})
		}
		pts = append(pts, point{n, 65536}, point{n, 1 << 20})
	}
	for _, p := range []int{6, 12, 24, 36, 48, 96, 384, 1536} {
		pts = append(pts, point{3072, p})
	}
	algs := []engine.Algorithm{engine.SUMMA, engine.HSUMMA, engine.Multilevel, engine.Cannon, engine.Fox}
	square := 0
	for _, pt := range pts {
		req := Request{Platform: machine.Grid5000(), N: pt.n, P: pt.p, Algorithms: algs}.withDefaults()
		cands, err := Candidates(req)
		if err != nil {
			t.Fatal(err)
		}
		lat := &scorer{sh: req.Shape, m: machine.Model{Alpha: 1}}
		bw := &scorer{sh: req.Shape, m: machine.Model{Beta: 1}}
		var cannon *Candidate
		for i, c := range cands {
			if c.Algorithm == engine.Cannon {
				cannon = &cands[i]
			}
		}
		if cannon == nil {
			continue
		}
		square++
		cl, _ := lat.score(*cannon)
		cw, _ := bw.score(*cannon)
		for _, c := range cands {
			l, _ := lat.score(c)
			w, _ := bw.score(c)
			if l < cl*(1-1e-12) || w < cw*(1-1e-12) {
				t.Errorf("n=%d p=%d: %s has latency %g, bandwidth %g; %s has %g, %g",
					pt.n, pt.p, c, l, w, *cannon, cl, cw)
			}
		}
	}
	if square != 25 {
		t.Fatalf("checked %d square points, want 25", square)
	}
}
