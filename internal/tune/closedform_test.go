package tune

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simnet"
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
// factorisations) have a side that is not a power of two. Under -short
// and the race detector only the points with p ≤ 16 and the extras run.
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
