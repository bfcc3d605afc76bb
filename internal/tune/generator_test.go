package tune

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// The SUMMA family's candidates come from one level-list generator
// (hierarchies). Over the five presets at p = 4, 6, 16, 64 and 256:
//
//	(a) with SUMMA requested, no level — HSUMMA's or a multilevel one —
//	    has one group, and a level that leaves each side of its sub-grid
//	    unsplit or at one rank per group is wider than the level below it
//	    (HSUMMA at G = 2 on 2×3 as 2×1 groups and B = b is SUMMA), and,
//	    at one rank per group, wider than every SUMMA b on its grid
//	    (HSUMMA at G = p and B = b is SUMMA);
//	(b) the analytic best equals the best of the enumerator the generator
//	    replaced (frozen below as parentCandidates), under one scorer;
//	(c) an HSUMMA-only request still sweeps G = 1 and G = p, the endpoints
//	    of the paper's G sweeps;
//	(d) with Multilevel requested, the replaced enumerator's two shapes,
//	    {2×2:4b, 2×2:2b} and {4×4:4b, 2×2:2b}, are still proposed wherever
//	    topo.FactorGroups arranges their group counts that way (every
//	    square grid; on 4×16 it arranges four groups as 1×4).
func TestOneHierarchyGenerator(t *testing.T) {
	family := []engine.Algorithm{engine.SUMMA, engine.HSUMMA, engine.Multilevel, engine.Cannon, engine.Fox}
	ns := map[int]int{4: 256, 6: 384, 16: 512, 64: 4096, 256: 8192}
	checkedD := 0
	for _, name := range []string{"grid5000", "grid5000-cal", "bgp", "bgp-cal", "exascale"} {
		pf, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{4, 6, 16, 64, 256} {
			req := Request{Platform: pf, N: ns[p], P: p}
			with := func(algs ...engine.Algorithm) Request {
				r := req
				r.Algorithms = algs
				return r
			}

			// (a)
			all := mustCandidates(t, with(family...))
			summaB := map[topo.Grid]map[int]bool{}
			for _, c := range all {
				if c.Algorithm == engine.SUMMA {
					if summaB[c.Grid] == nil {
						summaB[c.Grid] = map[int]bool{}
					}
					summaB[c.Grid][c.BlockSize] = true
				}
			}
			for _, c := range all {
				if err := properLevels(c, summaB[c.Grid]); err != nil {
					t.Fatalf("%s p=%d: %s: %v", name, p, c, err)
				}
			}

			// (b)
			sc := &scorer{sh: matrix.Square(req.N), m: pf.Model}
			cands, parent := mustCandidates(t, req), parentCandidates(req)
			for _, o := range []Objective{MinTotal, MinComm} {
				got, want := bestOf(sc, cands, o), bestOf(sc, parent, o)
				if got.objective(o) != want.objective(o) {
					t.Fatalf("%s p=%d %s: best %s scores %g, replaced enumerator's best %s scores %g",
						name, p, o, got.Candidate, got.objective(o), want.Candidate, want.objective(o))
				}
			}
			if len(cands) >= len(parent) {
				t.Fatalf("%s p=%d: %d candidates, replaced enumerator had %d", name, p, len(cands), len(parent))
			}

			// (c)
			endpoints := map[topo.Grid]map[int]bool{}
			for _, c := range mustCandidates(t, with(engine.HSUMMA)) {
				if endpoints[c.Grid] == nil {
					endpoints[c.Grid] = map[int]bool{}
				}
				endpoints[c.Grid][c.Groups] = true
			}
			for g, seen := range endpoints {
				if !seen[1] || !seen[g.Size()] {
					t.Fatalf("%s p=%d: HSUMMA-only request on %v lacks an endpoint (G=1: %t, G=%d: %t)",
						name, p, g, seen[1], g.Size(), seen[g.Size()])
				}
			}

			// (d)
			ml := with(engine.Multilevel)
			proposed := map[string]bool{}
			for _, c := range mustCandidates(t, ml) {
				proposed[c.String()] = true
			}
			for _, c := range parentCandidates(ml) {
				if !factorGroupsArranges(c) {
					continue
				}
				checkedD++
				if !proposed[c.String()] {
					t.Fatalf("%s p=%d: multilevel shape %s no longer proposed", name, p, c)
				}
			}
		}
	}
	if checkedD == 0 {
		t.Fatal("(d) checked no multilevel shape")
	}
}

func mustCandidates(t *testing.T, req Request) []Candidate {
	t.Helper()
	cands, err := Candidates(req)
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

// bestOf is the closed form's pick: the first candidate of least objective.
func bestOf(sc *scorer, cands []Candidate, o Objective) Scored {
	var best Scored
	for i, c := range cands {
		comm, total := sc.score(c)
		s := Scored{Candidate: c, ModelComm: comm, ModelTotal: total}
		if i == 0 || s.objective(o) < best.objective(o) {
			best = s
		}
	}
	return best
}

// properLevels reports a level of the candidate's hierarchy that has one
// group, or that leaves each side of its sub-grid unsplit or at one rank
// per group and is as narrow as the level below it or, at one rank per
// group, has a width among summaB.
func properLevels(c Candidate, summaB map[int]bool) error {
	var levels []core.Level
	g := c.Grid
	switch c.Algorithm {
	case engine.HSUMMA:
		levels = []core.Level{{I: c.GroupShape[0], J: c.GroupShape[1], BlockSize: c.OuterBlockSize}}
	case engine.Multilevel:
		levels = c.Levels
	}
	for k, lv := range levels {
		below := c.BlockSize
		if k+1 < len(levels) {
			below = levels[k+1].BlockSize
		}
		inner := topo.Grid{S: g.S / lv.I, T: g.T / lv.J}
		trivial := (lv.I == 1 || inner.S == 1) && (lv.J == 1 || inner.T == 1)
		if lv.I*lv.J <= 1 || trivial && (lv.BlockSize == below || inner.Size() == 1 && summaB[lv.BlockSize]) {
			return fmt.Errorf("level %d splits %v into %dx%d groups, %d wide", k, g, lv.I, lv.J, lv.BlockSize)
		}
		g = inner
	}
	return nil
}

// factorGroupsArranges reports whether every level of a multilevel
// candidate is the arrangement topo.FactorGroups picks for its group
// count on the sub-grid the level above leaves.
func factorGroupsArranges(c Candidate) bool {
	g := c.Grid
	for _, lv := range c.Levels {
		h, err := topo.FactorGroups(g, lv.I*lv.J)
		if err != nil || h.I != lv.I || h.J != lv.J {
			return false
		}
		g = topo.Grid{S: h.InnerS(), T: h.InnerT()}
	}
	return true
}

// parentCandidates is the enumerator hierarchies replaced, frozen as the
// reference for (b) and (d): a SUMMA sweep, an HSUMMA sweep over every
// power-of-two group count and the grid's size (endpoints included) and
// B ∈ {b, 2b, 4b}, two hard-coded multilevel shapes.
// Requests without a core budget only.
func parentCandidates(req Request) []Candidate {
	req = req.withDefaults()
	sh := req.Shape
	var out []Candidate
	for _, g := range candidateGrids(req) {
		bs := blockCandidates(sh, g)
		if req.BlockSize > 0 {
			if sh.K%g.S == 0 && sh.K%g.T == 0 &&
				((sh.K/g.S)%req.BlockSize != 0 || (sh.K/g.T)%req.BlockSize != 0) {
				continue
			}
			bs = []int{req.BlockSize}
		}
		for _, alg := range req.Algorithms {
			switch alg {
			case engine.SUMMA:
				for _, b := range bs {
					for _, bc := range req.Broadcasts {
						out = append(out, Candidate{Algorithm: alg, Grid: g, Knobs: core.Knobs{BlockSize: b, Broadcast: bc}})
					}
				}
			case engine.HSUMMA:
				for _, G := range parentGroupCandidates(g) {
					h, err := topo.FactorGroups(g, G)
					if err != nil {
						continue
					}
					for _, b := range bs {
						for _, B := range parentOuterBlockCandidates(req, g, b) {
							for _, bc := range req.Broadcasts {
								out = append(out, Candidate{
									Algorithm: alg, Grid: g,
									Groups: G, GroupShape: [2]int{h.I, h.J},
									Knobs: core.Knobs{BlockSize: b, OuterBlockSize: B, Broadcast: bc},
								})
							}
						}
					}
				}
			case engine.Multilevel:
				out = append(out, parentMultilevelCandidates(req, g, bs)...)
			case engine.Cannon, engine.Fox:
				if core.SquareOnly(sh, g) != nil {
					continue
				}
				if alg == engine.Cannon {
					out = append(out, Candidate{Algorithm: alg, Grid: g})
					continue
				}
				for _, bc := range req.Broadcasts {
					out = append(out, Candidate{Algorithm: alg, Grid: g, Knobs: core.Knobs{Broadcast: bc}})
				}
			}
		}
	}
	return out
}

func parentGroupCandidates(g topo.Grid) []int {
	var out []int
	for _, G := range topo.ValidGroupCounts(g) {
		if G&(G-1) == 0 || G == g.Size() {
			out = append(out, G)
		}
	}
	return out
}

func parentOuterBlockCandidates(req Request, g topo.Grid, b int) []int {
	sh := req.Shape
	exact := sh.K%g.S == 0 && sh.K%g.T == 0
	divides := func(B int) bool {
		return !exact || ((sh.K/g.S)%B == 0 && (sh.K/g.T)%B == 0)
	}
	if B := req.OuterBlockSize; B > 0 {
		if B%b != 0 || !divides(B) {
			return nil
		}
		return []int{B}
	}
	out := []int{b}
	for _, mult := range []int{2, 4} {
		if B := b * mult; B <= minTileExtent(sh, g) && divides(B) {
			out = append(out, B)
		}
	}
	return out
}

func parentMultilevelCandidates(req Request, g topo.Grid, bs []int) []Candidate {
	var out []Candidate
	sh := req.Shape
	exact := sh.K%g.S == 0 && sh.K%g.T == 0
	for _, shape := range [][2][2]int{{{2, 2}, {2, 2}}, {{4, 4}, {2, 2}}} {
		i1, j1 := shape[0][0], shape[0][1]
		i2, j2 := shape[1][0], shape[1][1]
		if g.S%(i1*i2) != 0 || g.T%(j1*j2) != 0 {
			continue
		}
		for _, b := range bs {
			top := 4 * b
			if top > minTileExtent(sh, g) {
				continue
			}
			if exact && ((sh.K/g.S)%top != 0 || (sh.K/g.T)%top != 0) {
				continue
			}
			for _, bc := range req.Broadcasts {
				out = append(out, Candidate{
					Algorithm: engine.Multilevel, Grid: g, Knobs: core.Knobs{BlockSize: b, Broadcast: bc},
					Levels: []core.Level{
						{I: i1, J: j1, BlockSize: top},
						{I: i2, J: j2, BlockSize: 2 * b},
					},
				})
			}
		}
	}
	return out
}
