package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// Distributed Strassen: 2×2 quadrant recursion over the process grid. The
// square s×s grid is split into four (s/2)×(s/2) quadrant sub-grids via
// comm.Split; the block-checkerboard layout makes quadrant sub-grid (qi,qj)
// the natural owner of matrix quadrant (qi,qj) with unchanged local tile
// sizes, so recursing costs no redistribution. The seven Strassen products
// are assigned round-robin to the four quadrant sub-grids; each product's
// operand sums are staged to the host quadrant by point-to-point sends
// (one tile-sized message per non-local term per rank), the host recurses
// — or, below the recursion depth, runs SUMMA/HSUMMA on its sub-grid —
// and sends its C contributions back to the target quadrants. All data
// movement and arithmetic go through the comm.Comm interface, so live mpi,
// the goroutine world and the event engine execute the schedule unchanged
// and count identical traffic.
//
// Each level replaces 8 sub-multiplications with 7, but the four sub-grids
// execute ceil(7/4) = 2 sequential sub-problems where classic SUMMA's
// critical path is 1 of 8 — the per-rank flop win therefore comes from the
// LocalStrassen kernel at the bottom, not from the distribution itself,
// and the tune scorer models exactly that (see internal/tune).

// StrassenTerm is one quadrant operand of a product: the row-major
// quadrant index (0=11, 1=12, 2=21, 3=22) and its sign.
type StrassenTerm struct {
	Q    int
	Sign float64
}

// StrassenProductSpec describes one of the seven products M = (ΣA)·(ΣB)
// and its C contributions, plus the quadrant sub-grid that hosts its
// computation. Exported so the tune scorer derives the per-quadrant
// communication volume from the same table the execution runs.
type StrassenProductSpec struct {
	// Host is the quadrant sub-grid that computes this product
	// (round-robin: product r is hosted by quadrant r mod 4).
	Host int
	A    []StrassenTerm
	B    []StrassenTerm
	C    []StrassenTerm
}

// StrassenProducts returns the classic Strassen product table:
//
//	M1 = (A11+A22)(B11+B22)   C11 += M1, C22 += M1   host Q11
//	M2 = (A21+A22)·B11        C21 += M2, C22 -= M2   host Q12
//	M3 = A11·(B12-B22)        C12 += M3, C22 += M3   host Q21
//	M4 = A22·(B21-B11)        C11 += M4, C21 += M4   host Q22
//	M5 = (A11+A12)·B22        C11 -= M5, C12 += M5   host Q11
//	M6 = (A21-A11)(B11+B12)   C22 += M6              host Q12
//	M7 = (A12-A22)(B21+B22)   C11 += M7              host Q21
func StrassenProducts() [7]StrassenProductSpec {
	return [7]StrassenProductSpec{
		{Host: 0, A: []StrassenTerm{{0, 1}, {3, 1}}, B: []StrassenTerm{{0, 1}, {3, 1}}, C: []StrassenTerm{{0, 1}, {3, 1}}},
		{Host: 1, A: []StrassenTerm{{2, 1}, {3, 1}}, B: []StrassenTerm{{0, 1}}, C: []StrassenTerm{{2, 1}, {3, -1}}},
		{Host: 2, A: []StrassenTerm{{0, 1}}, B: []StrassenTerm{{1, 1}, {3, -1}}, C: []StrassenTerm{{1, 1}, {3, 1}}},
		{Host: 3, A: []StrassenTerm{{3, 1}}, B: []StrassenTerm{{2, 1}, {0, -1}}, C: []StrassenTerm{{0, 1}, {2, 1}}},
		{Host: 0, A: []StrassenTerm{{0, 1}, {1, 1}}, B: []StrassenTerm{{3, 1}}, C: []StrassenTerm{{0, -1}, {1, 1}}},
		{Host: 1, A: []StrassenTerm{{2, 1}, {0, -1}}, B: []StrassenTerm{{0, 1}, {1, 1}}, C: []StrassenTerm{{3, 1}}},
		{Host: 2, A: []StrassenTerm{{1, 1}, {3, -1}}, B: []StrassenTerm{{2, 1}, {3, 1}}, C: []StrassenTerm{{0, 1}}},
	}
}

// StrassenLevelsOf canonicalises the recursion depth knob: ≤ 0 means one
// level.
func StrassenLevelsOf(levels int) int {
	if levels < 1 {
		return 1
	}
	return levels
}

// strassenBottom builds the Options and hierarchy of the sub-problem the
// recursion bottoms out in: size n on an s×s sub-grid under the same knobs
// (the pivot loop ignores the Strassen ones), SUMMA by default or HSUMMA
// with StrassenInnerGroups groups factored onto the sub-grid.
func (o Options) strassenBottom(n, s int) (Options, []Level, error) {
	bot := Options{Shape: matrix.Square(n), Grid: topo.Grid{S: s, T: s}, Knobs: o.Knobs}
	if o.StrassenInnerGroups <= 0 {
		return bot, nil, nil
	}
	h, err := topo.FactorGroups(bot.Grid, o.StrassenInnerGroups)
	if err != nil {
		return Options{}, nil, fmt.Errorf("core: strassen: inner groups: %w", err)
	}
	bot.Groups = h
	return bot, bot.GroupLevels(), nil
}

// Strassen performs C += A·B with the two-level distributed Strassen
// algorithm: StrassenLevels rounds of quadrant recursion over the grid,
// bottoming out in SUMMA (or HSUMMA when StrassenInnerGroups > 0) on the
// sub-grids. Requires a square shape on a square s×s grid with s and n
// divisible by 2^levels; local tiles are (n/s)×(n/s) and keep that size at
// every recursion level. Strassen reassociates the floating-point
// arithmetic, so results agree with the classic algorithms to relative
// tolerance, not bit for bit.
func Strassen(c comm.Comm, opts Options, aLoc, bLoc, cLoc *matrix.Dense) error {
	o := opts.withDefaults()
	levels := StrassenLevelsOf(o.StrassenLevels)
	if err := o.ValidateSquare(levels); err != nil {
		return err
	}
	if c.Size() != o.Grid.Size() {
		return fmt.Errorf("core: communicator size %d does not match grid %v", c.Size(), o.Grid)
	}
	tile := o.Shape.N / o.Grid.S
	checkTile("A", aLoc, tile, tile)
	checkTile("B", bLoc, tile, tile)
	checkTile("C", cLoc, tile, tile)
	return strassenLevel(c, o, o.Shape.N, o.Grid.S, levels, aLoc, bLoc, cLoc)
}

// Per-level point-to-point tags. Stage tags identify (product, term,
// operand); combine tags identify (product, contribution). Each recursion
// level runs on its own communicator (the parent's Split), so tags never
// collide across levels, and the bottom SUMMA/HSUMMA sees only its own
// sub-communicators.
func strassenStageTag(r, term, operand int) int { return r*8 + term*2 + operand }
func strassenCombineTag(r, ct int) int          { return 64 + r*4 + ct }

// strassenLevel runs one quadrant recursion level on an s×s grid over an
// n×n problem: stage operand sums to the host quadrants, compute the seven
// products (recursing or running the bottom algorithm on the quadrant
// sub-grid), and return the contributions to the C owners.
//
// The schedule is deadlock-free by the eager-send contract: phase 1 posts
// every staging send this rank owes any host, phase 2 receives the staged
// terms for the products this rank's quadrant hosts, computes them and
// eagerly sends the contributions out, and phase 3 receives the
// contributions targeting this rank's quadrant. A rank's phase 2 depends
// only on peers' phase 1, and its phase 3 only on peers' phase 2.
func strassenLevel(c comm.Comm, o Options, n, s, level int, aLoc, bLoc, cLoc *matrix.Dense) error {
	g := topo.Grid{S: s, T: s}
	half := s / 2
	i, j := g.Coords(c.Rank())
	qi, qj := i/half, j/half
	myQ := qi*2 + qj
	li, lj := i%half, j%half
	// partner returns the parent-grid rank holding my (li,lj) position in
	// quadrant q — the same within-sub-grid coordinates, different quadrant.
	partner := func(q int) int { return g.Rank((q/2)*half+li, (q%2)*half+lj) }

	sub := c.Split(myQ, li*half+lj)
	tile := n / s
	products := StrassenProducts()

	// Phase 1: stage my tile of every operand term owned by my quadrant to
	// the product's host quadrant. Sends are eager — none of these block —
	// and a published panel is read-only, so one packed copy of each
	// operand serves every host that needs it.
	aWire := c.NewPanel(tile, tile)
	bWire := c.NewPanel(tile, tile)
	aPacked, bPacked := false, false
	for r, p := range products {
		for t, term := range p.A {
			if term.Q == myQ && p.Host != myQ {
				if !aPacked {
					c.Pack(aWire, aLoc)
					aPacked = true
				}
				c.Send(partner(p.Host), strassenStageTag(r, t, 0), aWire)
			}
		}
		for t, term := range p.B {
			if term.Q == myQ && p.Host != myQ {
				if !bPacked {
					c.Pack(bWire, bLoc)
					bPacked = true
				}
				c.Send(partner(p.Host), strassenStageTag(r, t, 1), bWire)
			}
		}
	}

	// Phase 2: for each product my quadrant hosts, assemble the operand
	// sums (local tile or staged receive per term), compute the product on
	// the quadrant sub-grid, and distribute its C contributions.
	sumA := c.NewPanel(tile, tile)
	sumB := c.NewPanel(tile, tile)
	prod := c.NewTile(tile, tile)
	wire := c.NewPanel(tile, tile)
	assemble := func(dst *comm.Panel, terms []StrassenTerm, r, operand int, loc *matrix.Dense) {
		for t, term := range terms {
			src := loc
			if term.Q != myQ {
				c.Recv(partner(term.Q), strassenStageTag(r, t, operand), wire)
				src = &wire.Tile
			}
			if t == 0 && term.Sign == 1 {
				// First positive term: copy (free on virtual transports,
				// cheaper than zero+axpy on live ones). The pack leaves
				// dst exclusively ours, so later terms add into it.
				c.Pack(dst, src)
				continue
			}
			c.Axpy(term.Sign, src, &dst.Tile)
		}
	}
	for r, p := range products {
		if p.Host != myQ {
			continue
		}
		assemble(sumA, p.A, r, 0, aLoc)
		assemble(sumB, p.B, r, 1, bLoc)
		// prod accumulates: reset it for this product. The virtual engines
		// elide storage, so zeroing is a local no-op there.
		zeroTile(prod)
		if level > 1 {
			if err := strassenLevel(sub, o, n/2, half, level-1, &sumA.Tile, &sumB.Tile, prod); err != nil {
				return err
			}
		} else {
			bot, levels, err := o.strassenBottom(n/2, half)
			if err != nil {
				return err
			}
			if err := pivotLoop(sub, &bot, levels, &sumA.Tile, &sumB.Tile, prod); err != nil {
				return err
			}
		}
		packed := false
		for ct, term := range p.C {
			if term.Q == myQ {
				c.Axpy(term.Sign, prod, cLoc)
				continue
			}
			if !packed {
				c.Pack(wire, prod)
				packed = true
			}
			c.Send(partner(term.Q), strassenCombineTag(r, ct), wire)
		}
	}

	// Phase 3: receive the contributions other hosts computed for my
	// quadrant, in fixed product order — deterministic accumulation.
	for r, p := range products {
		if p.Host == myQ {
			continue
		}
		for ct, term := range p.C {
			if term.Q != myQ {
				continue
			}
			c.Recv(partner(p.Host), strassenCombineTag(r, ct), wire)
			c.Axpy(term.Sign, &wire.Tile, cLoc)
		}
	}
	return nil
}

// zeroTile clears a tile's storage; virtual tiles have no storage (nil
// Data) and need no clearing.
func zeroTile(m *matrix.Dense) {
	if m.Data != nil {
		m.Zero()
	}
}
