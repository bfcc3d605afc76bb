package core

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// SUMMA performs C += A·B with the scalable universal matrix
// multiplication algorithm (paper Section II-A): the empty hierarchy. K/b
// steps each broadcast the pivot column panel of A along process rows and
// the pivot row panel of B along process columns, then update C locally.
//
// c must span exactly Grid.Size() ranks; aLoc, bLoc and cLoc are this
// rank's block-checkerboard tiles of size (M/s)×(K/t), (K/s)×(N/t) and
// (M/s)×(N/t) respectively (see dist.BlockMap). aLoc and bLoc are not
// modified.
func SUMMA(c comm.Comm, opts Options, aLoc, bLoc, cLoc *matrix.Dense) error {
	return pivotLoop(c, &opts, nil, aLoc, bLoc, cLoc)
}

// HSUMMA performs C += A·B with the paper's hierarchical SUMMA (Section
// III, Algorithm 1): the one-level hierarchy opts.GroupLevels(). Each of
// the K/B outer steps broadcasts the outer pivot panels *between* the I×J
// groups, then runs B/b inner steps that broadcast b-wide sub-panels
// *inside* each group. With Groups = 1×1 or s×t (and B = b) one of the two
// phases has single-rank communicators and HSUMMA performs exactly SUMMA's
// communication — the paper's "SUMMA is a special case of HSUMMA".
func HSUMMA(c comm.Comm, opts Options, aLoc, bLoc, cLoc *matrix.Dense) error {
	return pivotLoop(c, &opts, opts.GroupLevels(), aLoc, bLoc, cLoc)
}

// MultilevelHSUMMA performs C += A·B over an arbitrary hierarchy — the
// extension the paper proposes in Section VI ("we also plan to investigate
// the algorithm with more than two levels of hierarchy"). levels[0] is the
// coarsest grouping; each subsequent level subdivides the previous level's
// subgrid. innerBlock is the paper's b, the panel width of the innermost
// broadcasts. Zero levels is SUMMA and one level is HSUMMA, exactly.
func MultilevelHSUMMA(c comm.Comm, opts Options, levels []Level, innerBlock int, aLoc, bLoc, cLoc *matrix.Dense) error {
	opts.BlockSize = innerBlock
	return pivotLoop(c, &opts, levels, aLoc, bLoc, cLoc)
}

// stage is one broadcast stage of the pivot loop as one rank sees it: the
// communicators spanning the stage's digit of the rank's grid column (for
// A) and row (for B), the panels it broadcasts, and where its current
// panel starts inside the previous stage's. strideT and strideS are the
// products of the finer stages' radices: a grid column v has digit
// (v / strideT) % J at this stage, and myI, myJ are the rank's own. aRoot
// (bRoot) is the digit of the current owner of A's (B's) panels, the root
// of the stage's broadcast, or −1 when this rank's finer digits do not
// match the owner's and it sits the broadcast out. Owners dwell for
// K/(t·w) steps, so roots are worked out when the
// owner changes (retarget), not once per step.
//
// What every step reads comes first and what only retarget reads last: a
// simulated rank wakes up cold at each broadcast, and the cache lines it
// touches before the next one are most of its host cost.
type stage struct {
	aComm, bComm   comm.Comm
	aPanel, bPanel *comm.Panel
	aRoot, bRoot   int
	myI, myJ       int
	width, off     int

	I, J, strideS, strideT int
}

// pivot is one rank's state of the pivot loop: what every step reads, the
// stages, and — per top-level panel — the owning grid column of A's panel
// and row of B's (−1 before the first) with the panels' offsets in the
// owners' tiles. Owners are fixed for a whole walk because the top panel
// lives in one tile.
type pivot struct {
	c              comm.Comm
	bcast          sched.Algorithm
	threads        int
	cLoc           *matrix.Dense
	last           int // index of the innermost stage
	ownerCol, aOff int
	ownerRow, bOff int
	// SUMMA's one stage and HSUMMA's two are stored inline, so a rank of
	// the paper's algorithms allocates nothing of its own (what the
	// stages point to reaches the transport, which would move a slice of
	// them to the heap); deeper hierarchies allocate the rest once.
	few  [2]stage
	more []stage

	i, j       int
	aLoc, bLoc *matrix.Dense
}

// locate finds the owners of the top-level panel starting at lo and its
// offsets in their tiles. Ownership is block-checkerboard: each rank holds
// one contiguous K range, aCols wide in A and bRows tall in B. The owners
// change only when lo leaves their tiles, so only then does it divide and
// retarget the broadcasts.
func (p *pivot) locate(lo, aCols, bRows int) {
	p.aOff, p.bOff = lo-p.ownerCol*aCols, lo-p.ownerRow*bRows
	if p.aOff < 0 || p.aOff >= aCols || p.bOff < 0 || p.bOff >= bRows {
		p.retarget(lo/aCols, lo/bRows)
		p.aOff, p.bOff = lo%aCols, lo%bRows
	}
}

// retarget points every stage's broadcasts at the owners of the next
// top-level panels.
func (p *pivot) retarget(ownerCol, ownerRow int) {
	for k := 0; k <= p.last && ownerCol != p.ownerCol; k++ {
		st := p.stage(k)
		if st.aRoot = -1; p.j%st.strideT == ownerCol%st.strideT {
			st.aRoot = ownerCol / st.strideT % st.J
		}
	}
	for k := 0; k <= p.last && ownerRow != p.ownerRow; k++ {
		st := p.stage(k)
		if st.bRoot = -1; p.i%st.strideS == ownerRow%st.strideS {
			st.bRoot = ownerRow / st.strideS % st.I
		}
	}
	p.ownerCol, p.ownerRow = ownerCol, ownerRow
}

func (p *pivot) stage(k int) *stage {
	if k < len(p.few) {
		return &p.few[k]
	}
	return &p.more[k-len(p.few)]
}

// pivotLoop is the one pivot loop of the SUMMA family, written against the
// transport-agnostic comm.Comm so the identical code executes on the live
// goroutine runtime and on the virtual communicators.
//
// The hierarchy is a list of levels. The rank's grid column decomposes
// into mixed-radix digits (y_0, …, y_{L-1}, j_fine) over (J_0, …, J_{L-1},
// t/ΠJ), its grid row likewise over the I factors; stage k's horizontal
// communicator connects the ranks that differ only in column digit k. A
// pivot panel travels down the stages: at stage k the ranks whose finer
// digits match the owner's receive the stage's width of it from the rank
// holding the owner's digit k, and the last stage — what the levels leave
// of the grid, b wide — ends in the local update. A stage whose
// communicator has one rank broadcasts nothing, so levels of 1×1 groups
// cost nothing.
//
// Only ranks on the owning digits ever hold a stage's panel; a panel that
// is never packed or received into stays empty, so the memory is the
// paper's footprint, B·M/s + B·N/t on the ranks that take part.
func pivotLoop(c comm.Comm, opts *Options, levels []Level, aLoc, bLoc, cLoc *matrix.Dense) error {
	o := opts.withDefaults()
	if err := o.Validate(levels); err != nil {
		return err
	}
	g := o.Grid
	if c.Size() != g.Size() {
		return fmt.Errorf("core: communicator size %d does not match grid %v", c.Size(), g)
	}
	aRows, aCols, bRows, bCols := o.tiles()
	checkTile("A", aLoc, aRows, aCols)
	checkTile("B", bLoc, bRows, bCols)
	checkTile("C", cLoc, aRows, bCols)

	i, j := g.Coords(c.Rank())
	// Filled in place rather than from a composite literal, which would
	// build a second copy in this frame: every simulated rank is a
	// goroutine parked under it, and a few hundred bytes more here cost
	// each of them another stack doubling (measured: +15 % host time at
	// p=2048).
	var p pivot
	p.c, p.bcast, p.threads = c, o.Broadcast, o.Threads
	p.i, p.j, p.aLoc, p.bLoc, p.cLoc = i, j, aLoc, bLoc, cLoc
	p.last, p.ownerCol, p.ownerRow = len(levels), -1, -1
	if extra := p.last + 1 - len(p.few); extra > 0 {
		p.more = make([]stage, extra)
	}
	strideS, strideT := g.S, g.T
	for k := 0; k <= p.last; k++ {
		st := p.stage(k)
		st.I, st.J, st.width = strideS, strideT, o.BlockSize
		if k < len(levels) {
			st.I, st.J, st.width = levels[k].I, levels[k].J, levels[k].BlockSize
		}
		strideS /= st.I
		strideT /= st.J
		st.strideS, st.strideT = strideS, strideT
		st.myI, st.myJ = i/strideS%st.I, j/strideT%st.J
		// Ranks sharing a grid row and every column digit but this one
		// share a colour; the rank inside the communicator is the digit.
		st.aComm = c.Split(i*g.T+j/(strideT*st.J)*strideT+j%strideT, st.myJ)
		st.bComm = c.Split(j*g.S+i/(strideS*st.I)*strideS+i%strideS, st.myI)
		st.aPanel = c.NewPanel(aRows, st.width, comm.LHS)
		st.bPanel = c.NewPanel(st.width, bCols, comm.RHS)
	}
	p.walk(o.Shape.K, aCols, bRows)
	return nil
}

// StreamClasses is the pivot loop's stream-class rule: rank r of the grid
// records the same calls as every other rank of its class, with only the
// communicators differing — Split order and count, broadcast roots, op
// sequences and panel shapes all agree. A rank's class is its position
// inside its outermost group, (i mod S/I₀, j mod T/J₀): the participation
// test in retarget compares j mod strideT (and i mod strideS) with the
// owner's, every stage's stride divides the outermost one, roots are the
// owner's digits, and tiles are uniform. A level of one group along a
// dimension broadcasts nothing along it, so the outermost level with more
// than one group there sets that stride. SUMMA (no levels) is one class.
// nil means one class per rank, for options the loop rejects.
func StreamClasses(opts *Options, levels []Level) []int {
	if opts.Validate(levels) != nil {
		return nil
	}
	g := opts.Grid
	strideS, strideT := 0, 0
	for _, l := range levels {
		if strideS == 0 && l.I > 1 {
			strideS = g.S / l.I
		}
		if strideT == 0 && l.J > 1 {
			strideT = g.T / l.J
		}
	}
	strideS, strideT = max(strideS, 1), max(strideT, 1)
	class := make([]int, g.Size())
	for r := range class {
		i, j := g.Coords(r)
		class[r] = i%strideS*strideT + j%strideT
	}
	return class
}

// walk is the loop itself: an odometer over the stages. Digit 0 is lo, the
// start of the current top-level panel in K; digit k > 0 is st.off, the
// offset of stage k's current panel inside stage k-1's. A stage broadcasts
// each time a digit at or above it moves (a new top-level panel also looks
// up its owners), and the innermost stage ends in the local update. With
// equal widths the window is the whole parent and Repack forwards it
// without a copy. It is a loop in a small frame of its own, not a
// recursion over the stages inside pivotLoop's frame, for the reasons
// noted there (stack depth) and at stage (cache lines).
func (p *pivot) walk(K, aCols, bRows int) {
	c := p.c
	for lo, k := 0, 0; lo < K; {
		if k == 0 {
			p.locate(lo, aCols, bRows)
		}
		st := p.stage(k)
		if st.aRoot >= 0 {
			if st.myJ == st.aRoot {
				if k == 0 {
					c.Pack(st.aPanel, p.aLoc, 0, p.aOff)
				} else {
					c.Repack(st.aPanel, p.stage(k-1).aPanel, st.off)
				}
			}
			st.aComm.Bcast(p.bcast, st.aRoot, st.aPanel)
		}
		if st.bRoot >= 0 {
			if st.myI == st.bRoot {
				if k == 0 {
					c.Pack(st.bPanel, p.bLoc, p.bOff, 0)
				} else {
					c.Repack(st.bPanel, p.stage(k-1).bPanel, st.off)
				}
			}
			st.bComm.Bcast(p.bcast, st.bRoot, st.bPanel)
		}
		if k < p.last {
			k++
			p.stage(k).off = 0
			continue
		}
		c.Gemm(p.cLoc, st.aPanel, st.bPanel, p.threads)
		// The deepest stage with a sub-panel left moves on to it; when
		// none has, the next top-level panel is due.
		for ; k > 0; k-- {
			if st = p.stage(k); st.off+st.width < p.stage(k-1).width {
				st.off += st.width
				break
			}
		}
		if k == 0 {
			lo += p.few[0].width
		}
	}
}

// checkTile panics when a local tile has the wrong shape — a programming
// error in the caller's distribution setup, not a runtime condition.
func checkTile(name string, m *matrix.Dense, rows, cols int) {
	if m.Rows != rows || m.Cols != cols {
		panic(fmt.Sprintf("core: local %s tile is %dx%d, want %dx%d", name, m.Rows, m.Cols, rows, cols))
	}
}

// Reference computes C += A·B sequentially — the oracle the distributed
// algorithms are validated against in tests and examples.
func Reference(c, a, b *matrix.Dense) {
	blas.Gemm(c, a, b)
}
