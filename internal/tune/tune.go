// Package tune is the model-driven autotuning planner: given a platform
// (Hockney machine plus contention description), a GEMM problem shape
// (M, N, K — or the square shorthand n) and a processor count p, it
// searches the configuration space the paper leaves to the reader —
// algorithm × group hierarchy × grid shape and orientation × block sizes
// × broadcast variant — and returns a ranked Plan.
//
// The search is one closed-form stage, as the paper's §VI suggests:
// every feasible candidate is scored with the cost models of
// internal/model under the platform's Hockney parameters (microseconds
// per candidate, so thousands are scanned), and the best rankedLen are
// returned. Those models equal the contention-free event engine on grids
// whose sides are powers of two, so there the score is final; the few
// candidates the models price only approximately — those that broadcast
// on other grids, and everything under contention — are replayed on the
// event engine and re-ranked (see replayed).
//
// Plans are memoised in a cache keyed by (platform fingerprint, n, p,
// search flags), so serving-style workloads that repeatedly ask "how should
// I multiply n×n on this machine?" pay the search once.
package tune

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/topo"
)

// Objective selects the quantity the planner minimises.
type Objective string

const (
	// MinTotal minimises simulated execution time (communication plus
	// computation) — the paper's Figure 8 quantity, and the default.
	MinTotal Objective = "total"
	// MinComm minimises communication time only (Figures 5–7, 9).
	MinComm Objective = "comm"
)

// Request describes one planning problem.
type Request struct {
	// Platform is the machine to tune for (preset or calibrated model).
	Platform machine.Platform
	// Shape is the GEMM problem C (M×N) += A (M×K)·B (K×N); the zero
	// value defers to N, the square shorthand.
	Shape matrix.Shape
	// N is the square matrix dimension (ignored when Shape is set), P the
	// processor count.
	N, P int
	// Grid optionally pins the process grid (otherwise every feasible
	// S×T factorisation of P is searched).
	Grid *topo.Grid
	// BlockSize optionally pins the paper's b (otherwise the feasible
	// power-of-two blocks are searched). The paper's G sweeps hold b
	// fixed, so figure annotation pins it too.
	BlockSize int
	// Threads optionally pins the per-rank thread budget (the hybrid
	// MPI+OpenMP knob). 0 leaves it to the search: 1 when no CoreBudget
	// is given, the (ranks × threads) sweep otherwise.
	Threads int
	// CoreBudget, when positive, makes the planner trade grid size
	// against intra-rank parallelism: instead of planning for exactly P
	// ranks it enumerates (p = CoreBudget/t, t) splits for power-of-two
	// thread counts t, every candidate consuming at most CoreBudget
	// cores — the serving layer's accounting unit. P is ignored (a
	// pinned Grid constrains p; a pinned Threads constrains t).
	CoreBudget int
	// OuterBlockSize optionally pins HSUMMA's B (otherwise b and its
	// feasible multiples are searched; the paper sets B = b throughout).
	OuterBlockSize int
	// Algorithms restricts the candidate algorithms; nil means SUMMA,
	// HSUMMA, Cannon and Fox (Multilevel joins when listed explicitly).
	Algorithms []engine.Algorithm
	// Broadcasts restricts the broadcast variants; nil means both of the
	// paper's, binomial and Van de Geijn.
	Broadcasts []sched.Algorithm
	// Objective defaults to MinTotal.
	Objective Objective
	// Quick trims the candidate space (fewer block sizes, power-of-two
	// group counts, squarest grid only) so a plan completes in well under
	// a second — the mode tests and CI smoke runs use.
	Quick bool
	// Contention prices the platform's link sharing, which only the event
	// engine models: every ranked candidate at most AutoProcs ranks wide
	// is replayed.
	Contention bool
	// NoCache bypasses the plan cache for this request.
	NoCache bool
}

func (r Request) withDefaults() Request {
	if r.Shape.IsZero() {
		r.Shape = matrix.Square(r.N)
	}
	if r.Objective == "" {
		r.Objective = MinTotal
	}
	if len(r.Algorithms) == 0 {
		r.Algorithms = []engine.Algorithm{engine.SUMMA, engine.HSUMMA, engine.Cannon, engine.Fox}
	}
	if len(r.Broadcasts) == 0 {
		r.Broadcasts = sched.Algorithms()
	}
	return r
}

func (r Request) validate() error {
	// The same dimension-naming validation Multiply and Simulate apply,
	// so all three public surfaces report identical shape errors.
	if err := r.Shape.Validate(); err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	if r.CoreBudget > 0 {
		// Under a core budget the rank count is searched, not pinned; a
		// pinned grid (and/or thread count) must still fit the budget.
		t := r.Threads
		if t < 1 {
			t = 1
		}
		if r.Grid != nil && r.Grid.Size()*t > r.CoreBudget {
			return fmt.Errorf("tune: pinned grid %v × %d threads exceeds core budget %d", *r.Grid, t, r.CoreBudget)
		}
		if r.Threads > r.CoreBudget {
			return fmt.Errorf("tune: pinned threads %d exceeds core budget %d", r.Threads, r.CoreBudget)
		}
		return nil
	}
	if r.P <= 0 {
		return fmt.Errorf("tune: invalid processor count p=%d", r.P)
	}
	if r.Grid != nil && r.Grid.Size() != r.P {
		return fmt.Errorf("tune: pinned grid %v does not hold %d procs", *r.Grid, r.P)
	}
	return nil
}

// rankThreadPairs lists the (ranks, threads-per-rank) splits the search
// covers. Without a CoreBudget there is exactly one: the requested P with
// the pinned thread count (default 1). Under a CoreBudget every
// power-of-two thread count is paired with the rank count that fills the
// budget, so the planner can answer "64 cores: 64×1, 32×2, 16×4, …?" with
// the cost model arbitrating grid-level communication against intra-rank
// speedup.
func rankThreadPairs(req Request) [][2]int {
	if req.CoreBudget <= 0 {
		t := req.Threads
		if t < 1 {
			t = 1
		}
		return [][2]int{{req.P, t}}
	}
	var out [][2]int
	for t := 1; t <= req.CoreBudget; t *= 2 {
		if req.Threads > 0 && t != req.Threads {
			continue
		}
		p := req.CoreBudget / t
		if req.Grid != nil {
			if req.Grid.Size()*t > req.CoreBudget {
				break
			}
			p = req.Grid.Size()
		}
		if p < 1 {
			break
		}
		out = append(out, [2]int{p, t})
	}
	return out
}

// Candidate is one fully specified configuration the planner can score,
// simulate and hand to the engine: the algorithm and its topology plus the
// shared execution knobs (core.Knobs — Threads 0 and 1 both mean serial;
// the candidate consumes Grid.Size() × max(1, Threads) cores).
type Candidate struct {
	Algorithm engine.Algorithm `json:"algorithm"`
	Grid      topo.Grid        `json:"grid"`
	// Groups and GroupShape describe the HSUMMA hierarchy (G = I×J).
	Groups     int    `json:"groups,omitempty"`
	GroupShape [2]int `json:"group_shape,omitempty"`
	core.Knobs
	Levels []core.Level `json:"levels,omitempty"`
}

// Cores returns the candidate's total core consumption — the quantity a
// CoreBudget bounds, per request in the serving scheduler.
func (c Candidate) Cores() int {
	t := c.Threads
	if t < 1 {
		t = 1
	}
	return c.Grid.Size() * t
}

// Spec resolves the candidate into the engine's transport-independent run
// description, padded to its execution shape — the same value
// hsumma.Multiply and hsumma.Simulate execute. It fails only for a shape
// the algorithm cannot run at all (square-only on a rectangle).
func (c Candidate) Spec(sh matrix.Shape) (engine.Spec, error) {
	opts := core.Options{Shape: sh, Grid: c.Grid, Knobs: c.Knobs}
	opts.Groups = topo.Hier{Grid: c.Grid, I: c.GroupShape[0], J: c.GroupShape[1]}
	return engine.Spec{Algorithm: c.Algorithm, Opts: opts, Levels: c.Levels}.Padded()
}

func (c Candidate) String() string {
	s := fmt.Sprintf("%s grid=%v", c.Algorithm, c.Grid)
	if c.Algorithm == engine.HSUMMA {
		s += fmt.Sprintf(" G=%d(%dx%d)", c.Groups, c.GroupShape[0], c.GroupShape[1])
	}
	if c.BlockSize > 0 {
		s += fmt.Sprintf(" b=%d", c.BlockSize)
		if c.OuterBlockSize > 0 && c.OuterBlockSize != c.BlockSize {
			s += fmt.Sprintf(" B=%d", c.OuterBlockSize)
		}
	}
	for _, lv := range c.Levels {
		s += fmt.Sprintf(" L%dx%d:%d", lv.I, lv.J, lv.BlockSize)
	}
	if c.Broadcast != "" {
		s += " bcast=" + string(c.Broadcast)
	}
	if c.Threads > 1 {
		s += fmt.Sprintf(" t=%d", c.Threads)
	}
	return s
}

// Scored is a candidate with its closed-form and, when replayed, its
// simulated costs in seconds.
type Scored struct {
	Candidate
	ModelComm  float64 `json:"model_comm_s"`
	ModelTotal float64 `json:"model_total_s"`
	SimComm    float64 `json:"sim_comm_s,omitempty"`
	SimTotal   float64 `json:"sim_total_s,omitempty"`
	// PredictedSecondsByPhase is the closed-form cost decomposed onto the
	// trace phase vocabulary (bcast/shift/p2p for comm, gemm for compute);
	// the comm phases sum to ModelComm up to floating-point association.
	// It is the measured-vs-predicted denominator the serving layer's
	// drift tracking audits.
	PredictedSecondsByPhase map[string]float64 `json:"predicted_seconds_by_phase,omitempty"`
	// Refined reports whether the candidate was replayed on the event
	// engine (see replayed); its Sim fields then rank it.
	Refined bool `json:"refined"`
	// Err records a failed replay (the candidate is ranked last).
	Err string `json:"err,omitempty"`
}

// objective returns the value the plan ranks by: the simulated cost when
// replayed, the closed-form one otherwise.
func (s Scored) objective(o Objective) float64 {
	if s.Refined {
		if o == MinComm {
			return s.SimComm
		}
		return s.SimTotal
	}
	if o == MinComm {
		return s.ModelComm
	}
	return s.ModelTotal
}

// Plan is the planner's answer: the best configuration plus the ranked
// leaders and search statistics.
type Plan struct {
	Platform string `json:"platform"`
	// Shape is the *requested* GEMM problem; candidates that need padding
	// are scored and simulated at their own (grid-dependent) execution
	// shapes. N echoes the square shorthand (0 for rectangular problems).
	Shape matrix.Shape `json:"shape"`
	N     int          `json:"n,omitempty"`
	P     int          `json:"p"`
	// CoreBudget echoes the request's core budget when the plan searched
	// (ranks × threads) splits instead of a fixed P.
	CoreBudget int       `json:"core_budget,omitempty"`
	Objective  Objective `json:"objective"`
	// Best is Ranked[0], repeated for convenience.
	Best Scored `json:"best"`
	// Ranked holds the closed-form leaders, best first; the other scanned
	// candidates scored worse.
	Ranked []Scored `json:"ranked"`
	// Scanned counts the candidates scored in closed form; Simulated
	// counts the event-engine replays among Ranked.
	Scanned   int `json:"scanned"`
	Simulated int `json:"simulated"`
	// FromCache reports that this plan was served from the plan cache.
	FromCache bool `json:"from_cache,omitempty"`
}

// PredictPhases evaluates the closed-form per-phase prediction for a
// resolved spec on a platform — the same decomposition the planner
// attaches to its ranked candidates, reachable for pinned (non-Auto)
// requests too so every resolved execution carries a model prediction
// for the drift tracker to audit. Call it on a padded spec. Cost: a
// handful of closed-form evaluations, microseconds.
func PredictPhases(spec engine.Spec, pf machine.Platform) map[string]float64 {
	return (&scorer{sh: spec.Shape(), m: pf.Model}).predictPhases(spec)
}

// minTileExtent returns the smallest per-rank tile extent of the three
// operands — min(M/S, K/S, K/T, N/T), floored at 1 — the ceiling any auto
// block size must respect so panels never exceed a skinny dimension.
func minTileExtent(sh matrix.Shape, g topo.Grid) int {
	min := sh.M / g.S
	for _, e := range []int{sh.K / g.S, sh.K / g.T, sh.N / g.T} {
		if e < min {
			min = e
		}
	}
	if min < 1 {
		min = 1
	}
	return min
}

// DefaultBlockSize is the shared "BlockSize: 0 means auto" rule used by
// both execution paths (hsumma.Multiply and hsumma.Simulate) and by the
// planner's b search as its fallback: the largest power-of-two block
// (≤64) not exceeding the smallest per-rank tile extent and — when the
// shape divides the grid — dividing the per-rank K extents exactly, so no
// padding is introduced. On shapes that do not divide the grid (where
// execution pads K to a multiple of b·lcm(S,T)) the block is additionally
// bounded so the padding it forces stays under ~12.5% of K — a large b
// would otherwise silently inflate the executed problem. It degrades to 1
// when the extents are odd.
func DefaultBlockSize(sh matrix.Shape, g topo.Grid) int {
	if sh.IsZero() || g.S <= 0 || g.T <= 0 {
		return 1
	}
	b := 64
	for b > 1 && b > minTileExtent(sh, g) {
		b /= 2
	}
	if sh.K%g.S == 0 && sh.K%g.T == 0 {
		for b > 1 && ((sh.K/g.S)%b != 0 || (sh.K/g.T)%b != 0) {
			b /= 2
		}
	} else {
		// Padding territory: K will execute as ceil(K / b·lcm(S,T)) units.
		// PaddedK is non-decreasing in b, so halve until the overhead a
		// block of this size forces is bounded.
		for b > 1 && engine.PaddedK(sh.K, b, g)-sh.K > sh.K/8 {
			b /= 2
		}
	}
	return b
}

// Candidates enumerates the feasible configuration space for a request —
// exactly the space Plan searches, exported so tests can sweep it
// exhaustively and compare against the planner's choice.
func Candidates(req Request) ([]Candidate, error) {
	req = req.withDefaults()
	if err := req.validate(); err != nil {
		return nil, err
	}
	sh := req.Shape
	squareOnlySkipped := false
	var out []Candidate
	for _, pt := range rankThreadPairs(req) {
		sub := req
		sub.P, sub.Threads = pt[0], pt[1]
		pair := pairCandidates(sub, sh, &squareOnlySkipped)
		if sub.Threads > 1 {
			for i := range pair {
				pair[i].Threads = sub.Threads
			}
		}
		out = append(out, pair...)
	}
	if len(out) == 0 {
		if squareOnlySkipped {
			return nil, fmt.Errorf("tune: no feasible candidate for shape %v p=%d: %w", sh, req.P, matrix.ErrSquareOnly)
		}
		if req.CoreBudget > 0 {
			return nil, fmt.Errorf("tune: no feasible candidate for shape %v under core budget %d", sh, req.CoreBudget)
		}
		return nil, fmt.Errorf("tune: no process grid of %d ranks fits shape %v", req.P, sh)
	}
	return out, nil
}

// pairCandidates enumerates the configuration space for one (ranks,
// threads) split — the per-grid algorithm/block/broadcast sweep.
func pairCandidates(req Request, sh matrix.Shape, squareOnlySkipped *bool) []Candidate {
	// With SUMMA itself a candidate, the hierarchies leave out the levels
	// that only repeat it (see hierarchies).
	proper := slices.Contains(req.Algorithms, engine.SUMMA)
	var out []Candidate
	for _, g := range candidateGrids(req) {
		bs := blockCandidates(sh, g, req.Quick)
		if req.BlockSize > 0 {
			// A pinned b is a user constraint: feasibility follows the
			// execution layer, not the auto-search skinny cap — when the
			// shape divides the grid the panels must divide exactly,
			// otherwise padding makes any pinned b runnable.
			if sh.K%g.S == 0 && sh.K%g.T == 0 &&
				((sh.K/g.S)%req.BlockSize != 0 || (sh.K/g.T)%req.BlockSize != 0) {
				continue
			}
			bs = []int{req.BlockSize}
		}
		for _, alg := range req.Algorithms {
			switch alg {
			case engine.SUMMA, engine.HSUMMA, engine.Multilevel:
				out = append(out, hierarchies(req, g, bs, alg, proper)...)
			case engine.Cannon, engine.Fox:
				// The square-only rule the execution layer applies (a
				// non-divisible n pads to the next multiple of q).
				if core.SquareOnly(sh, g) != nil {
					*squareOnlySkipped = true
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

// hierarchies is the planner's one generator of SUMMA-family candidates:
// SUMMA, HSUMMA and multilevel are the 0-, 1- and 2-level cases of one
// level list, so one loop proposes every group arrangement under every
// width chain the execution layer accepts (fits), once per broadcast.
// Each list lands on the Candidate fields its algorithm has always
// carried (Groups/GroupShape/OuterBlockSize for one level, Levels for
// two), so spec keys and plan JSON keep their shape. With proper set
// (SUMMA is requested too), no level has one group, which broadcasts
// nothing, and a list whose last level leaves one rank per group is
// dropped when that level's width is one of the grid's b: it runs the
// broadcasts of the list without that level, at that width as b (HSUMMA
// at G = p is SUMMA at b = B).
func hierarchies(req Request, g topo.Grid, bs []int, alg engine.Algorithm, proper bool) []Candidate {
	depth := map[engine.Algorithm]int{engine.HSUMMA: 1, engine.Multilevel: 2}[alg]
	var out []Candidate
	for _, groups := range arrangements(g, depth, req.Quick, proper) {
		for _, b := range bs {
			for _, widths := range widthChains(req, g, depth, b) {
				if last := depth - 1; proper && depth > 0 && slices.Contains(bs, widths[last]) &&
					groups[last].InnerS()*groups[last].InnerT() == 1 {
					continue
				}
				c := Candidate{Algorithm: alg, Grid: g, Knobs: core.Knobs{BlockSize: b}}
				if depth == 1 {
					h := groups[0]
					c.Groups, c.GroupShape, c.OuterBlockSize = h.I*h.J, [2]int{h.I, h.J}, widths[0]
				} else {
					for k, h := range groups {
						c.Levels = append(c.Levels, core.Level{I: h.I, J: h.J, BlockSize: widths[k]})
					}
				}
				if !fits(c, req.Shape) {
					continue
				}
				for _, bc := range req.Broadcasts {
					c.Broadcast = bc
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// arrangements lists the group arrangements of a depth-level hierarchy
// over grid g, outermost level first. Each level splits what the level
// above leaves of the grid, once per group count topo.ValidGroupCounts
// admits — in Quick mode only the powers of two and the sub-grid's size,
// the points the paper's figures sweep — as topo.FactorGroups arranges
// it. proper leaves out a level of one group.
func arrangements(g topo.Grid, depth int, quick, proper bool) [][]topo.Hier {
	if depth == 0 {
		return [][]topo.Hier{nil}
	}
	var out [][]topo.Hier
	for _, G := range topo.ValidGroupCounts(g) {
		if quick && G&(G-1) != 0 && G != g.Size() || proper && G == 1 {
			continue
		}
		h, _ := topo.FactorGroups(g, G) // every valid count factors
		for _, inner := range arrangements(topo.Grid{S: h.InnerS(), T: h.InnerT()}, depth-1, quick, proper) {
			out = append(out, append([]topo.Hier{h}, inner...))
		}
	}
	return out
}

// widthChains lists a depth-level hierarchy's panel widths over inner
// width b, outermost first: for one level B = b, the paper's setting, and
// in full mode 2b and 4b (§III), unless OuterBlockSize pins B; for two, 4b
// over 2b. A searched width stays within the smallest tile extent.
func widthChains(req Request, g topo.Grid, depth, b int) [][]int {
	if depth == 1 && req.OuterBlockSize > 0 {
		return [][]int{{req.OuterBlockSize}}
	}
	chains := [][][]int{{nil}, {{b}, {2 * b}, {4 * b}}, {{4 * b, 2 * b}}}[depth]
	if depth == 1 && req.Quick {
		chains = chains[:1]
	}
	limit := max(b, minTileExtent(req.Shape, g))
	return slices.DeleteFunc(chains, func(w []int) bool { return len(w) > 0 && w[0] > limit })
}

// fits is the generator's one feasibility check: engine.Spec.Validate —
// core.Options.Validate over the candidate's level list — on the shape it
// executes at, except that a K the grid divides is never padded, so there
// every width must divide the per-rank K extents.
func fits(c Candidate, sh matrix.Shape) bool {
	spec, err := c.Spec(sh)
	if err != nil {
		return false
	}
	if sh.K%c.Grid.S == 0 && sh.K%c.Grid.T == 0 {
		spec.Opts.Shape.K = sh.K
	}
	return spec.Validate() == nil
}

// gridDivides reports the SUMMA-family layout constraint: every operand's
// tiles are uniform on the grid (S | M, S | K, T | K, T | N).
func gridDivides(sh matrix.Shape, g topo.Grid) bool {
	return sh.M%g.S == 0 && sh.K%g.S == 0 && sh.K%g.T == 0 && sh.N%g.T == 0
}

// aspectDistance measures how far a grid's S:T ratio sits from the
// shape's M:N ratio on a log scale — zero for a perfectly
// orientation-matched grid (tall problems on tall grids).
func aspectDistance(sh matrix.Shape, g topo.Grid) float64 {
	return math.Abs(math.Log(float64(g.S)/float64(g.T)) - math.Log(float64(sh.M)/float64(sh.N)))
}

// candidateGrids lists the process grids the search considers: every S×T
// factorisation of P whose dimensions divide the shape (the algorithms'
// layout constraint; when nothing divides — prime-ish dimensions — every
// factorisation is kept and execution pads). For rectangular outputs
// (M ≠ N) both orientations of each factorisation are enumerated, so a
// tall problem can land on a tall grid. Grids are skew-filtered to 8:1
// around the output aspect ratio, keeping the squarest and the
// aspect-closest unconditionally. Quick mode keeps only the feasible grid
// whose orientation best matches the aspect ratio — the squarest one on
// square problems, matching the paper's fixed grids.
func candidateGrids(req Request) []topo.Grid {
	sh := req.Shape
	if req.Grid != nil {
		// A pinned grid is always accepted: padding makes it executable
		// even when it does not divide the shape.
		return []topo.Grid{*req.Grid}
	}
	collect := func(requireDivides bool) []topo.Grid {
		var all []topo.Grid
		for s := 1; s*s <= req.P; s++ {
			if req.P%s != 0 {
				continue
			}
			t := req.P / s
			g := topo.Grid{S: s, T: t}
			if !requireDivides || gridDivides(sh, g) {
				all = append(all, g)
			}
			// The transposed orientation only matters when the output is
			// rectangular; on M = N the cost is symmetric in (S, T).
			if s != t && sh.M != sh.N {
				gT := topo.Grid{S: t, T: s}
				if !requireDivides || gridDivides(sh, gT) {
					all = append(all, gT)
				}
			}
		}
		return all
	}
	all := collect(true)
	if len(all) == 0 {
		all = collect(false) // padding territory: prime-ish dimensions
	}
	if len(all) == 0 {
		return nil
	}
	// The squarest factorisation, and the orientation closest to the
	// output aspect ratio, are always kept.
	squarest, closest := all[0], all[0]
	for _, g := range all {
		if min(g.S, g.T) > min(squarest.S, squarest.T) {
			squarest = g
		}
		if aspectDistance(sh, g) < aspectDistance(sh, closest) {
			closest = g
		}
	}
	if req.Quick {
		return []topo.Grid{closest}
	}
	kept := all[:0]
	for _, g := range all {
		if g == squarest || g == closest || aspectDistance(sh, g) <= math.Log(8) {
			kept = append(kept, g)
		}
	}
	return kept
}

// blockCandidates lists the power-of-two block sizes keyed off the
// per-rank tile extents: never exceeding the smallest extent of any
// operand (so auto blocks never exceed a skinny dimension) and — when the
// shape divides the grid — dividing the per-rank K extents exactly.
// Within that, the paper's experimental range [16, 512] is preferred
// (smaller ones admitted only when nothing in range fits). Quick mode
// keeps at most three, spread across the range.
func blockCandidates(sh matrix.Shape, g topo.Grid, quick bool) []int {
	cap := minTileExtent(sh, g)
	exact := sh.K%g.S == 0 && sh.K%g.T == 0
	var bs []int
	for b := 1; b <= 512 && b <= cap; b *= 2 {
		if exact && ((sh.K/g.S)%b != 0 || (sh.K/g.T)%b != 0) {
			continue
		}
		bs = append(bs, b)
	}
	// b = 1 always passes both filters, so bs is never empty.
	// Prefer the paper's range; tiny blocks only as a last resort.
	inRange := bs[:0:0]
	for _, b := range bs {
		if b >= 16 {
			inRange = append(inRange, b)
		}
	}
	if len(inRange) > 0 {
		bs = inRange
	}
	if quick && len(bs) > 3 {
		bs = []int{bs[0], bs[len(bs)/2], bs[len(bs)-1]}
	}
	return bs
}

// rank sorts scored candidates by the request's objective, errors last.
func rank(scored []Scored, o Objective) {
	sort.SliceStable(scored, func(i, j int) bool {
		if (scored[i].Err == "") != (scored[j].Err == "") {
			return scored[i].Err == ""
		}
		return scored[i].objective(o) < scored[j].objective(o)
	})
}
