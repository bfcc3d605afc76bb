// Package engine is the unified algorithm dispatch shared by the two
// execution paths: the live goroutine runtime (hsumma.Multiply, through
// serve.Execute) and the virtual communicators (hsumma.Simulate, through
// Simulate in this package). Both paths build a Spec and call Run with
// their transport's comm.Comm, so adding an algorithm here makes it
// available in every execution mode at once — the "write once, run at
// every scale" property the repository is organised around.
package engine

import (
	"fmt"
	"strings"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/topo"
)

// Algorithm names a distributed multiplication algorithm.
type Algorithm string

// The five distributed algorithms.
const (
	SUMMA      Algorithm = "summa"
	HSUMMA     Algorithm = "hsumma"
	Multilevel Algorithm = "multilevel"
	Cannon     Algorithm = "cannon"
	Fox        Algorithm = "fox"
)

// Auto is the planner-resolved pseudo-algorithm: a Spec never reaches Run
// with it. Both execution paths (hsumma.Multiply and hsumma.Simulate)
// resolve Auto through the internal/tune planner — which picks the
// algorithm, grid shape, group hierarchy, block sizes and broadcast for
// the target platform — before dispatching here.
const Auto Algorithm = "auto"

// Algorithms lists every dispatchable algorithm, for sweeps and tests.
func Algorithms() []Algorithm {
	return []Algorithm{SUMMA, HSUMMA, Multilevel, Cannon, Fox}
}

// AlgorithmByName maps a user-facing name (case-insensitive) to an
// algorithm, including the planner's auto pseudo-algorithm. Every surface
// that parses algorithm names shares this table.
func AlgorithmByName(name string) (Algorithm, error) {
	switch a := Algorithm(strings.ToLower(name)); a {
	case SUMMA, HSUMMA, Multilevel, Cannon, Fox, Auto:
		return a, nil
	}
	return "", unknownAlgorithm(name)
}

// unknownAlgorithm is the one error every surface reports for a name
// outside the table, listing what it has.
func unknownAlgorithm(name string) error {
	return fmt.Errorf("engine: unknown algorithm %q (have summa, hsumma, multilevel, cannon, fox, auto)", name)
}

// Executor names a virtual execution engine for simulated runs. The live
// path (hsumma.Multiply) always runs goroutine ranks — real data needs a
// real runtime; the selector applies to virtual time only.
type Executor string

const (
	// ExecutorGoroutine is the SPMD goroutine engine (internal/simnet's
	// VWorld): one goroutine per rank, collectives rendezvous on sharded
	// condition variables. Handles every algorithm and every model knob.
	ExecutorGoroutine Executor = "goroutine"
	// ExecutorEvent is the discrete-event engine (internal/evsim): one
	// recorded program per stream class (Spec.StreamClasses), replayed by
	// every member in a single-threaded loop. Bit-identical to the
	// goroutine engine.
	ExecutorEvent Executor = "event"
	// ExecutorAuto picks per spec: the event engine for the algorithms whose
	// time is in the collective pivot loop (SUMMA, HSUMMA, multilevel) —
	// where recording once per class and replaying pays — and the
	// goroutine engine for the point-to-point-heavy baselines (Cannon,
	// Fox). The empty string means auto.
	ExecutorAuto Executor = "auto"
)

// ExecutorNames renders the valid executor names for error messages, so
// every surface (ResolveExecutor, hsumma.EngineByName) reports the same
// list and a future executor is added in one place.
func ExecutorNames() string {
	return strings.Join([]string{string(ExecutorGoroutine), string(ExecutorEvent), string(ExecutorAuto)}, ", ")
}

// ResolveExecutor applies the auto rule for a spec and validates explicit
// selections. Simulate, the one virtual execution path, routes through
// here.
func ResolveExecutor(e Executor, alg Algorithm) (Executor, error) {
	switch e {
	case ExecutorGoroutine, ExecutorEvent:
		return e, nil
	case ExecutorAuto, "":
		switch alg {
		case SUMMA, HSUMMA, Multilevel:
			return ExecutorEvent, nil
		}
		return ExecutorGoroutine, nil
	default:
		return "", fmt.Errorf("engine: unknown executor %q (valid: %s)", e, ExecutorNames())
	}
}

// Spec fully describes one distributed multiplication, independent of the
// transport it runs on.
type Spec struct {
	Algorithm Algorithm
	// Opts carries the Shape (with N as the square shorthand), Grid,
	// BlockSize, OuterBlockSize, Groups and Broadcast (see core.Options).
	Opts core.Options
	// Levels configures Multilevel (outermost first); the inner block is
	// Opts.BlockSize.
	Levels []core.Level
	// Predicted is the planner's closed-form per-phase prediction for this
	// execution in seconds, keyed by trace phase name (bcast/shift/p2p for
	// communication, gemm for compute). tune.ResolveSpec attaches it on
	// every resolution — pinned and Auto alike — so measured Stats can be
	// audited against what the model promised. Advisory observability
	// metadata only: it never enters Key(), never changes what Run
	// executes, and survives Padded()/WithRHS() untouched (a widened batch
	// keeps the original request's prediction).
	Predicted map[string]float64
}

// Shape returns the spec's resolved global GEMM shape: Opts.Shape, or the
// square shorthand Square(Opts.N) when Shape is unset.
func (s Spec) Shape() matrix.Shape {
	if !s.Opts.Shape.IsZero() {
		return s.Opts.Shape
	}
	return matrix.Square(s.Opts.N)
}

// Key returns the spec's canonical execution-shape key: a string under
// which two specs are equal only when they describe the same execution —
// algorithm, global shape, process grid, block sizes, group hierarchy and
// broadcast. Fields with a defaulted meaning are
// canonicalised (an empty Broadcast keys as binomial, OuterBlockSize 0 as
// b), so a request that spells the default out loud shares a key with one
// that leaves it blank. The serving layer (internal/serve) routes requests
// by it: two multiplications with the same key can share one resident
// session (its world, block maps and buffers), and the tune planner's
// memoised plan for the shape is reused through the same identity. Call it
// on a resolved spec (after Padded) so the shape the key carries is the
// execution shape.
func (s Spec) Key() string {
	sh := s.Shape()
	bcast := s.Opts.Broadcast
	if bcast == "" {
		bcast = sched.Binomial
	}
	// HSUMMA's outer block B is keyed only by HSUMMA itself — key only what
	// the execution reads.
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%dx%dx%d|g=%dx%d|b=%d",
		s.Algorithm, sh.M, sh.N, sh.K, s.Opts.Grid.S, s.Opts.Grid.T, s.Opts.BlockSize)
	if s.Algorithm == HSUMMA {
		lv := s.Opts.GroupLevels()[0]
		fmt.Fprintf(&b, "|B=%d|G=%dx%d", lv.BlockSize, lv.I, lv.J)
	}
	// seg=1 is constant: it is what is left of a retired pipelined
	// broadcast's depth, kept so every key (session routing, plan-cache
	// entries, /metrics labels) stays byte-identical.
	fmt.Fprintf(&b, "|bc=%s|seg=1", bcast)
	// The per-rank thread budget changes what the execution runs (and the
	// serving layer's core accounting), so it is part of the identity —
	// but only when hybrid; serial specs keep their historical keys.
	if s.Opts.Threads > 1 {
		fmt.Fprintf(&b, "|t=%d", s.Opts.Threads)
	}
	for _, lv := range s.Levels {
		fmt.Fprintf(&b, "|L%dx%d:%d", lv.I, lv.J, lv.BlockSize)
	}
	return b.String()
}

// Hierarchy returns the spec's hierarchy as the canonical level list the
// SUMMA family is written over — SUMMA has no levels, HSUMMA one (its
// groups exchanging B-wide panels), multilevel its Levels — and false for
// the algorithms outside the family. Padding, validation, the pivot loop
// and the closed-form cost all read this list and nothing else. (Pointer
// receiver: Run calls it on every rank's stack, where a copy of the spec
// is not free.)
func (s *Spec) Hierarchy() ([]core.Level, bool) {
	switch s.Algorithm {
	case SUMMA:
		return nil, true
	case HSUMMA:
		return s.Opts.GroupLevels(), true
	case Multilevel:
		return s.Levels, true
	}
	return nil, false
}

// StreamClasses returns the spec's stream classes for the event engine
// (see evsim.World.SetClasses): the pivot loop's rule for the SUMMA family,
// and nil — one class per rank — for every other algorithm.
func (s *Spec) StreamClasses() []int {
	if levels, ok := s.Hierarchy(); ok {
		return core.StreamClasses(&s.Opts, levels)
	}
	return nil
}

// Validate reports whether a spec is executable as it stands (call it on a
// padded spec): the SUMMA family through core.Options.Validate over its
// hierarchy, Cannon and Fox through the one square-only rule,
// core.Options.ValidateSquare. It is what lets a caller reject a spec
// before any world exists.
func (s Spec) Validate() error {
	if levels, ok := s.Hierarchy(); ok {
		return s.Opts.Validate(levels)
	}
	switch s.Algorithm {
	case Cannon, Fox:
		return s.Opts.ValidateSquare()
	}
	return unknownAlgorithm(string(s.Algorithm))
}

// PaddedShape returns the smallest execution shape ≥ the spec's shape that
// satisfies the algorithm's divisibility constraints on its grid and block
// sizes. Zero-padding preserves the product — the top-left M×N block of
// the padded C equals A·B — so both execution paths run the padded shape
// and the live path crops the gathered result. The square-only algorithms
// (Cannon, Fox) reject what core.SquareOnly rejects — which is also the
// serving layer's cannot-batch signal via WithRHS — and pad a
// square-but-non-divisible n to the next multiple of q.
func (s Spec) PaddedShape() (matrix.Shape, error) {
	sh := s.Shape()
	if err := sh.Validate(); err != nil {
		return matrix.Shape{}, err
	}
	g := s.Opts.Grid
	if g.S <= 0 || g.T <= 0 {
		return sh, nil // grid validation happens in the algorithm
	}
	if levels, ok := s.Hierarchy(); ok {
		// The K padding unit: panels of the widest level must live in one
		// grid row and one grid column, so K must be a multiple of
		// unit·lcm(S,T); M and N only need their own grid dimension.
		unit := s.Opts.BlockSize
		if len(levels) > 0 && levels[0].BlockSize > unit {
			unit = levels[0].BlockSize
		}
		if unit <= 0 {
			return sh, nil // block validation happens in the algorithm
		}
		return matrix.Shape{
			M: ceilMult(sh.M, g.S),
			N: ceilMult(sh.N, g.T),
			K: PaddedK(sh.K, unit, g),
		}, nil
	}
	switch s.Algorithm {
	case Cannon, Fox:
		if err := core.SquareOnly(sh, g); err != nil {
			return matrix.Shape{}, fmt.Errorf("engine: %s: %w", s.Algorithm, err)
		}
		return matrix.Square(ceilMult(sh.N, g.S)), nil
	}
	return sh, nil
}

// Padded returns the spec with its shape replaced by PaddedShape — the
// form both execution paths actually run. It is idempotent.
func (s Spec) Padded() (Spec, error) {
	sh, err := s.PaddedShape()
	if err != nil {
		return Spec{}, err
	}
	s.Opts.Shape = sh
	s.Opts.N = 0
	return s, nil
}

// WithRHS returns the spec re-padded for a right-hand side n columns wide:
// the global N is replaced (M and K kept) and the result padded back to the
// algorithm's divisibility constraints. The serving layer's multi-RHS
// batching runs k coalesced same-A requests as one multiply of N' = k·N_req
// through it — valid for the SUMMA family because no block constraint binds
// N, only N ≡ 0 (mod T). Square-only algorithms (Cannon, Fox) reject the
// now-rectangular shape, which is exactly the cannot-batch signal.
func (s Spec) WithRHS(n int) (Spec, error) {
	if n <= 0 {
		return Spec{}, fmt.Errorf("engine: WithRHS: invalid width %d", n)
	}
	sh := s.Shape()
	sh.N = n
	s.Opts.Shape = sh
	s.Opts.N = 0
	return s.Padded()
}

// PaddedK is the SUMMA family's K padding rule: pivot panels unit wide must
// live in one grid row and one grid column, so K executes rounded up to a
// multiple of unit·lcm(S,T). The planner's block-size default bounds the
// overhead this forces through the same function.
func PaddedK(k, unit int, g topo.Grid) int { return ceilMult(k, unit*lcm(g.S, g.T)) }

// ceilMult rounds v up to the next multiple of m.
func ceilMult(v, m int) int { return (v + m - 1) / m * m }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// Run executes the specified algorithm on this rank's communicator and
// tiles. It is called SPMD-style: every rank of the communicator calls Run
// with the same Spec and its own tiles.
func Run(c comm.Comm, s Spec, aLoc, bLoc, cLoc *matrix.Dense) error {
	if s.Opts.Shape.IsZero() {
		s.Opts.Shape = s.Shape()
	}
	if levels, ok := s.Hierarchy(); ok {
		return core.MultilevelHSUMMA(c, s.Opts, levels, s.Opts.BlockSize, aLoc, bLoc, cLoc)
	}
	switch s.Algorithm {
	case Cannon:
		return core.Cannon(c, s.Opts, aLoc, bLoc, cLoc)
	case Fox:
		return core.Fox(c, s.Opts, aLoc, bLoc, cLoc)
	case Auto:
		return fmt.Errorf("engine: algorithm %q must be resolved by the tune planner before Run", s.Algorithm)
	default:
		return unknownAlgorithm(string(s.Algorithm))
	}
}
