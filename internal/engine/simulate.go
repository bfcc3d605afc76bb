package engine

import (
	"sync"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/evsim"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/simnet"
)

// The timing path that regenerates the paper's figures at BlueGene/P
// scale: Simulate executes a Spec through Run — the same implementations
// the live path runs — on a virtual communicator, where wire buffers carry
// only element counts and local updates advance a Hockney compute clock. A
// simulated run therefore performs, by construction rather than by
// mirroring, exactly the communication pattern of a live run, with
// identical per-rank message and byte counts (internal/simalg/parity_test.go).

// SimResult reports simulated times the way the paper does.
type SimResult struct {
	Total   float64 // execution time: communication + computation (s)
	Comm    float64 // max per-rank time inside communication (s)
	Compute float64 // per-rank computation time 2MNK/p·γ (s)
	// Engine is the virtual execution engine that produced the result
	// (what "auto" resolved to). Engines are bit-identical; this is
	// recorded so plans and reports can say which one did the work.
	Engine Executor
	// Shape is the execution shape actually simulated — the requested
	// shape rounded up to the algorithm's divisibility constraints (see
	// PaddedShape), identical to what a live run executes.
	Shape matrix.Shape
}

// EventWorld returns the event engine's world for a spec: one virtual rank
// per grid position, grouped into the spec's stream classes so each class
// records its program once. Simulate runs every event-engine simulation
// through it.
func EventWorld(spec Spec, vcfg simnet.VConfig) *evsim.World {
	w := evsim.NewWorld(spec.Opts.Grid.Size(), vcfg)
	w.SetClasses(spec.StreamClasses())
	return w
}

// virtualWorld is what the two execution engines have in common: run the
// rank programs, then report times and traffic.
type virtualWorld interface {
	Total() float64
	MaxCommTime() float64
	Stats() []simnet.VRankStats
}

// Simulate executes a spec — the same value the live path hands to Run —
// on the virtual communicator under the given virtual-world configuration
// (machine model, contention, link cost, tracing) and returns the
// simulated times plus the per-rank traffic counters, the quantities the
// live runtime reports through mpi.RunStats. ex selects the execution
// engine (goroutine | event | auto; empty means auto, see
// ResolveExecutor). The engines are bit-identical in every output —
// virtual times, per-rank communication-time breakdowns, traffic counters
// — which the engine parity tests in internal/simalg assert; they differ only
// in host wall time.
func Simulate(spec Spec, vcfg simnet.VConfig, ex Executor) (SimResult, []simnet.VRankStats, error) {
	resolved, err := ResolveExecutor(ex, spec.Algorithm)
	if err != nil {
		return SimResult{}, nil, err
	}
	// Pad to the algorithm's divisibility constraints (idempotent), the
	// same execution shape the live path runs — the parity invariant.
	spec, err = spec.Padded()
	if err != nil {
		return SimResult{}, nil, err
	}
	sh := spec.Opts.Shape
	g := spec.Opts.Grid
	bmA, err := dist.NewBlockMap(sh.M, sh.K, g)
	if err != nil {
		return SimResult{}, nil, err
	}
	bmB, err := dist.NewBlockMap(sh.K, sh.N, g)
	if err != nil {
		return SimResult{}, nil, err
	}
	bmC, err := dist.NewBlockMap(sh.M, sh.N, g)
	if err != nil {
		return SimResult{}, nil, err
	}
	var mu sync.Mutex
	var algErr error
	rank := func(c comm.Comm) {
		// Shape-only tiles, one per operand: the virtual transport never
		// touches element storage, so a 16384-rank simulation allocates
		// only headers.
		aLoc := c.NewTile(bmA.LocalRows(), bmA.LocalCols())
		bLoc := c.NewTile(bmB.LocalRows(), bmB.LocalCols())
		cLoc := c.NewTile(bmC.LocalRows(), bmC.LocalCols())
		if e := Run(c, spec, aLoc, bLoc, cLoc); e != nil {
			mu.Lock()
			if algErr == nil {
				algErr = e
			}
			mu.Unlock()
		}
	}
	var w virtualWorld
	switch resolved {
	case ExecutorEvent:
		ew := EventWorld(spec, vcfg)
		err = ew.Run(rank)
		w = ew
	default:
		gw := simnet.NewVWorld(g.Size(), vcfg)
		err = gw.Run(func(c *simnet.VComm) { rank(c) })
		w = gw
	}
	if err != nil {
		return SimResult{}, nil, err
	}
	if algErr != nil {
		return SimResult{}, nil, algErr
	}
	p := float64(g.Size())
	res := SimResult{
		Total: w.Total(),
		Comm:  w.MaxCommTime(),
		// Intra-rank threads shorten the local multiplies by the shared
		// efficiency curve; Speedup(1) is exactly 1, preserving serial
		// results bitwise.
		Compute: vcfg.Model.Compute(sh.Flops() / p / machine.Speedup(spec.Opts.Threads)),
		Engine:  resolved,
		Shape:   sh,
	}
	return res, w.Stats(), nil
}
