// Package evsim is the discrete-event virtual execution engine: it runs
// the unchanged algorithm layer (internal/core, through internal/engine)
// at full scale without paying one goroutine park/wake
// per communication call — the cost that dominates the goroutine engine
// (internal/simnet.VWorld) on full-scale runs, where a 16384-rank
// BlueGene/P simulation performs ~15M rendezvous.
//
// # Architecture
//
// Execution is split into producers and one consumer:
//
//   - Producers: one goroutine per rank runs the algorithm against a
//     recording communicator (rComm) that never blocks on communication.
//     Every Send/Recv/SendRecv/Bcast/Gemm appends one compact event to the
//     rank's single-producer/single-consumer ring and returns immediately —
//     legal because the virtual data plane is shape-only, so no received
//     value can influence the program's control flow. The only inter-rank
//     rendezvous left on the producer side is Split, whose *result* (the
//     child communicator's rank and size) does steer control flow; splits
//     are a handful per run, so their parks are noise.
//
//   - Consumer: a single-threaded event loop owns every virtual clock.
//     Each rank's program has become a resumable step function — its ring
//     cursor — which the loop advances until the rank blocks on a
//     dependency: a receive whose matching send has not been replayed yet,
//     or a collective some member has not reached. Collectives fire when
//     their last member's event arrives and execute the same internal/sched
//     schedule through the same Sim Hockney cost code as the goroutine
//     engine, so virtual times, per-rank communication-time breakdowns and
//     traffic counters are bit-identical (asserted by the engine parity
//     tests in internal/engine).
//
// Back-pressure: a producer that outruns the replay parks when its ring is
// full, and the consumer parks when every runnable rank's ring is empty;
// both parks are amortised over the ring capacity, turning ~15M per-call
// rendezvous into ~100k per-batch ones.
//
// # Rank-symmetry fast path
//
// On top of the loop, clock-equal collectives share executions: under
// uniform links (no LinkCost), symmetric ranks sit at *exactly* the same
// virtual time — e.g. all of one HSUMMA step's per-group broadcasts start
// from the same clock — so the engine memoises a collective's outcome by
// (schedule, payload, start clock) and replays it for every sibling:
// per-role final clocks are copied and the exact floating-point sequence
// of communication-time increments is re-applied in order, which is
// bit-identical to re-walking the schedule because ExecPhase is a
// deterministic function of those inputs. A SUMMA/HSUMMA step then costs
// O(S+T) schedule work instead of O(S·T). The memo stays valid with
// contention enabled (flow counts are per-collective) and is disabled
// under a LinkCost model (transfer times depend on world-rank placement).
//
// Determinism: results are independent of goroutine interleaving and
// GOMAXPROCS by construction — each rank's trace is its own program order,
// disjoint collectives commute exactly (they touch disjoint clocks), and
// message matching is FIFO per (communicator, sender, tag).
package evsim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// World owns the virtual clocks, the per-rank event rings and the replay
// state for one simulated execution. Create one per run with NewWorld.
type World struct {
	sim    *simnet.Sim
	cfg    simnet.VConfig
	caches *simnet.SchedCache

	stats       []simnet.VRankStats
	computeDone []float64       // overlap mode: per-rank compute timeline
	rec         *trace.Recorder // cfg.Trace; nil = tracing disabled

	prods []*producer
	ranks []rankState

	// Consumer-owned replay state (no locks: single-threaded).
	runnable []int32
	pending  map[msgKey][]vMsg
	waiting  map[msgKey]int32

	memoEnabled bool
	overlap     bool
	memo        map[memoKey]*memoEntry

	// commMu guards the communicator registry (abort wakes split waiters).
	commMu sync.Mutex
	comms  []*commState

	nextCID atomic.Int64
	alive   atomic.Int64
	aborted atomic.Bool

	errMu    sync.Mutex
	firstErr error

	// wakeMu/wakeCond is the producers→consumer doorbell: ranks whose
	// rings transitioned empty→non-empty while the consumer marked them
	// hungry, plus producer-exit notifications.
	wakeMu   sync.Mutex
	wakeCond *sync.Cond
	wakeList []int32
}

// NewWorld returns an event-driven virtual world of p ranks under the
// given configuration (the same VConfig the goroutine engine takes).
func NewWorld(p int, cfg simnet.VConfig) *World {
	sim := simnet.New(p, cfg.Model)
	sim.SetContention(cfg.Contention)
	sim.SetLinkCost(cfg.LinkCost)
	w := &World{
		sim:         sim,
		cfg:         cfg,
		caches:      simnet.NewSchedCache(),
		stats:       make([]simnet.VRankStats, p),
		prods:       make([]*producer, p),
		ranks:       make([]rankState, p),
		pending:     make(map[msgKey][]vMsg),
		waiting:     make(map[msgKey]int32),
		memoEnabled: cfg.LinkCost == nil,
		overlap:     cfg.Overlap,
		rec:         cfg.Trace,
		memo:        make(map[memoKey]*memoEntry),
	}
	if cfg.Overlap {
		w.computeDone = make([]float64, p)
	}
	w.wakeCond = sync.NewCond(&w.wakeMu)
	for r := 0; r < p; r++ {
		pr := &producer{w: w, world: int32(r), ring: newRing()}
		w.prods[r] = pr
		w.ranks[r].ring = pr.ring
	}
	return w
}

// evAborted is the sentinel panic unwinding producers blocked in a ring or
// split rendezvous when the world has already failed.
type evAborted struct{}

// Run executes fn on every rank — each in its own recording goroutine,
// passing each rank its world communicator — while the calling goroutine
// runs the event loop. It returns after the replay is complete (or the
// world aborted); the first error wins.
func (w *World) Run(fn func(c comm.Comm)) error {
	p := w.sim.Size()
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	world := w.newCommState(ranks)
	w.alive.Store(int64(p))
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		rc := &rComm{p: w.prods[r], cs: world, rank: int32(r)}
		wg.Add(1)
		go func(rc *rComm) {
			defer wg.Done()
			defer rc.p.finish()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(evAborted); ok {
						return // collateral unwind, not the root cause
					}
					w.abort(fmt.Errorf("evsim: virtual rank %d panicked: %v\n%s", rc.p.world, rec, debug.Stack()))
				}
			}()
			fn(rc)
		}(rc)
	}
	w.consume()
	wg.Wait()
	w.errMu.Lock()
	err := w.firstErr
	w.errMu.Unlock()
	return err
}

// abort records the first error, marks the world failed and wakes every
// parked party: producers blocked on full rings or split rendezvous, and
// the consumer's doorbell. Never holds the registry mutex across a
// communicator's split lock (mirrors the goroutine engine's discipline).
func (w *World) abort(err error) {
	w.errMu.Lock()
	if w.firstErr == nil && err != nil {
		w.firstErr = err
	}
	w.errMu.Unlock()
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	for _, pr := range w.prods {
		r := pr.ring
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	w.commMu.Lock()
	comms := append([]*commState(nil), w.comms...)
	w.commMu.Unlock()
	for _, cs := range comms {
		cs.splitMu.Lock()
		cs.splitCond.Broadcast()
		cs.splitMu.Unlock()
	}
	w.wakeMu.Lock()
	w.wakeCond.Broadcast()
	w.wakeMu.Unlock()
}

// Sim exposes the underlying simulator (clocks, per-rank comm times).
func (w *World) Sim() *simnet.Sim { return w.sim }

// Stats returns a copy of the per-rank traffic counters. Read it only
// after Run returns.
func (w *World) Stats() []simnet.VRankStats {
	out := make([]simnet.VRankStats, len(w.stats))
	copy(out, w.stats)
	return out
}

// Total returns the simulated execution time: the last communication
// clock, or in overlap mode the later of the communication and compute
// timelines — the same definition as the goroutine engine's VWorld.Total.
func (w *World) Total() float64 {
	total := w.sim.MaxClock()
	for _, cd := range w.computeDone {
		if cd > total {
			total = cd
		}
	}
	return total
}

// MaxCommTime returns the largest per-rank time spent inside
// communication, the quantity the paper plots as "communication time".
func (w *World) MaxCommTime() float64 { return w.sim.MaxCommTime() }
