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
//     Every Bcast and Gemm becomes one compact, pointer-free event, a
//     SendRecv two (its send and receive halves), and the call returns
//     immediately — legal because the virtual data plane is shape-only,
//     so no received value can influence the program's control flow. The
//     only inter-rank rendezvous left on the producer side is Split, whose
//     *result* (the child communicator's rank and size) does steer control
//     flow. A rank joins a Split without waiting and gets a child that
//     resolves when first used; the last member to join builds the groups
//     and names every member's child in its slot table. A world-wide Split
//     thus parks each rank at most once, however many follow in a row, and
//     a rank that finds its Split complete takes its child without a lock
//     (see rComm.Split).
//
//   - Consumer: a single-threaded event loop owns every virtual clock.
//     Each rank's program has become a resumable step function — its ring
//     cursor — which the loop advances until the rank blocks on a
//     dependency: a SendRecv whose partner's send has not been replayed
//     yet, or a collective some member has not reached. Collectives fire
//     when their last member's event arrives and execute the same
//     internal/sched schedule through Sim.ExecOne, the call the goroutine
//     engine's Bcast makes, compiled once per (size, root, payload) by
//     Sim.Compile; Gemm advances the same per-rank clock (the paper's
//     non-overlapped execution). Virtual times, per-rank
//     communication-time breakdowns, traffic counters and trace spans are
//     therefore bit-identical (asserted by the engine parity tests in
//     internal/simalg and the span test in the root package).
//
// The loop's state is laid out for the per-event path: each rank's cursor,
// status and class in parallel arrays, each class's slot table flat (one
// row per slot, one column per member), and each communicator's in-flight
// gather in an array indexed by communicator id, beside its members.
//
// # Stream classes
//
// Ranks whose programs agree up to communicator identity form a stream
// class (SetClasses; in the SUMMA family, the ranks at one position inside
// their group). Events name a communicator by slot — the order in which
// the rank obtained it — so one recording serves every member: the class's
// lowest rank writes the class ring, every member reads it through its own
// cursor and resolves slots through its own column of the class table,
// waiting, as on an empty ring, for a slot its own Split has not filled
// yet. The other members still run their programs (they take part in
// Split) but only hash the events they would have written, a batch at a
// time; Run fails if a hash differs from the representative's, so a wrong
// class rule is an error, never a wrong result. Without SetClasses every
// rank is its own class.
//
// Admission: followers never block on communication, so nothing but the
// Go scheduler keeps them from filling the run queue while the
// representatives — the only producers the consumer reads — wait behind
// them. A follower therefore records only while it holds one of the
// world's max(1, GOMAXPROCS−2) tokens, leaving one P to the consumer and
// one to the representatives. It takes a token before its first event and
// hands it back before it parks for a Split and when its program ends.
// Tokens go to waiting followers in arrival order, and a follower that
// waits for a Split joins that queue when the Split completes, so it wakes
// once, holding a token: completing a world-wide Split readies the
// representatives and one follower, not two thousand goroutines that the
// representatives and the consumer would queue behind.
//
// Back-pressure: the representative parks when its ring is full — a chunk
// is handed back only once the class's slowest member has passed it — and
// the consumer parks when every runnable rank is at the end of its ring;
// both parks are amortised over half a ring. Memory is bounded by ring
// capacity × classes. When nothing is runnable and every running program
// is parked, the replay cannot progress (a mismatched program, or class
// members further apart than a ring holds) and Run returns an error.
//
// Determinism: results are independent of goroutine interleaving and
// GOMAXPROCS by construction — each rank's trace is its own program order,
// disjoint collectives commute exactly (they touch disjoint clocks), and
// message matching is FIFO per (communicator, sender, tag).
package evsim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// World owns the virtual clocks, the per-class event rings and the replay
// state for one simulated execution. Create one per run with NewWorld.
type World struct {
	sim *simnet.Sim

	stats []simnet.VRankStats
	rec   *trace.Recorder // cfg.Trace; nil = tracing disabled

	class []int       // SetClasses; nil = one class per rank
	prods []*producer // per rank
	rings []*ring     // per class

	// Consumer-owned replay state (no locks: single-threaded). What the
	// loop touches per event is dense: each rank's hot fields in parallel
	// arrays, each communicator's gather in an array indexed by its id.
	pos      []uint64  // rank -> next event of its class stream
	status   []uint8   // rank -> replay status (rs*)
	ringOf   []int32   // rank -> its class ring
	col      []int32   // rank -> its column in the class's slot table
	sr       []srState // rank -> SendRecv state between the halves
	gath     []gather  // communicator id -> in-flight collective
	members  [][]int   // communicator id -> comm rank -> world rank
	pre      []float64 // trace scratch: the members' clocks before a collective
	runnable []int32
	pending  map[msgKey][]vMsg
	waiting  map[msgKey]int32

	// commMu guards the communicator registry, indexed by id (abort
	// releases split waiters).
	commMu sync.Mutex
	comms  []*commState

	// tokens admits followers (see Admission in the package doc).
	tokens admission

	// alive counts rank programs still running, stalled those of them
	// parked where only the consumer or another parked program could wake
	// them (a full ring, a split rendezvous). Each is decremented by the
	// party that resolves it, so the consumer, idle with stalled == alive,
	// knows the replay cannot progress. A follower waiting for a token is
	// not stalled: every holder is running, since it yields before the
	// only calls that park it.
	alive   atomic.Int64
	stalled atomic.Int64
	aborted atomic.Bool

	errMu    sync.Mutex
	firstErr error

	// wakeMu/wakeCond is the producers→consumer doorbell: classes whose
	// rings gained events while a member waited at the tail, ranks whose
	// slot tables gained the communicator the consumer waited for, plus
	// producer exits and stalls.
	wakeMu      sync.Mutex
	wakeCond    *sync.Cond
	wakeClasses []int32
	wakeRanks   []int32
}

// NewWorld returns an event-driven virtual world of p ranks under the
// given configuration (the same VConfig the goroutine engine takes). Every
// rank is its own stream class until SetClasses says otherwise.
func NewWorld(p int, cfg simnet.VConfig) *World {
	sim := simnet.New(p, cfg.Model)
	sim.SetContention(cfg.Contention)
	sim.SetLinkCost(cfg.LinkCost)
	w := &World{
		sim:     sim,
		stats:   make([]simnet.VRankStats, p),
		prods:   make([]*producer, p),
		pos:     make([]uint64, p),
		status:  make([]uint8, p),
		ringOf:  make([]int32, p),
		col:     make([]int32, p),
		sr:      make([]srState, p),
		pending: make(map[msgKey][]vMsg),
		waiting: make(map[msgKey]int32),
		rec:     cfg.Trace,
		tokens:  admission{free: max(1, runtime.GOMAXPROCS(0)-2)},
	}
	w.wakeCond = sync.NewCond(&w.wakeMu)
	for r := 0; r < p; r++ {
		pr := &producer{w: w, world: int32(r)}
		pr.comms, pr.splits = pr.inline[:0], pr.joined[:0]
		pr.wakeup.L = &pr.mu
		w.prods[r] = pr
	}
	return w
}

// SetClasses groups the ranks into stream classes before Run: class[r] in
// [0, p) names rank r's class. The members of a class must record the
// same program up to communicator identity — the same calls with the same
// arguments, communicators named by the order each rank obtained them.
// The lowest rank of each class records the events once and every member
// replays them through its own communicators; the other members run
// their programs without recording, and Run fails if any of them
// diverged from its representative. nil is one class per rank.
func (w *World) SetClasses(class []int) {
	if class != nil && len(class) != len(w.prods) {
		panic(fmt.Sprintf("evsim: %d stream classes for %d ranks", len(class), len(w.prods)))
	}
	for r, c := range class {
		if c < 0 || c >= len(class) {
			panic(fmt.Sprintf("evsim: rank %d stream class %d outside [0, %d)", r, c, len(class)))
		}
	}
	w.class = class
}

// buildClasses creates one ring per stream class, written by its
// representative (the class's lowest rank), and gives every member its
// ring and its column in the class's slot table.
func (w *World) buildClasses() {
	p := len(w.prods)
	class := w.class
	if class == nil {
		class = make([]int, p)
		for r := range class {
			class[r] = r
		}
	}
	ringOf := make([]*ring, p) // class id -> its ring
	w.rings = make([]*ring, 0, p)
	for r, c := range class {
		rg := ringOf[c]
		if rg == nil {
			rg = newRing(w, int32(len(w.rings)), int32(r))
			ringOf[c] = rg
			w.rings = append(w.rings, rg)
			w.prods[r].ring = rg
		}
		w.ringOf[r], w.col[r] = rg.class, rg.members
		rg.members++
	}
}

// evAborted is the sentinel panic unwinding producers blocked in a ring, a
// split rendezvous or a token wait when the world has already failed.
type evAborted struct{}

// Run executes fn on every rank — each in its own recording goroutine,
// passing each rank its world communicator — while the calling goroutine
// runs the event loop. It returns after the replay is complete (or the
// world aborted). A rank whose program diverged from its class
// representative's is reported first, as the root cause of whatever else
// went wrong; otherwise the first error wins.
func (w *World) Run(fn func(c comm.Comm)) error {
	p := w.sim.Size()
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	world := w.newCommState(ranks)
	w.buildClasses()
	w.alive.Store(int64(p))
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		pr := w.prods[r]
		rc := &rComm{p: pr, cs: world, rank: int32(r), slot: pr.addComm(world)}
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
			rc.p.settle()
			rc.p.ok = true
		}(rc)
	}
	w.consume()
	wg.Wait()
	for r, pr := range w.prods {
		rp := w.prods[w.rings[w.ringOf[r]].rep]
		if pr != rp && pr.ok && rp.ok && (pr.sum != rp.sum || pr.events != rp.events) {
			return fmt.Errorf("evsim: rank %d's program diverged from its class representative, rank %d (%d events, hash %x vs %d events, hash %x): the stream class rule is wrong",
				r, rp.world, pr.events, pr.sum, rp.events, rp.sum)
		}
	}
	w.errMu.Lock()
	err := w.firstErr
	w.errMu.Unlock()
	return err
}

// abort records the first error, marks the world failed and wakes every
// parked party: producers blocked on full rings or split rendezvous, and
// the consumer's doorbell. A pending split's waiters are released with no
// result — the representatives by closing its done channel, the followers
// by queueing them for a token — and those arriving later see aborted
// under the split lock. Followers waiting for a token need no wake: the
// holders hand their tokens on (see admit). Never holds the registry mutex
// across a communicator's split lock (mirrors the goroutine engine's
// discipline).
func (w *World) abort(err error) {
	w.errMu.Lock()
	if w.firstErr == nil && err != nil {
		w.firstErr = err
	}
	w.errMu.Unlock()
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	for _, r := range w.rings {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	w.commMu.Lock()
	comms := append([]*commState(nil), w.comms...)
	w.commMu.Unlock()
	for _, cs := range comms {
		cs.splitMu.Lock()
		splits := cs.splits
		cs.splits = nil
		cs.splitMu.Unlock()
		for _, sg := range splits {
			close(sg.done)
			w.tokens.enqueue(sg.followers) // each wakes with a token and unwinds
		}
	}
	w.wakeMu.Lock()
	w.wakeCond.Broadcast()
	w.wakeMu.Unlock()
}

// stall counts the calling producer as parked and, when that leaves no
// program running, rings the consumer so it can tell a stuck replay from
// a slow one.
func (w *World) stall() {
	if w.stalled.Add(1) >= w.alive.Load() {
		w.wakeMu.Lock()
		w.wakeCond.Broadcast()
		w.wakeMu.Unlock()
	}
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

// Total returns the simulated execution time: the last rank clock — the
// same definition as the goroutine engine's VWorld.Total.
func (w *World) Total() float64 { return w.sim.MaxClock() }

// MaxCommTime returns the largest per-rank time spent inside
// communication, the quantity the paper plots as "communication time".
func (w *World) MaxCommTime() float64 { return w.sim.MaxCommTime() }
