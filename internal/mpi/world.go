// Package mpi is an in-process message-passing runtime with MPI semantics:
// ranks execute as goroutines in SPMD style, exchange tagged messages
// matched on (communicator, source, tag) with per-sender FIFO ordering, and
// form sub-communicators by colour/key splits exactly like MPI_Comm_split.
//
// It is the substrate that replaces MPICH-2 / BlueGene MPI in this
// reproduction: the SUMMA-family algorithms in internal/core are written
// against *Comm just as the paper's Algorithm 1 is written against MPI, and
// collectives execute the schedules from internal/sched, so the runtime and
// the discrete-event simulator agree on every transfer.
//
// # Who owns a buffer
//
// The in-process network is a memcpy and is built to cost like one. Every
// message is a reference-counted payload from a size-classed pool, and a
// message moves by handing the receiver a reference, not by copying:
//
//   - The raw []float64 Bcast on *Comm, and the unexported send and recv
//     that Barrier and the segmented broadcast are built from, keep MPI's
//     buffer semantics: a send copies the caller's slice into a pooled
//     payload once, so the slice may be reused the moment the call
//     returns, and a receive copies the payload out into the caller's
//     slice and returns it to the pool. A whole-payload (binomial)
//     broadcast is one copy in at the root and one copy out per receiver
//     however deep the tree is — interior ranks forward the reference.
//
//   - The comm.Comm adapter (Transport) moves comm.Panels, and for them
//     even those two copies go away: publishing a panel (SendRecv, Bcast
//     on the root) shares its storage with the receivers, receiving adopts
//     the sender's storage as the panel's tile. Shared storage is
//     read-only for everyone holding it, the sender included; a holder
//     that wants to write (the next Pack into that panel) takes fresh
//     storage unless it is provably the only holder left. That is the
//     whole safety argument: nobody ever writes storage another rank can
//     see, so a slow receiver never observes the root's next step.
//
//   - The segmented schedule (Van de Geijn) reassembles the
//     payload in place, so every member brings exclusive storage and each
//     transfer copies its segment through a pooled buffer.
//
// A payload returns to the pool when its last holder lets go, and a
// program's panels let go when the program ends cleanly. After a panic
// nothing is returned: storage a dead rank may still reference is left to
// the garbage collector. The pool is process-wide, so this is what keeps an
// aborted program from poisoning the next one, whoever runs it.
//
// Sends are eager (buffered, never block); receives block until a matching
// message arrives. A panic on any rank aborts the whole world and is
// returned as an error from Run, so a bug cannot deadlock the test suite.
package mpi

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/sched"
	"repro/internal/trace"
)

// World owns the mailboxes and shared coordination state for p ranks.
type World struct {
	size      int
	mailboxes []*mailbox
	nextCID   atomic.Int64
	stats     []RankStats // indexed by world rank; each rank writes only its own entry
	// scheds memoises broadcast schedules for this world's collectives.
	scheds *sched.Cache
	// panels lists, per world rank, the panels that rank allocated; each
	// rank appends only to its own entry. A clean program end releases
	// their storage to the pool (see RunStatsTraced).
	panels [][]*comm.Panel

	// rec, when non-nil, collects per-rank phase spans; epoch is the
	// timeline zero. Both are set once before ranks start.
	rec   *trace.Recorder
	epoch time.Time

	mu       sync.Mutex
	splits   map[splitKey]*splitGather
	aborted  atomic.Bool
	abortMsg string
}

// RankStats counts the traffic one rank generated. Each rank updates only
// its own entry from its own goroutine, so no locking is needed; read the
// aggregate only after Run returns.
type RankStats struct {
	SentMessages int64
	SentBytes    int64 // payload bytes (8 per float64)
	CommSeconds  float64
	// WaitSeconds is the part of CommSeconds spent blocked on a message
	// that had not arrived yet (peer not there, or not scheduled yet);
	// CommSeconds − WaitSeconds is what the transfers themselves cost.
	WaitSeconds float64
	// CommByPhase splits CommSeconds by operation kind (bcast/shift/p2p
	// entries are populated; the host-side scatter/gather slots stay zero).
	CommByPhase [trace.NumPhases]float64
	// GemmSeconds is time inside local multiplies (Transport.Gemm).
	GemmSeconds float64
}

// Busy is the rank's total accounted time: communication plus compute.
func (r RankStats) Busy() float64 { return r.CommSeconds + r.GemmSeconds }

// Summary aggregates per-rank stats into the quantities Stats surfaces:
// totals, the critical (max-comm) rank's phase breakdown, the slowest
// local-compute time, and busy-time imbalance.
type Summary struct {
	Messages int64
	Bytes    int64
	MaxComm  float64
	// MaxWait is the largest per-rank WaitSeconds (≤ MaxComm).
	MaxWait float64
	// CommByPhase is the phase breakdown of the critical rank (the one
	// with MaxComm), so its entries sum to MaxComm.
	CommByPhase [trace.NumPhases]float64
	MaxGemm     float64
	// Imbalance is max/mean per-rank busy time; 1.0 means perfectly even.
	Imbalance float64
}

// Summarize reduces per-rank stats to a Summary.
func Summarize(ranks []RankStats) Summary {
	var s Summary
	var sumBusy, maxBusy float64
	for _, r := range ranks {
		s.Messages += r.SentMessages
		s.Bytes += r.SentBytes
		if r.CommSeconds > s.MaxComm {
			s.MaxComm = r.CommSeconds
			s.CommByPhase = r.CommByPhase
		}
		if r.WaitSeconds > s.MaxWait {
			s.MaxWait = r.WaitSeconds
		}
		if r.GemmSeconds > s.MaxGemm {
			s.MaxGemm = r.GemmSeconds
		}
		b := r.Busy()
		sumBusy += b
		if b > maxBusy {
			maxBusy = b
		}
	}
	if mean := sumBusy / float64(len(ranks)); mean > 0 {
		s.Imbalance = maxBusy / mean
	}
	return s
}

type splitKey struct {
	cid int64
	seq int64
}

// message is one in-flight payload. src is the sender's rank in the
// communicator identified by cid. The message owns one reference to pl,
// which passes to whoever takes it.
type message struct {
	cid int64
	src int
	tag int
	pl  *payload
}

// mailbox is an unbounded matched queue with condition-variable wakeups.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// take removes and returns the first message matching (cid, src, tag),
// blocking until one arrives or the world aborts. Time spent blocked is
// added to st.WaitSeconds (st is the taking rank's own stats slot).
func (mb *mailbox) take(w *World, st *RankStats, cid int64, src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var blocked time.Time
	for {
		for i, m := range mb.queue {
			if m.cid == cid && m.src == src && m.tag == tag {
				last := len(mb.queue) - 1
				copy(mb.queue[i:], mb.queue[i+1:])
				mb.queue[last] = message{} // drop the stale payload pointer
				mb.queue = mb.queue[:last]
				if !blocked.IsZero() {
					st.WaitSeconds += time.Since(blocked).Seconds()
				}
				return m
			}
		}
		if w.aborted.Load() {
			panic(worldAborted{})
		}
		if blocked.IsZero() {
			blocked = time.Now()
		}
		mb.cond.Wait()
	}
}

// worldAborted is the sentinel panic used to unwind ranks blocked in recv
// when another rank has already failed.
type worldAborted struct{}

// abort wakes every blocked rank; they unwind with worldAborted panics that
// Run suppresses in favour of the original failure.
func (w *World) abort(msg string) {
	if w.aborted.CompareAndSwap(false, true) {
		w.mu.Lock()
		w.abortMsg = msg
		// Wake split waiters too.
		for _, sg := range w.splits {
			sg.cond.Broadcast()
		}
		w.mu.Unlock()
		// Broadcast under each mailbox's lock: a receiver that has checked
		// the aborted flag but not yet parked in Wait would otherwise miss
		// the wakeup and sleep forever.
		for _, mb := range w.mailboxes {
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		}
	}
}

// Run executes fn on p ranks, each in its own goroutine, passing every rank
// its communicator for the full world. It returns after all ranks finish.
// If any rank panics, the world aborts and the first panic is returned as
// an error annotated with the failing rank.
func Run(p int, fn func(c *Comm)) error {
	_, err := RunStats(p, fn)
	return err
}

// RunStats is Run plus the per-rank traffic statistics.
func RunStats(p int, fn func(c *Comm)) ([]RankStats, error) {
	return RunStatsTraced(p, fn, nil)
}

// RunStatsTraced is RunStats with an optional span recorder attached to
// the world. rec may be nil (tracing disabled, zero extra cost); when
// non-nil, every rank's communication and Gemm calls append spans on the
// recorder's timeline, whose epoch becomes the world's time zero.
//
// Every call runs over a fresh world — mailboxes, split records,
// schedules, statistics — on p fresh goroutines, so programs are isolated
// from each other and concurrent calls are independent.
func RunStatsTraced(p int, fn func(c *Comm), rec *trace.Recorder) ([]RankStats, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mpi: invalid world size %d", p)
	}
	w := newWorld(p)
	if rec != nil {
		w.rec = rec
		w.epoch = rec.Epoch()
	}
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// A panic becomes the world-wide abort that unwinds every
			// other rank; their worldAborted unwinds are collateral, not
			// the root cause.
			defer func() {
				if v := recover(); v != nil {
					if _, ok := v.(worldAborted); ok {
						return
					}
					errOnce.Do(func() {
						firstErr = fmt.Errorf("mpi: rank %d panicked: %v\n%s", r, v, debug.Stack())
					})
					w.abort(fmt.Sprint(v))
				}
			}()
			fn(&Comm{world: w, cid: 0, rank: r, ranks: ranks})
		}(r)
	}
	wg.Wait()
	// A clean program hands its panels' storage back to the pool: every
	// rank has returned, so nothing reads them any more. After a failure
	// nothing is handed back — a rank that unwound mid-broadcast may have
	// left references anywhere — and the storage is left to the garbage
	// collector.
	if firstErr == nil {
		for _, owned := range w.panels {
			for _, p := range owned {
				drop(p)
			}
		}
	}
	return w.stats, firstErr
}

// newWorld builds the shared coordination state for one p-rank program.
func newWorld(p int) *World {
	w := &World{
		size:      p,
		mailboxes: make([]*mailbox, p),
		stats:     make([]RankStats, p),
		scheds:    sched.NewCache(),
		panels:    make([][]*comm.Panel, p),
		splits:    make(map[splitKey]*splitGather),
	}
	for i := range w.mailboxes {
		w.mailboxes[i] = newMailbox()
	}
	w.nextCID.Store(1) // cid 0 is the world communicator
	return w
}
