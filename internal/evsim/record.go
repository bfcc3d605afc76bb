package evsim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// This file is the producer half of the engine: rComm implements
// comm.Comm by *recording* each call as one ring event instead of
// executing it. The recording side performs the same argument validation
// the goroutine engine's VComm does (peer ranges, self-sends, pack
// shapes, Gemm shapes), so programming errors fail identically on both
// engines; timing-side checks that need replay state (receive sizes,
// collective signature mismatches) move to the consumer.
//
// Every rank runs its program, but only a stream class's representative
// writes events to the class ring; a follower folds the events it would
// have written into a running hash, which Run compares with the
// representative's. Communicators travel as slots, and each rank's table
// maps its slots to its own communicators.

// producer is the per-rank recording context. ring is the class ring for
// the representative and nil for a follower; chead/ctail cache the ring
// indices so the push fast path performs a single atomic publish.
type producer struct {
	w     *World
	world int32
	ring  *ring
	chead uint64 // last observed ring head
	ctail uint64 // producer-owned tail (mirrored to ring.tail on publish)

	sum    [3]uint64 // running hash of the recorded stream (see note)
	events int64     // events recorded
	ok     bool      // the program returned normally (read after Run's wait)

	// The slot table: comms[s] is the communicator this rank obtained
	// s-th. The producer appends (under mu); the consumer copies the slice
	// header when it meets a slot beyond its copy. slotWait is the
	// consumer's request for a doorbell on the next append.
	mu       sync.Mutex
	comms    []*commState
	slotWait bool
	inline   [8]*commState // backing for the first slots: no allocation
}

// addComm appends a communicator to the rank's slot table and returns its
// slot, ringing the doorbell if the consumer waits for it.
func (p *producer) addComm(cs *commState) int32 {
	p.mu.Lock()
	p.comms = append(p.comms, cs)
	slot := int32(len(p.comms) - 1)
	wake := p.slotWait
	p.slotWait = false
	p.mu.Unlock()
	if wake {
		p.w.wakeRank(p.world)
	}
	return slot
}

// finish publishes the remaining events, marks the class's program
// complete and rings the consumer so the replay can observe the exit
// (and, when this was the last producer, run its termination scan).
func (p *producer) finish() {
	if r := p.ring; r != nil {
		p.publish()
		r.done.Store(true)
		if r.hungry.CompareAndSwap(true, false) {
			p.w.wakeClass(r.class)
		}
	}
	p.w.alive.Add(-1)
	p.w.wakeMu.Lock()
	p.w.wakeCond.Broadcast()
	p.w.wakeMu.Unlock()
}

// commState is one communicator: the immutable member list shared by the
// producer and consumer sides, the producer-side split rendezvous, and the
// consumer-owned collective gather.
//
// The replay holds at most ONE live gather per communicator at any time:
// a member reaches collective k+1 only after k has fired (its replay was
// parked on k), and the gather is retired at fire time before any member
// resumes. So the gather lives inline — no map, no allocation on the
// collective hot path.
type commState struct {
	ranks []int // comm rank -> world rank (immutable after creation)

	// Consumer side: the in-flight collective, valid when gActive, and the
	// last fired collective's signature with its schedule and traffic —
	// a pivot loop's communicator repeats one broadcast for many steps.
	g           gather
	gSeq        int32
	gActive     bool
	last        collSig
	lastSched   *sched.Schedule
	lastTraffic []simnet.VRankStats

	// Producer side: split rendezvous (the only blocking producer call).
	splitMu   sync.Mutex
	splitCond *sync.Cond
	splits    map[int32]*splitGather
}

// newCommState registers a communicator so abort can wake its split
// waiters.
func (w *World) newCommState(ranks []int) *commState {
	cs := &commState{
		ranks:  ranks,
		splits: make(map[int32]*splitGather),
	}
	cs.g.parked = make([]int32, 0, len(ranks)-1)
	cs.splitCond = sync.NewCond(&cs.splitMu)
	w.commMu.Lock()
	w.comms = append(w.comms, cs)
	w.commMu.Unlock()
	return cs
}

// rComm is a recording communicator bound to one rank, implementing
// comm.Comm for the event engine.
type rComm struct {
	p    *producer
	cs   *commState
	rank int32
	slot int32

	opSeq    int32
	splitSeq int32
}

var _ comm.Comm = (*rComm)(nil)

// Rank returns the caller's rank within the communicator.
func (c *rComm) Rank() int { return int(c.rank) }

// Size returns the number of ranks in the communicator.
func (c *rComm) Size() int { return len(c.cs.ranks) }

func (c *rComm) checkPeer(verb string, peer int) {
	if peer < 0 || peer >= len(c.cs.ranks) {
		panic(fmt.Sprintf("evsim: %s rank %d outside communicator of %d", verb, peer, len(c.cs.ranks)))
	}
	if peer == int(c.rank) {
		panic("evsim: self-send is not supported (use local copies)")
	}
}

// ck32 guards the int32 narrowing of recorded payload sizes and shapes:
// a silent wrap would produce wrong virtual times on the event engine
// only, breaking the bit-parity guarantee exactly where it could not be
// noticed. Panicking matches the engines' shared treatment of caller
// errors (the panic aborts the world and surfaces from Run).
func ck32(what string, v int) int32 {
	if v < 0 || int64(v) > math.MaxInt32 {
		panic(fmt.Sprintf("evsim: %s %d does not fit the recorded event field (max %d)", what, v, math.MaxInt32))
	}
	return int32(v)
}

// SendRecv records the full-duplex shift primitive as its two halves; the
// replay processes them back to back, completing at the slower of the two
// directions exactly like the goroutine engine.
func (c *rComm) SendRecv(dst, sendTag int, send *comm.Panel, src, recvTag int, recv *comm.Panel) {
	c.checkPeer("send to", dst)
	c.checkPeer("recv from", src)
	c.p.push(event{slot: c.slot, kind: evSRSend, a: int32(dst), b: int32(sendTag), c: ck32("sendrecv send size", send.Elems()), d: c.rank})
	c.p.push(event{slot: c.slot, kind: evSRRecv, a: int32(src), b: int32(recvTag), c: ck32("sendrecv recv size", recv.Elems())})
}

// Bcast records one collective arrival. The replay gathers the members by
// the communicator's op sequence and fires the schedule when the last one
// arrives.
func (c *rComm) Bcast(alg sched.Algorithm, root int, panel *comm.Panel) {
	p := len(c.cs.ranks)
	if root < 0 || root >= p {
		panic(fmt.Sprintf("evsim: bcast root %d outside communicator of %d", root, p))
	}
	if p == 1 {
		return
	}
	seq := c.opSeq
	c.opSeq++
	c.p.push(event{slot: c.slot, kind: evBcast, alg: algCode(alg),
		a: int32(root), c: ck32("bcast size", panel.Elems()), d: seq})
}

// splitGather coordinates one Split call, mirroring the goroutine engine.
type splitGather struct {
	arrived int
	waiting int64 // arrivals parked on the cond, counted as stalled
	colors  map[int]int
	keys    map[int]int
	done    bool
	result  map[int]splitMember
}

// splitMember is one rank's share of a split: the child communicator and
// the rank's place in it (nil for a negative colour).
type splitMember struct {
	cs   *commState
	rank int32
}

// Split partitions the communicator exactly like MPI_Comm_split: ranks
// passing the same colour form a new communicator ordered by (key, old
// rank); a negative colour returns nil. This is the one producer-side
// rendezvous: the child communicator's rank and size feed the algorithm's
// control flow, so recording cannot defer it — but splits are a handful
// per run, so the parks are negligible. The child takes the caller's next
// slot.
func (c *rComm) Split(color, key int) comm.Comm {
	w := c.p.w
	cs := c.cs
	seq := c.splitSeq
	c.splitSeq++

	// The rendezvous may park this producer indefinitely: make every
	// already-recorded event visible to the replay first.
	c.p.publish()

	cs.splitMu.Lock()
	sg := cs.splits[seq]
	if sg == nil {
		sg = &splitGather{colors: make(map[int]int, len(cs.ranks)), keys: make(map[int]int, len(cs.ranks))}
		cs.splits[seq] = sg
	}
	sg.colors[int(c.rank)] = color
	sg.keys[int(c.rank)] = key
	sg.arrived++
	if sg.arrived == len(cs.ranks) {
		sg.result = c.computeSplit(sg)
		sg.done = true
		// The waker uncounts the waiters, so the consumer never sees a
		// stale stall.
		w.stalled.Add(-sg.waiting)
		cs.splitCond.Broadcast()
		delete(cs.splits, seq)
	}
	for counted := false; !sg.done; {
		if w.aborted.Load() {
			cs.splitMu.Unlock()
			panic(evAborted{})
		}
		if !counted {
			counted = true
			sg.waiting++
			w.stall()
		}
		cs.splitCond.Wait()
	}
	m := sg.result[int(c.rank)]
	cs.splitMu.Unlock()
	if m.cs == nil {
		return nil
	}
	return &rComm{p: c.p, cs: m.cs, rank: m.rank, slot: c.p.addComm(m.cs)}
}

// computeSplit builds the new communicators once all members have
// arrived; called with the parent's split mutex held by the last arriver.
// The grouping rule lives in comm.SplitGroups, shared with the goroutine
// engine and the live transport, so every engine derives the same
// communicator structure for the same program.
func (c *rComm) computeSplit(sg *splitGather) map[int]splitMember {
	result := make(map[int]splitMember, len(sg.colors))
	for _, members := range comm.SplitGroups(sg.colors, sg.keys) {
		worldRanks := make([]int, len(members))
		for i, m := range members {
			worldRanks[i] = c.cs.ranks[m]
		}
		child := c.p.w.newCommState(worldRanks)
		for i, m := range members {
			result[m] = splitMember{cs: child, rank: int32(i)}
		}
	}
	return result
}

// --- Data plane: storage is elided, only shapes are recorded. ---

// NewPanel returns a shape-only panel (nil Data).
func (c *rComm) NewPanel(rows, cols int, role comm.Role) *comm.Panel {
	p := new(comm.Panel)
	*p = comm.Header(rows, cols, role)
	return p
}

// NewTile returns a shape-only matrix header (nil Data).
func (c *rComm) NewTile(rows, cols int) *matrix.Dense {
	return &matrix.Dense{Rows: rows, Cols: cols, Stride: cols}
}

// Pack checks shapes; no elements move.
func (c *rComm) Pack(dst *comm.Panel, src *matrix.Dense) { comm.CheckPack(dst, src) }

// Repack checks the window; no elements move.
func (c *rComm) Repack(dst, src *comm.Panel, off int) { comm.CheckRepack(dst, src, off) }

// Gemm validates shapes and records the local update's dimensions and
// thread budget. The replay advances the rank's compute state exactly as
// the goroutine engine's Gemm does, including the machine.Speedup(threads)
// division.
func (c *rComm) Gemm(cm *matrix.Dense, a, b *comm.Panel, threads int) {
	comm.CheckGemm(cm, a, b)
	c.p.push(event{kind: evGemm,
		a: ck32("gemm rows", a.Tile.Rows), b: ck32("gemm cols", b.Tile.Cols), c: ck32("gemm inner dim", a.Tile.Cols),
		d: ck32("gemm threads", max(threads, 0))})
}

// Broadcast algorithm codes: events carry a byte, not the schedule name.
const (
	algBinomial = iota
	algVanDeGeijn
)

func algCode(alg sched.Algorithm) uint8 {
	switch alg {
	case sched.Binomial:
		return algBinomial
	case sched.VanDeGeijn:
		return algVanDeGeijn
	default:
		// Same failure the goroutine engine produces when the schedule is
		// built, surfaced at record time.
		panic(fmt.Sprintf("evsim: bcast: unknown broadcast algorithm %q", alg))
	}
}

func algName(code uint8) sched.Algorithm {
	if code == algBinomial {
		return sched.Binomial
	}
	return sched.VanDeGeijn
}
