package evsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/sched"
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
// indices so the push fast path performs a single atomic publish. A
// follower holds fold — a batch of events waiting for the stream hash —
// exactly while it holds one of the world's tokens.
type producer struct {
	w     *World
	world int32
	ring  *ring
	chead uint64 // last observed ring head
	ctail uint64 // producer-owned tail (mirrored to ring.tail on publish)
	fold  *foldBuf
	next  *producer // link in a split's waiting followers or the token queue

	sum    [3]uint64       // running hash of the recorded stream (see hash)
	events int64           // events recorded
	ok     bool            // the program returned normally (read after Run's wait)
	splits []*splitGather  // the splits this rank joined; settle waits for them
	joined [4]*splitGather // backing for the first splits: no allocation

	// The slot table: comms[s] is the communicator this rank obtained
	// s-th, nil while the Split that yields it is incomplete. The producer
	// reserves a slot when it joins a Split and the Split's last arriver
	// fills it, both under mu; the consumer reads it under mu when it
	// meets a slot its class table lacks. slotWait is the consumer's
	// request for a doorbell on the next fill. mu also guards a waiting
	// follower's wake-up (see sleep).
	mu       sync.Mutex
	comms    []*commState
	slotWait bool
	inline   [8]*commState // backing for the first slots: no allocation
	wakeup   sync.Cond     // on mu
	woken    bool
}

// addComm appends a communicator to the rank's slot table and returns its
// slot.
func (p *producer) addComm(cs *commState) int32 {
	p.mu.Lock()
	p.comms = append(p.comms, cs)
	slot := int32(len(p.comms) - 1)
	p.mu.Unlock()
	return slot
}

// fill names the communicator in a reserved slot, ringing the doorbell if
// the consumer waits for it.
func (p *producer) fill(slot int32, cs *commState) {
	p.mu.Lock()
	p.comms[slot] = cs
	wake := p.slotWait
	p.slotWait = false
	p.mu.Unlock()
	if wake {
		p.w.wakeRank(p.world)
	}
}

// settle waits, at the normal end of the rank's program, for every Split
// it joined, used or not: a program that returns before the others reach
// a Split it took part in stalls there, as on an MPI runtime, instead of
// leaving the replay to find the mismatch later or never.
func (p *producer) settle() {
	for _, sg := range p.splits {
		p.awaitSplit(sg)
	}
	p.splits = nil
}

// finish publishes the remaining events (a follower folds its last batch
// and hands back its token), marks the class's program complete and rings
// the consumer so the replay can observe the exit (and, when this was the
// last producer, run its termination scan).
func (p *producer) finish() {
	p.yield()
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

// commState is one communicator: its id (the index of its gather state on
// the consumer side), the immutable member list shared by the producer
// and consumer sides, and the producer-side split rendezvous.
type commState struct {
	id    int32
	ranks []int // comm rank -> world rank (immutable after creation)

	// Producer side: the pending split rendezvous (the only producer call
	// that waits on other ranks), by the members' split sequence on this
	// communicator. A member joins a Split without waiting for it, so
	// several may be pending at once.
	splitMu sync.Mutex
	splits  map[int32]*splitGather
}

// newCommState registers a communicator under the next id, so abort can
// release its split waiters.
func (w *World) newCommState(ranks []int) *commState {
	cs := &commState{ranks: ranks}
	w.commMu.Lock()
	cs.id = int32(len(w.comms))
	w.comms = append(w.comms, cs)
	w.commMu.Unlock()
	return cs
}

// rComm is a recording communicator bound to one rank, implementing
// comm.Comm for the event engine. One returned by Split stays unresolved
// — cs nil, from set — until the rank first needs its rank, size or
// members (see resolve).
type rComm struct {
	p        *producer
	cs       *commState
	rank     int32
	slot     int32
	opSeq    int32
	splitSeq int32

	from *splitGather // the Split this communicator comes from, until resolved
	at   int32        // the caller's rank in that Split's parent
}

var _ comm.Comm = (*rComm)(nil)

// comm returns the communicator's state, waiting for the Split that
// created it to complete first if it has not been resolved yet.
func (c *rComm) comm() *commState {
	if c.cs == nil {
		c.resolve()
	}
	return c.cs
}

// resolve takes the caller's share of the Split this communicator comes
// from, waiting for the Split to complete.
func (c *rComm) resolve() {
	c.p.awaitSplit(c.from)
	m := c.from.result[c.at]
	c.cs, c.rank, c.from = m.cs, m.rank, nil
}

// Rank returns the caller's rank within the communicator.
func (c *rComm) Rank() int {
	c.comm()
	return int(c.rank)
}

// Size returns the number of ranks in the communicator.
func (c *rComm) Size() int { return len(c.comm().ranks) }

func (c *rComm) checkPeer(verb string, peer int) {
	n := len(c.comm().ranks)
	if peer < 0 || peer >= n {
		panic(fmt.Sprintf("evsim: %s rank %d outside communicator of %d", verb, peer, n))
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
	c.p.push(mkEvent(evSRSend, 0, c.slot, int32(dst), int32(sendTag), ck32("sendrecv send size", send.Elems()), c.rank))
	c.p.push(mkEvent(evSRRecv, 0, c.slot, int32(src), int32(recvTag), ck32("sendrecv recv size", recv.Elems()), 0))
}

// Bcast records one collective arrival. The replay gathers the members by
// the communicator's op sequence and fires the schedule when the last one
// arrives.
func (c *rComm) Bcast(alg sched.Algorithm, root int, panel *comm.Panel) {
	p := len(c.comm().ranks)
	if root < 0 || root >= p {
		panic(fmt.Sprintf("evsim: bcast root %d outside communicator of %d", root, p))
	}
	if p == 1 {
		return
	}
	n := panel.Elems()
	if uint(n) > math.MaxInt32 { // ck32's test, inlined: this is the hottest record
		ck32("bcast size", n)
	}
	seq := c.opSeq
	c.opSeq++
	c.p.push(mkEvent(evBcast, algCode(alg), c.slot, int32(root), 0, int32(n), seq))
}

// splitGather coordinates one Split call (see rComm.Split); abort closes
// done with ready still false.
type splitGather struct {
	parent       *commState
	colors, keys []int     // comm rank -> colour, key
	slots        []int32   // comm rank -> the slot it reserved for the child
	arrived      int       // under parent.splitMu
	waiting      int64     // members waiting for the split, counted as stalled (under parent.splitMu)
	followers    *producer // the waiting followers, linked through next (under parent.splitMu)
	ready        atomic.Bool
	result       []splitMember // comm rank -> its share; set before ready
	done         chan struct{}
}

// splitMember is one rank's share of a split: the child communicator and
// the rank's place in it (nil for a negative colour).
type splitMember struct {
	cs   *commState
	rank int32
}

// Split partitions the communicator exactly like MPI_Comm_split: ranks
// passing the same colour form a new communicator ordered by (key, old
// rank); a negative colour returns nil. It is the one producer-side
// rendezvous — the child's rank and size feed the algorithm's control
// flow — but joining it does not wait: the caller files its colour and
// key under the parent's splitMu, reserves the child's slot and goes on
// with a child that resolves when first used. The last member to join
// builds the groups outside the lock, names each member's child in its
// reserved slot and closes the split's done channel. A program that
// splits the world several times in a row (the pivot loop splits it four
// times) so parks at most once, on the first child it uses, and not once
// per Split; and a member that finds the split complete takes its child
// without a lock.
func (c *rComm) Split(color, key int) comm.Comm {
	p := c.p
	w := p.w
	cs := c.comm()
	seq := c.splitSeq
	c.splitSeq++
	slot := int32(-1)
	if color >= 0 {
		slot = p.addComm(nil)
	}
	cs.splitMu.Lock()
	sg := cs.splits[seq]
	if sg == nil && !w.aborted.Load() {
		// Allocate outside the lock: a world-wide gather is tens of KB.
		cs.splitMu.Unlock()
		n := len(cs.ranks)
		fresh := &splitGather{parent: cs, colors: make([]int, n), keys: make([]int, n), slots: make([]int32, n), done: make(chan struct{})}
		cs.splitMu.Lock()
		if sg = cs.splits[seq]; sg == nil && !w.aborted.Load() {
			if cs.splits == nil {
				cs.splits = make(map[int32]*splitGather)
			}
			sg = fresh
			cs.splits[seq] = sg
		}
	}
	if w.aborted.Load() {
		cs.splitMu.Unlock()
		panic(evAborted{})
	}
	sg.colors[c.rank], sg.keys[c.rank], sg.slots[c.rank] = color, key, slot
	sg.arrived++
	last := sg.arrived == len(cs.ranks)
	if last {
		delete(cs.splits, seq)
	}
	cs.splitMu.Unlock()
	if last {
		w.completeSplit(sg)
	}
	p.splits = append(p.splits, sg)
	if color < 0 {
		return nil
	}
	return &rComm{p: p, slot: slot, from: sg, at: c.rank}
}

// completeSplit builds a split's groups once every member has joined,
// publishes the result and releases the members waiting for it: the
// representatives through done, the followers into the token queue, so
// that they wake one at a time, each able to record, and the
// representatives and the replay are not queued behind two thousand of
// them. The waker uncounts the waiters, so the consumer never sees a
// stale stall. It runs without the parent's lock, so the members joining
// the parent's next Split meanwhile do not queue behind it; abort no
// longer sees the split, and a split completed after an abort is
// harmless.
func (w *World) completeSplit(sg *splitGather) {
	result := w.computeSplit(sg)
	cs := sg.parent
	cs.splitMu.Lock()
	sg.result = result
	sg.ready.Store(true)
	waiting, followers := sg.waiting, sg.followers
	cs.splitMu.Unlock()
	w.stalled.Add(-waiting)
	close(sg.done)
	w.tokens.enqueue(followers)
}

// awaitSplit returns once sg is complete. When it must wait, it first
// makes every recorded event visible to the replay and lets another
// follower record in this one's place, then parks, counted as stalled: a
// representative on done, a follower until the split is complete and a
// token is its own. It unwinds if the world aborted.
func (p *producer) awaitSplit(sg *splitGather) {
	if sg.ready.Load() {
		return
	}
	p.publish()
	p.yield()
	w := p.w
	cs := sg.parent
	cs.splitMu.Lock()
	if sg.ready.Load() {
		cs.splitMu.Unlock()
		return
	}
	if w.aborted.Load() {
		cs.splitMu.Unlock()
		panic(evAborted{})
	}
	sg.waiting++
	w.stall()
	if p.ring == nil {
		p.next, sg.followers = sg.followers, p
		cs.splitMu.Unlock()
		p.sleep()
		p.admitted()
		if !sg.ready.Load() {
			panic(evAborted{})
		}
		return
	}
	cs.splitMu.Unlock()
	if <-sg.done; !sg.ready.Load() {
		panic(evAborted{})
	}
}

// computeSplit builds the new communicators once all members have joined
// and names each member's child in the slot it reserved. The grouping
// rule lives in comm.SplitGroups, shared with the goroutine engine and the
// live transport, so every engine derives the same communicator structure
// for the same program.
func (w *World) computeSplit(sg *splitGather) []splitMember {
	parent := sg.parent.ranks
	result := make([]splitMember, len(sg.colors))
	for _, members := range comm.SplitGroups(sg.colors, sg.keys) {
		worldRanks := make([]int, len(members))
		for i, m := range members {
			worldRanks[i] = parent[m]
		}
		child := w.newCommState(worldRanks)
		for i, m := range members {
			result[m] = splitMember{cs: child, rank: int32(i)}
			w.prods[parent[m]].fill(sg.slots[m], child)
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
func (c *rComm) Pack(dst *comm.Panel, src *matrix.Dense, i, j int) { comm.CheckPack(dst, src, i, j) }

// Repack checks the window; no elements move.
func (c *rComm) Repack(dst, src *comm.Panel, off int) { comm.CheckRepack(dst, src, off) }

// Gemm validates shapes and records the local update's dimensions and
// thread budget. The replay advances the rank's compute state exactly as
// the goroutine engine's Gemm does, including the machine.Speedup(threads)
// division.
func (c *rComm) Gemm(cm *matrix.Dense, a, b *comm.Panel, threads int) {
	comm.CheckGemm(cm, a, b)
	m, n, k, t := a.Tile.Rows, b.Tile.Cols, a.Tile.Cols, max(threads, 0)
	if uint(m|n|k|t) > math.MaxInt32 { // one test for the four ck32s
		ck32("gemm rows", m)
		ck32("gemm cols", n)
		ck32("gemm inner dim", k)
		ck32("gemm threads", t)
	}
	c.p.push(mkEvent(evGemm, 0, 0, int32(m), int32(n), int32(k), int32(t)))
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
