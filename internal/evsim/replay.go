package evsim

import (
	"fmt"
	"slices"

	"repro/internal/machine"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// This file is the consumer half of the engine: a single-threaded event
// loop that owns every clock, traffic counter and compute timeline.
// Because exactly one goroutine touches them, the hot path needs no
// locks at all — the engine's concurrency is confined to the rings and
// the doorbell.

// Rank replay statuses.
const (
	rsQueued    uint8 = iota // in the runnable stack (or being advanced)
	rsRecvReady              // queued, and its blocked receive's message has arrived
	rsWaitEvent              // at the ring's tail: waiting for the producer
	rsWaitSlot               // waiting for its own Split to name a communicator
	rsWaitRecv               // blocked in SendRecv's receive half with no matching send yet
	rsWaitColl               // parked in a collective
	rsDone                   // program fully replayed
)

// srState is a rank's SendRecv between its two halves: the caller's clock
// snapshot, the send direction's completion time, (for the shift span)
// the send payload size, and a blocked receive half.
type srState struct {
	t0        float64
	sendEnd   float64
	sendElems int32
	id        int32 // the blocked receive's communicator
	ev        event // the blocked receive
}

// msgKey identifies a point-to-point match: communicator id, the sender's
// comm rank, the tag, and the receiver's world rank.
type msgKey struct {
	id  int32
	src int32
	tag int32
	dst int32
}

// vMsg is one in-flight virtual payload: no data, only its size and the
// sender's clock at the moment of the send.
type vMsg struct {
	elems int32
	clock float64
}

// wakeClass is the producer-side doorbell for a ring: it gained events
// (or its producer exited) while members waited at its tail.
func (w *World) wakeClass(c int32) {
	w.wakeMu.Lock()
	w.wakeClasses = append(w.wakeClasses, c)
	w.wakeMu.Unlock()
	w.wakeCond.Signal()
}

// wakeRank is the doorbell for one rank: its slot table gained the
// communicator the consumer waited for.
func (w *World) wakeRank(r int32) {
	w.wakeMu.Lock()
	w.wakeRanks = append(w.wakeRanks, r)
	w.wakeMu.Unlock()
	w.wakeCond.Signal()
}

// consume is the event loop: it drains runnable ranks, parking on the
// doorbell when every rank is blocked, until all programs are replayed or
// the world aborts.
func (w *World) consume() {
	remaining := len(w.status)
	// Every rank starts queued; the first advance either consumes early
	// events or files the rank as hungry.
	w.runnable = make([]int32, remaining)
	for i := range w.runnable {
		w.runnable[i] = int32(remaining - 1 - i)
	}
	for remaining > 0 {
		if w.aborted.Load() {
			return
		}
		n := len(w.runnable)
		if n == 0 {
			if !w.awaitWork() {
				return
			}
			continue
		}
		r := w.runnable[n-1]
		w.runnable = w.runnable[:n-1]
		if w.advance(r) {
			remaining--
		}
	}
}

// awaitWork blocks until a producer rings the doorbell, then requeues the
// woken ranks. Returns false when the world aborted or the replay cannot
// progress: every rank is blocked and every running program is parked —
// a cross-rank deadlock in the recorded programs, which only a mismatched
// SPMD program can produce, or class members that drifted further apart
// than a ring holds.
func (w *World) awaitWork() bool {
	w.wakeMu.Lock()
	for len(w.wakeClasses) == 0 && len(w.wakeRanks) == 0 && !w.aborted.Load() &&
		w.alive.Load() > 0 && w.stalled.Load() < w.alive.Load() {
		w.wakeCond.Wait()
	}
	classes, ranks := w.wakeClasses, w.wakeRanks
	w.wakeClasses, w.wakeRanks = nil, nil
	w.wakeMu.Unlock()
	if w.aborted.Load() {
		return false
	}
	for _, c := range classes {
		rg := w.rings[c]
		w.requeueWaiters(rg)
	}
	for _, r := range ranks {
		if w.status[r] == rsWaitSlot {
			w.status[r] = rsQueued
			w.runnable = append(w.runnable, r)
		}
	}
	if len(w.runnable) > 0 || len(classes) > 0 || len(ranks) > 0 {
		return true
	}
	alive := w.alive.Load()
	if alive > 0 {
		if w.stalled.Load() >= alive {
			w.abort(fmt.Errorf("evsim: replay stalled: every rank is blocked and all %d running rank programs are parked (a mismatched SPMD program, or stream class members further apart than a ring of %d events)", alive, ringSize))
			return false
		}
		return true
	}
	// All producers have exited and no doorbell is pending: requeue any
	// rank still waiting for events (its ring has work or is drained and
	// done); if none, the remaining ranks are blocked forever.
	blocked := 0
	for i, st := range w.status {
		switch st {
		case rsWaitEvent:
			w.status[i] = rsQueued
			w.runnable = append(w.runnable, int32(i))
		case rsWaitSlot, rsWaitRecv, rsWaitColl:
			blocked++
		}
	}
	if len(w.runnable) == 0 {
		if blocked > 0 {
			w.abort(fmt.Errorf("evsim: replay stalled with %d ranks blocked in communication after all programs finished recording (mismatched SPMD program)", blocked))
		}
		return false
	}
	return true
}

// requeueWaiters makes runnable every member parked at a ring's tail.
func (w *World) requeueWaiters(rg *ring) {
	for _, r := range rg.waiters {
		if w.status[r] == rsWaitEvent {
			w.status[r] = rsQueued
			w.runnable = append(w.runnable, r)
		}
	}
	rg.waiters = rg.waiters[:0]
}

// resolve refreshes rank r's column of its class's slot table from the
// producer's table and returns the id of the communicator in slot, or -1
// when the rank has not obtained it yet: the producer rings the doorbell
// when it does.
func (w *World) resolve(r, slot int32) int32 {
	rg := w.rings[w.ringOf[r]]
	stride, col := int(rg.members), int(w.col[r])
	pr := w.prods[r]
	id := int32(-1)
	pr.mu.Lock()
	if rows := len(rg.slots) / stride; rows < len(pr.comms) {
		rg.slots = slices.Grow(rg.slots, (len(pr.comms)-rows)*stride)
		for len(rg.slots) < len(pr.comms)*stride {
			rg.slots = append(rg.slots, -1)
		}
	}
	for s, cs := range pr.comms {
		if cs == nil {
			continue
		}
		rg.slots[s*stride+col] = cs.id
		w.track(cs)
		if s == int(slot) {
			id = cs.id
		}
	}
	if id < 0 {
		pr.slotWait = true
	}
	pr.mu.Unlock()
	return id
}

// track sizes the consumer's per-communicator arrays for cs and sets its
// entries up on first sight.
func (w *World) track(cs *commState) {
	if n := int(cs.id) + 1; n > len(w.gath) {
		w.commMu.Lock()
		all := len(w.comms) // every communicator so far: grow once for all
		w.commMu.Unlock()
		w.gath = append(w.gath, make([]gather, all-len(w.gath))...)
		w.members = append(w.members, make([][]int, all-len(w.members))...)
	}
	if g := &w.gath[cs.id]; g.size == 0 {
		g.size = int32(len(cs.ranks))
		w.members[cs.id] = cs.ranks
	}
}

// advance resumes one rank's step function: it replays events from the
// rank's cursor until the rank blocks, reaches the ring's tail, or
// finishes. Returns true when the rank's program is fully replayed.
func (w *World) advance(r int32) bool {
	if w.status[r] == rsRecvReady {
		// A blocked receive was resumed: its message is now queued.
		sr := &w.sr[r]
		if !w.trySRRecv(r, sr.id, &sr.ev) {
			w.status[r] = rsWaitRecv
			return false
		}
		w.status[r] = rsQueued
	}
	ring := w.rings[w.ringOf[r]]
	stride, col := int(ring.members), int(w.col[r])
	for {
		if w.aborted.Load() {
			return false
		}
		h := w.pos[r]
		t := ring.tail.Load()
		if h == t {
			if ring.done.Load() {
				if ring.tail.Load() != h {
					continue // publish landed before the done flag
				}
				w.status[r] = rsDone
				return true
			}
			w.status[r] = rsWaitEvent
			ring.waiters = append(ring.waiters, r)
			ring.hungry.Store(true)
			if ring.tail.Load() != h || ring.done.Load() {
				// The producer published (or exited) between our check and
				// the hungry store; reclaim the doorbell if it has not
				// been taken, else its wake is already queued.
				if ring.hungry.CompareAndSwap(true, false) {
					w.requeueWaiters(ring)
				}
			}
			return false
		}
		// Batch: replay the whole visible run, moving the cursor (and
		// possibly freeing chunks) once at the end or at the first
		// blocking event. Events are read in place — the producer cannot
		// overwrite a slot before every member has passed it.
		buf := ring.buf
		for ; h != t; h++ {
			ev := &buf[h&ringMask]
			if ev.kind() == evGemm {
				// The local update, the most frequent event after
				// collective arrivals. The expression mirrors VComm.Gemm's
				// blas.FlopsGemm / machine.Speedup bit for bit, keeping
				// engine parity.
				threads := int(ev.d())
				flops := 2 * float64(ev.a()) * float64(ev.b()) * float64(ev.c())
				if threads > 1 { // Speedup is exactly 1 below: x/1 == x
					flops /= machine.Speedup(threads)
				}
				pre := w.sim.Clocks()[r]
				w.sim.ComputeRank(int(r), flops)
				if w.rec != nil {
					w.rec.RankThreads(int(r), trace.PhaseGemm, pre, w.sim.Clocks()[r]-pre, threads)
				}
				continue
			}
			// Communication: the slot names one of this rank's own
			// communicators, looked up in its column of the class table.
			id := int32(-1)
			if i := int(ev.slot())*stride + col; i < len(ring.slots) {
				id = ring.slots[i]
			}
			if id < 0 {
				if id = w.resolve(r, ev.slot()); id < 0 {
					w.status[r] = rsWaitSlot
					w.moveTo(r, ring, h)
					return false
				}
			}
			switch ev.kind() {
			case evBcast:
				if w.arrive(r, id, ev) {
					w.status[r] = rsWaitColl
					w.moveTo(r, ring, h+1)
					return false
				}
			case evSRSend:
				w.doSRSend(r, id, ev)
			case evSRRecv:
				if !w.trySRRecv(r, id, ev) {
					sr := &w.sr[r]
					sr.id, sr.ev = id, *ev
					w.status[r] = rsWaitRecv
					w.moveTo(r, ring, h+1)
					return false
				}
			}
		}
		w.moveTo(r, ring, t)
	}
}

// moveTo advances rank r's cursor, handing back to the producer every
// chunk the class's slowest member has now passed.
func (w *World) moveTo(r int32, ring *ring, pos uint64) {
	old := w.pos[r]
	w.pos[r] = pos
	ring.pass(old, pos)
}

// doSRSend replays the send half of a SendRecv: both directions share the
// caller's clock snapshot, and the shift charges the communicator's full
// flow count exactly like the goroutine engine.
func (w *World) doSRSend(me, id int32, ev *event) {
	sr := &w.sr[me]
	ranks := w.members[id]
	dstW := ranks[ev.a()]
	t0 := w.sim.Clocks()[me]
	sr.t0 = t0
	sr.sendEnd = t0 + w.sim.TransferTime(int(me), dstW, int(ev.c()), len(ranks))
	sr.sendElems = ev.c()
	w.stats[me].SentMessages++
	w.stats[me].SentBytes += int64(machine.BytesPerElement * int(ev.c()))
	w.deliver(msgKey{id: id, src: ev.d(), tag: ev.b(), dst: int32(dstW)}, vMsg{elems: ev.c(), clock: t0})
}

// deliver queues a message and resumes a receiver already blocked on its
// key, if any.
func (w *World) deliver(k msgKey, m vMsg) {
	w.pending[k] = append(w.pending[k], m)
	if r, ok := w.waiting[k]; ok {
		delete(w.waiting, k)
		w.status[r] = rsRecvReady
		w.runnable = append(w.runnable, r)
	}
}

// take pops the FIFO-next matching message, or registers the receiver as
// waiting.
func (w *World) take(me int32, k msgKey) (vMsg, bool) {
	q := w.pending[k]
	if len(q) == 0 {
		w.waiting[k] = me
		return vMsg{}, false
	}
	m := q[0]
	if len(q) == 1 {
		delete(w.pending, k)
	} else {
		w.pending[k] = q[1:]
	}
	return m, true
}

// trySRRecv replays the receive half of a SendRecv: the call completes at
// the slower of the two directions, both measured from the snapshot the
// send half took.
func (w *World) trySRRecv(me, id int32, ev *event) bool {
	sr := &w.sr[me]
	m, ok := w.take(me, msgKey{id: id, src: ev.a(), tag: ev.b(), dst: me})
	if !ok {
		return false
	}
	if m.elems != ev.c() {
		w.abort(fmt.Errorf("evsim: sendrecv buffer %d elements but message has %d (src=%d tag=%d)",
			ev.c(), m.elems, ev.a(), ev.b()))
		return true
	}
	ranks := w.members[id]
	recvEnd := sr.t0
	if m.clock > recvEnd {
		recvEnd = m.clock
	}
	recvEnd += w.sim.TransferTime(ranks[ev.a()], int(me), int(m.elems), len(ranks))
	end := sr.sendEnd
	if recvEnd > end {
		end = recvEnd
	}
	w.sim.AdvanceComm(int(me), end)
	if w.rec != nil {
		w.rec.Rank(int(me), trace.PhaseShift, sr.t0, end-sr.t0,
			int64(machine.BytesPerElement*int(sr.sendElems+m.elems)), 2)
	}
	return true
}

// gather is one communicator's in-flight collective, the consumer state
// every arrival touches: arrivals are counted, members before the last
// park, and the last one fires the schedule and requeues the others. The
// replay holds at most one per communicator — a member reaches collective
// k+1 only after k has fired (its replay was parked on k), and the gather
// is retired at fire time before any member resumes — so it lives in an
// array indexed by communicator id: no map, no pointer, no allocation on
// the hot path.
type gather struct {
	arrived int32 // members arrived; 0: none in flight
	size    int32 // members; 0 until the consumer tracks the communicator
	alg     uint8
	// The first arrival's event words holding root, payload and op
	// sequence: what every member must agree on besides the algorithm.
	ab, cd uint64
}

// arrive records one collective arrival; when the last member arrives the
// collective executes and every parked member is requeued. Returns true
// when the caller must park.
func (w *World) arrive(me, id int32, ev *event) bool {
	g := &w.gath[id]
	if g.arrived == 0 {
		g.ab, g.cd, g.alg = ev.ab, ev.cd, ev.alg()
	} else if g.ab != ev.ab || g.cd != ev.cd || g.alg != ev.alg() {
		w.abort(fmt.Errorf("evsim: bcast mismatch on world rank %d: op %d (%s root=%d n=%d) vs live op %d (%s root=%d n=%d)",
			me, ev.d(), algName(ev.alg()), ev.a(), ev.c(), int32(g.cd>>32), algName(g.alg), int32(g.ab), int32(g.cd)))
		return false
	}
	if g.arrived++; g.arrived < g.size {
		return true
	}
	g.arrived = 0
	members := w.members[id]
	w.execColl(id, ev.alg(), ev.a(), ev.c())
	// Every member but the caller is parked here: requeue them.
	for _, m := range members {
		if q := int32(m); q != me {
			w.status[q] = rsQueued
			w.runnable = append(w.runnable, q)
		}
	}
	return false
}

// --- Collective execution. ---

// execColl fires a complete collective through the same Hockney cost code
// as the goroutine engine: Sim.ExecOne over the communicator's members,
// with the broadcast Sim.Compile keeps per (size, root, payload), and the
// program's traffic added to the members' counters.
func (w *World) execColl(id int32, alg uint8, root, elems int32) {
	members := w.members[id]
	pr, err := w.sim.Compile(algName(alg), len(members), int(root), int(elems))
	if err != nil {
		w.abort(fmt.Errorf("evsim: bcast: %v", err))
		return
	}
	for i, d := range pr.Traffic {
		st := &w.stats[members[i]]
		st.SentMessages += d.SentMessages
		st.SentBytes += d.SentBytes
	}
	if w.rec == nil {
		w.sim.ExecOne(pr, members)
		return
	}
	clocks := w.sim.Clocks()
	pre := w.pre[:0]
	for _, m := range members {
		pre = append(pre, clocks[m])
	}
	w.pre = pre
	w.sim.ExecOne(pr, members)
	w.emitCollSpans(pr.Traffic, int(elems), members, pre)
}

// emitCollSpans records one broadcast span per member after a collective
// has advanced the clocks: from pre[i] to the member's final clock.
func (w *World) emitCollSpans(traffic []simnet.VRankStats, elems int, members []int, pre []float64) {
	clocks := w.sim.Clocks()
	for i, d := range traffic {
		m := members[i]
		w.rec.Rank(m, trace.PhaseBcast, pre[i], clocks[m]-pre[i], int64(machine.BytesPerElement*elems), d.SentMessages)
	}
}
