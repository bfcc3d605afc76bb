package evsim

import (
	"fmt"

	"repro/internal/blas"
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
	rsWaitEvent              // at the ring's tail: waiting for the producer
	rsWaitSlot               // waiting for its own Split to name a communicator
	rsWaitRecv               // blocked in SendRecv's receive half with no matching send yet
	rsWaitColl               // parked in a collective
	rsDone                   // program fully replayed
)

// rankState is the consumer's view of one rank: its cursor in its class's
// ring, its copy of its slot table, and the saved state of a blocking
// call in progress.
type rankState struct {
	ring   *ring
	pos    uint64 // next event of the class stream to replay
	comms  []*commState
	status uint8

	// Blocked receive half of a SendRecv.
	hasPending bool
	pendingEv  event

	// SendRecv state between its two halves: the caller's clock snapshot,
	// the send direction's completion time, and (for the shift span) the
	// send payload size.
	srT0        float64
	srSendEnd   float64
	srSendElems int32
}

// msgKey identifies a point-to-point match: communicator identity, the
// sender's comm rank, the tag, and the receiver's world rank.
type msgKey struct {
	cs  *commState
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
	remaining := len(w.ranks)
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
		if w.advance(int(r)) {
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
		if w.ranks[r].status == rsWaitSlot {
			w.ranks[r].status = rsQueued
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
	for i := range w.ranks {
		st := &w.ranks[i]
		switch st.status {
		case rsWaitEvent:
			st.status = rsQueued
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
		if w.ranks[r].status == rsWaitEvent {
			w.ranks[r].status = rsQueued
			w.runnable = append(w.runnable, r)
		}
	}
	rg.waiters = rg.waiters[:0]
}

// comm resolves a slot beyond the consumer's copy of rank r's slot table
// by refreshing the copy. nil means the rank has not obtained that
// communicator yet: the producer will ring the doorbell when it does.
func (w *World) comm(r int, slot int32) *commState {
	st := &w.ranks[r]
	pr := w.prods[r]
	pr.mu.Lock()
	st.comms = pr.comms
	if int(slot) >= len(st.comms) {
		pr.slotWait = true
		pr.mu.Unlock()
		return nil
	}
	pr.mu.Unlock()
	return st.comms[slot]
}

// advance resumes one rank's step function: it replays events from the
// rank's cursor until the rank blocks, reaches the ring's tail, or
// finishes. Returns true when the rank's program is fully replayed.
func (w *World) advance(r int) bool {
	st := &w.ranks[r]
	if st.hasPending {
		// A blocked receive was resumed: its message is now queued.
		if !w.trySRRecv(r, st.comms[st.pendingEv.slot], st.pendingEv) {
			st.status = rsWaitRecv
			return false
		}
		st.hasPending = false
	}
	ring := st.ring
	for {
		if w.aborted.Load() {
			return false
		}
		h := st.pos
		t := ring.tail.Load()
		if h == t {
			if ring.done.Load() {
				if ring.tail.Load() != h {
					continue // publish landed before the done flag
				}
				st.status = rsDone
				return true
			}
			st.status = rsWaitEvent
			ring.waiters = append(ring.waiters, int32(r))
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
			var cs *commState
			if ev.kind < evGemm {
				// Communication: the slot names one of this rank's own
				// communicators.
				if int(ev.slot) < len(st.comms) {
					cs = st.comms[ev.slot]
				} else if cs = w.comm(r, ev.slot); cs == nil {
					st.status = rsWaitSlot
					st.moveTo(h)
					return false
				}
			}
			switch ev.kind {
			case evBcast:
				if w.arrive(r, cs, ev) {
					st.status = rsWaitColl
					st.moveTo(h + 1)
					return false
				}
			case evGemm:
				// Inlined doGemm fast path: the local update is the
				// second most frequent event after collective arrivals.
				// The d field packs threads | strassenCutoff<<16; a zero
				// cutoff is the classic kernel, where the expression below
				// mirrors VComm.Gemm (and the historical replay) bit for
				// bit — Speedup(1) = 1 exactly — keeping engine parity.
				threads := int(ev.d & 0xffff)
				var flops float64
				if cut := int(ev.d >> 16); cut > 0 {
					flops = blas.StrassenFlops(int(ev.a), int(ev.b), int(ev.c), cut) / machine.Speedup(threads)
				} else {
					flops = 2 * float64(ev.a) * float64(ev.b) * float64(ev.c) / machine.Speedup(threads)
				}
				pre := w.sim.Clocks()[r]
				w.sim.ComputeRank(r, flops)
				if w.rec != nil {
					w.rec.RankThreads(r, trace.PhaseGemm, pre, w.sim.Clocks()[r]-pre, threads)
				}
			case evSRSend:
				w.doSRSend(r, cs, ev)
			case evSRRecv:
				if !w.trySRRecv(r, cs, *ev) {
					st.pendingEv, st.hasPending = *ev, true
					st.status = rsWaitRecv
					st.moveTo(h + 1)
					return false
				}
			}
		}
		st.moveTo(t)
	}
}

// moveTo advances the rank's cursor, handing back to the producer every
// chunk the class's slowest member has now passed.
func (st *rankState) moveTo(pos uint64) {
	old := st.pos
	st.pos = pos
	st.ring.pass(old, pos)
}

// doSRSend replays the send half of a SendRecv: both directions share the
// caller's clock snapshot, and the shift charges the communicator's full
// flow count exactly like the goroutine engine.
func (w *World) doSRSend(me int, cs *commState, ev *event) {
	st := &w.ranks[me]
	dstW := cs.ranks[ev.a]
	t0 := w.sim.Clocks()[me]
	st.srT0 = t0
	st.srSendEnd = t0 + w.sim.TransferTime(me, dstW, int(ev.c), len(cs.ranks))
	st.srSendElems = ev.c
	w.stats[me].SentMessages++
	w.stats[me].SentBytes += int64(machine.BytesPerElement * int(ev.c))
	w.deliver(msgKey{cs: cs, src: ev.d, tag: ev.b, dst: int32(dstW)}, vMsg{elems: ev.c, clock: t0})
}

// deliver queues a message and resumes a receiver already blocked on its
// key, if any.
func (w *World) deliver(k msgKey, m vMsg) {
	w.pending[k] = append(w.pending[k], m)
	if r, ok := w.waiting[k]; ok {
		delete(w.waiting, k)
		w.ranks[r].status = rsQueued
		w.runnable = append(w.runnable, r)
	}
}

// take pops the FIFO-next matching message, or registers the receiver as
// waiting.
func (w *World) take(me int, k msgKey) (vMsg, bool) {
	q := w.pending[k]
	if len(q) == 0 {
		w.waiting[k] = int32(me)
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
func (w *World) trySRRecv(me int, cs *commState, ev event) bool {
	st := &w.ranks[me]
	m, ok := w.take(me, msgKey{cs: cs, src: ev.a, tag: ev.b, dst: int32(me)})
	if !ok {
		return false
	}
	if m.elems != ev.c {
		w.abort(fmt.Errorf("evsim: sendrecv buffer %d elements but message has %d (src=%d tag=%d)",
			ev.c, m.elems, ev.a, ev.b))
		return true
	}
	recvEnd := st.srT0
	if m.clock > recvEnd {
		recvEnd = m.clock
	}
	recvEnd += w.sim.TransferTime(cs.ranks[ev.a], me, int(m.elems), len(cs.ranks))
	end := st.srSendEnd
	if recvEnd > end {
		end = recvEnd
	}
	w.sim.AdvanceComm(me, end)
	if w.rec != nil {
		w.rec.Rank(me, trace.PhaseShift, st.srT0, end-st.srT0,
			int64(machine.BytesPerElement*int(st.srSendElems+m.elems)), 2)
	}
	return true
}

// gather coordinates one collective: arrivals are counted, members past
// the first park, and the last arrival fires the schedule.
type gather struct {
	arrived int32
	sig     collSig
	parked  []int32
}

// collSig is what the members of a broadcast must agree on, and all that
// its schedule and traffic depend on besides the communicator.
type collSig struct {
	alg   uint8
	root  int32
	elems int32
}

// arrive records one collective arrival; when the last member arrives the
// collective executes and every parked member is requeued. Returns true
// when the caller must park.
func (w *World) arrive(me int, cs *commState, ev *event) bool {
	g := &cs.g
	sig := collSig{alg: ev.alg, root: ev.a, elems: ev.c}
	if !cs.gActive {
		cs.gActive = true
		cs.gSeq = ev.d
		g.sig = sig
	} else if cs.gSeq != ev.d || g.sig != sig {
		w.abort(fmt.Errorf("evsim: bcast mismatch on world rank %d: op %d (%s root=%d n=%d) vs live op %d (%s root=%d n=%d)",
			me, ev.d, algName(ev.alg), ev.a, ev.c, cs.gSeq, algName(g.sig.alg), g.sig.root, g.sig.elems))
		return false
	}
	g.arrived++
	if int(g.arrived) == len(cs.ranks) {
		cs.gActive = false
		g.arrived = 0
		w.execColl(cs, g.sig)
		for _, pr := range g.parked {
			w.ranks[pr].status = rsQueued
			w.runnable = append(w.runnable, pr)
		}
		g.parked = g.parked[:0]
		return false
	}
	g.parked = append(g.parked, int32(me))
	return true
}

// --- Collective execution. ---

// execColl fires a complete collective through the same Hockney cost code
// as the goroutine engine: Sim.ExecOne over the communicator's members.
func (w *World) execColl(cs *commState, sig collSig) {
	if cs.lastSched == nil || cs.last != sig {
		s, err := w.caches.Broadcast(algName(sig.alg), len(cs.ranks), int(sig.root))
		if err != nil {
			w.abort(fmt.Errorf("evsim: bcast: %v", err))
			return
		}
		cs.last, cs.lastSched, cs.lastTraffic = sig, s, w.caches.Traffic(s, int(sig.elems))
	}
	s, traffic := cs.lastSched, cs.lastTraffic
	elems := int(sig.elems)
	var pre []float64
	if w.rec != nil {
		clocks := w.sim.Clocks()
		pre = make([]float64, len(cs.ranks))
		for i, m := range cs.ranks {
			pre[i] = clocks[m]
		}
	}
	w.sim.ExecOne(simnet.Collective{Sched: s, Members: cs.ranks, PayloadBytes: float64(elems)})
	w.applyTraffic(traffic, cs.ranks)
	w.emitCollSpans(traffic, elems, cs.ranks, pre)
}

// applyTraffic adds the collective's cached per-role traffic deltas to
// the members — the same cache, and the same integer byte split, as the
// goroutine engine.
func (w *World) applyTraffic(traffic []simnet.VRankStats, members []int) {
	for i, d := range traffic {
		st := &w.stats[members[i]]
		st.SentMessages += d.SentMessages
		st.SentBytes += d.SentBytes
	}
}

// emitCollSpans records one broadcast span per member after a collective
// has advanced the clocks: from pre[i] to the member's final clock. No-op
// when tracing is off.
func (w *World) emitCollSpans(traffic []simnet.VRankStats, elems int, members []int, pre []float64) {
	if w.rec == nil {
		return
	}
	clocks := w.sim.Clocks()
	for i, d := range traffic {
		m := members[i]
		w.rec.Rank(m, trace.PhaseBcast, pre[i], clocks[m]-pre[i], int64(machine.BytesPerElement*elems), d.SentMessages)
	}
}
