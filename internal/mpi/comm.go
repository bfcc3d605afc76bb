package mpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/trace"
)

// Comm is a communicator: an ordered group of ranks with an isolated message
// namespace. The zero-cost world communicator is passed to every rank by
// Run; sub-communicators come from Split.
type Comm struct {
	world *World
	cid   int64
	rank  int   // my rank within this communicator
	ranks []int // comm rank -> world rank (shared, read-only)

	opSeq    int64 // collective sequence number (local; advances identically on all members)
	splitSeq int64 // split sequence number (ditto)
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank returns the caller's rank in the original world communicator.
func (c *Comm) WorldRank() int { return c.ranks[c.rank] }

// trackComm accumulates wall-clock time spent inside communication calls
// into the caller's stats slot — the runtime analogue of the paper's
// separately reported "communication time". Split and Barrier have no
// more specific phase: they count as p2p and emit no span, so span streams
// stay comparable across transports that lack those calls.
func (c *Comm) trackComm(start time.Time) {
	dt := time.Since(start).Seconds()
	st := &c.world.stats[c.WorldRank()]
	st.CommSeconds += dt
	st.CommByPhase[trace.PhaseP2P] += dt
}

// finishComm is trackComm with a phase classification and, when the world
// is tracing, a span on the caller's timeline.
func (c *Comm) finishComm(start time.Time, ph trace.Phase, bytes, msgs int64) {
	w := c.world
	dt := time.Since(start).Seconds()
	st := &w.stats[c.WorldRank()]
	st.CommSeconds += dt
	st.CommByPhase[ph] += dt
	if w.rec != nil {
		w.rec.Rank(c.WorldRank(), ph, start.Sub(w.epoch).Seconds(), dt, bytes, msgs)
	}
}

// send posts a copy of data: the untimed raw-slice send the collectives
// (Barrier, the segmented broadcast) are built from.
func (c *Comm) send(dst, tag int, data []float64) { c.post(dst, tag, copyPayload(data)) }

// post delivers pl to dst's mailbox. The message takes over one of the
// caller's references: retain first to keep holding the payload.
func (c *Comm) post(dst, tag int, pl *payload) {
	if dst < 0 || dst >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: send to rank %d outside communicator of %d", dst, len(c.ranks)))
	}
	if dst == c.rank {
		panic("mpi: self-send is not supported (use local copies)")
	}
	st := &c.world.stats[c.WorldRank()]
	st.SentMessages++
	st.SentBytes += int64(8 * len(pl.data))
	c.world.mailboxes[c.ranks[dst]].put(message{cid: c.cid, src: c.rank, tag: tag, pl: pl})
}

// recv blocks until a message from src (comm rank) with the given tag
// arrives and copies it into buf, whose length must equal the message
// length exactly — SUMMA-family code always knows its block sizes, so a
// size mismatch is a bug, not a runtime condition.
func (c *Comm) recv(src, tag int, buf []float64) {
	pl := c.fetch(src, tag, len(buf))
	copy(buf, pl.data)
	pl.release()
}

// fetch blocks for the matching message and returns its payload of
// exactly elems elements; the caller takes over the message's reference.
func (c *Comm) fetch(src, tag, elems int) *payload {
	if src < 0 || src >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: recv from rank %d outside communicator of %d", src, len(c.ranks)))
	}
	me := c.WorldRank()
	m := c.world.mailboxes[me].take(c.world, &c.world.stats[me], c.cid, src, tag)
	if len(m.pl.data) != elems {
		panic(fmt.Sprintf("mpi: recv buffer %d elements but message has %d (src=%d tag=%d)",
			elems, len(m.pl.data), src, tag))
	}
	return m.pl
}

// splitGather coordinates one Split call across the members of a
// communicator.
type splitGather struct {
	cond    *sync.Cond
	arrived int
	colors  []int // comm rank -> color
	keys    []int // comm rank -> key
	done    bool
	result  []*Comm // comm rank -> new communicator (nil for undefined color)
}

// Split partitions the communicator: ranks passing the same colour form a
// new communicator, ordered by (key, old rank) exactly like MPI_Comm_split.
// Every member must call Split (it is collective). A negative colour
// returns nil (MPI_UNDEFINED).
func (c *Comm) Split(color, key int) *Comm {
	start := time.Now()
	defer c.trackComm(start)
	w := c.world
	seq := c.splitSeq
	c.splitSeq++
	k := splitKey{cid: c.cid, seq: seq}

	w.mu.Lock()
	sg := w.splits[k]
	if sg == nil {
		sg = &splitGather{
			colors: make([]int, len(c.ranks)),
			keys:   make([]int, len(c.ranks)),
		}
		sg.cond = sync.NewCond(&w.mu)
		w.splits[k] = sg
	}
	sg.colors[c.rank] = color
	sg.keys[c.rank] = key
	sg.arrived++
	if sg.arrived == len(c.ranks) {
		sg.result = c.computeSplit(sg)
		sg.done = true
		sg.cond.Broadcast()
		delete(w.splits, k) // record no longer needed once computed; waiters hold the pointer
	}
	for !sg.done {
		if w.aborted.Load() {
			w.mu.Unlock()
			panic(worldAborted{})
		}
		sg.cond.Wait()
	}
	res := sg.result[c.rank]
	w.mu.Unlock()
	return res
}

// computeSplit builds the new communicators once all members have arrived.
// Called with the world mutex held by the last arriver. The grouping rule
// lives in comm.SplitGroups, shared by every transport.
func (c *Comm) computeSplit(sg *splitGather) []*Comm {
	result := make([]*Comm, len(sg.colors)) // undefined-colour ranks stay nil
	// Deterministic colour order keeps cid assignment reproducible.
	for _, members := range comm.SplitGroups(sg.colors, sg.keys) {
		cid := c.world.nextCID.Add(1)
		worldRanks := make([]int, len(members))
		for i, m := range members {
			worldRanks[i] = c.ranks[m]
		}
		for i, m := range members {
			result[m] = &Comm{world: c.world, cid: cid, rank: i, ranks: worldRanks}
		}
	}
	return result
}

// nextOpTag reserves a fresh negative tag namespace for one collective
// operation. All members call collectives in the same order (an MPI
// requirement this runtime shares), so their sequence numbers agree.
func (c *Comm) nextOpTag() int {
	c.opSeq++
	return int(-c.opSeq)
}
