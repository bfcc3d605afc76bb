package mpi

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Bcast broadcasts root's data to every rank of the communicator in place,
// executing the given algorithm's schedule from internal/sched transfer by
// transfer — the same schedule the discrete-event simulator times. data must
// have identical length on all ranks; on non-roots its contents are
// overwritten.
//
// segments must be 1: it is what is left of the retired chain broadcast's
// pipeline depth, kept only so the benchmark harness's call still compiles
// until its next revision (ROADMAP item 1).
func (c *Comm) Bcast(alg sched.Algorithm, root int, data []float64, segments int) {
	if segments != 1 {
		panic(fmt.Sprintf("mpi: bcast segments %d (only 1 is supported)", segments))
	}
	c.bcast(alg, root, data, nil)
}

// bcast is the one broadcast implementation behind both forms of the
// call: the raw in-place form (data, with p nil) and the panel form (p,
// with data nil). Whole-payload schedules forward one shared payload by
// reference; segmented ones reassemble it in place on every member.
func (c *Comm) bcast(alg sched.Algorithm, root int, data []float64, p *comm.Panel) {
	size := c.Size()
	if root < 0 || root >= size {
		panic(fmt.Sprintf("mpi: bcast root %d outside communicator of %d", root, size))
	}
	if size == 1 {
		// Trivial communicator: no transfers, no span — the virtual
		// transports skip it the same way, keeping span streams aligned.
		return
	}
	elems := len(data)
	if p != nil {
		elems = p.Elems()
	}
	start := time.Now()
	st := &c.world.stats[c.WorldRank()]
	sentBefore := st.SentMessages
	s, err := c.world.scheds.Broadcast(alg, size, root)
	if err != nil {
		panic(fmt.Sprintf("mpi: bcast: %v", err))
	}
	tag := c.nextOpTag()
	isRoot := c.rank == root
	switch {
	case s.Segments > 1:
		if p != nil {
			if isRoot {
				published(p) // an empty root panel is a bug, not a blank payload
			}
			data = writable(p, isRoot)
		}
		c.bcastSegments(s, tag, data)
	case p != nil:
		// The root publishes the storage it holds; everyone else lets go
		// of last step's storage before blocking, so a root that comes
		// round again finds itself the sole holder and packs in place.
		var pl *payload
		if isRoot {
			pl = published(p)
		} else {
			drop(p)
		}
		if pl = c.bcastWhole(s, tag, pl, elems); !isRoot {
			adopt(p, pl)
		}
	default:
		var pl *payload
		if isRoot {
			pl = copyPayload(data)
		}
		if pl = c.bcastWhole(s, tag, pl, elems); !isRoot {
			copy(data, pl.data)
		}
		pl.release()
	}
	c.finishComm(start, trace.PhaseBcast, int64(8*elems), st.SentMessages-sentBefore)
}

// bcastWhole replays the transfers of a whole-payload schedule that
// involve this rank, in round order, forwarding one payload by reference:
// pl is the root's payload (nil elsewhere), and the payload this rank ends
// up holding is returned. Both endpoints walk the same schedule, so
// matching is structural.
func (c *Comm) bcastWhole(s *sched.Schedule, tag int, pl *payload, elems int) *payload {
	me := c.rank
	for _, round := range s.Rounds {
		for _, t := range round.Transfers {
			if t.Src == me {
				pl.retain()
				c.post(t.Dst, tag, pl)
			}
		}
		for _, t := range round.Transfers {
			if t.Dst == me {
				pl = c.fetch(t.Src, tag, elems)
			}
		}
	}
	return pl
}

// bcastSegments replays a segmented schedule in place on data, which this
// rank must hold exclusively; each transfer copies its segment through a
// pooled buffer. Sends go before receives within a round: sends are
// eager, so this cannot deadlock and it lets full-duplex rounds (ring
// allgather) proceed without stalling on the receive side. Per-sender
// FIFO delivery keeps repeated (src,dst) pairs (ring rounds) correctly
// ordered under a single tag.
func (c *Comm) bcastSegments(s *sched.Schedule, tag int, data []float64) {
	me := c.rank
	for _, round := range s.Rounds {
		for _, t := range round.Transfers {
			if t.Src == me {
				lo, hi := sched.SegmentRange(len(data), s.Segments, t.SegLo, t.SegHi)
				c.send(t.Dst, tag, data[lo:hi])
			}
		}
		for _, t := range round.Transfers {
			if t.Dst == me {
				lo, hi := sched.SegmentRange(len(data), s.Segments, t.SegLo, t.SegHi)
				c.recv(t.Src, tag, data[lo:hi])
			}
		}
	}
}

// Barrier blocks until every rank of the communicator has entered it.
// Implemented as a zero-byte binomial gather to rank 0 followed by a
// binomial broadcast of a zero-byte token.
func (c *Comm) Barrier() {
	start := time.Now()
	defer c.trackComm(start)
	p := c.Size()
	if p == 1 {
		return
	}
	tag := c.nextOpTag()
	empty := []float64{}
	// Arrival phase: binomial tree towards rank 0. A rank signals its
	// parent only after all its subtree has signalled it.
	vr := c.rank
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			c.send(vr-mask, tag, empty)
			break
		}
		if vr+mask < p {
			c.recv(vr+mask, tag, empty)
		}
		mask <<= 1
	}
	// Release phase: rank 0 broadcasts a token down the binomial tree.
	s, err := c.world.scheds.Broadcast(sched.Binomial, p, 0)
	if err != nil {
		panic(err)
	}
	var token *payload
	if c.rank == 0 {
		token = copyPayload([]float64{1})
	}
	c.bcastWhole(s, c.nextOpTag(), token, 1).release()
}
