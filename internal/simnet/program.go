package simnet

import (
	"fmt"
	"sync"

	"repro/internal/machine"
	"repro/internal/sched"
)

// Program is one broadcast schedule compiled for one payload on one
// simulator: each transfer's schedule ranks, wire size and duration, each
// round's extent and contention factor, the ring suffix's closed-form
// length and the per-rank traffic. Compiling moves the Hockney arithmetic
// out of ExecOne, so a collective fires as one pass over its transfers.
// Durations come from the expression ExecOne used to evaluate per
// transfer — eff.PointToPoint(SegBytes) with β scaled by the round's
// contention (times the link factor, applied at fire time when a link
// model is installed) — so clocks are bit-identical.
type Program struct {
	Sched   *sched.Schedule
	Payload float64 // the PayloadBytes the durations are for
	// Traffic is the (messages, bytes) each schedule rank sends, from the
	// same integer sched.SegmentRange split the live runtime puts on the
	// wire, so both virtual engines count traffic identically to
	// internal/mpi. Set by Sim.Compile.
	Traffic []VRankStats

	xfers  []xfer
	rounds []round
	// disjoint says every compiled round touches each rank at most once,
	// so ExecOne may advance clocks in place instead of buffering a
	// round's updates (true of the binomial tree and the scatter).
	disjoint bool
	// ringHops is RingRounds·T for the ring suffix under uniform links
	// (see execRingTail).
	ringHops float64
	next     *Program // the same broadcast at another payload
}

// xfer is one compiled transfer: schedule ranks, wire size, and its time
// under uniform links.
type xfer struct {
	src, dst int32
	bytes    float64
	dur      float64
}

// round closes a run of compiled transfers: xfers[previous end:end].
type round struct {
	end    int32
	factor float64 // contention at the round's flow count
}

// compile builds the program of one schedule and payload under this
// simulator's model and contention. The ring suffix is not compiled
// transfer by transfer: under uniform links it is one closed form, and
// under a link model ExecOne walks the schedule's own rounds.
func (s *Sim) compile(sc *sched.Schedule, payload float64) *Program {
	pr := &Program{Sched: sc, Payload: payload, disjoint: true}
	prefix := sc.Rounds
	if sc.RingStart >= 0 {
		prefix = sc.Rounds[:sc.RingStart]
	}
	touched := make([]int32, sc.NumRanks) // 1 + the last round touching the rank
	for i, r := range prefix {
		factor := s.contention(len(r.Transfers))
		eff := s.model
		eff.Beta *= factor // × a uniform link factor of exactly 1
		for _, t := range r.Transfers {
			b := sc.SegBytes(t, payload)
			pr.xfers = append(pr.xfers, xfer{src: int32(t.Src), dst: int32(t.Dst), bytes: b, dur: eff.PointToPoint(b)})
			if touched[t.Src] == int32(i+1) || touched[t.Dst] == int32(i+1) {
				pr.disjoint = false
			}
			touched[t.Src], touched[t.Dst] = int32(i+1), int32(i+1)
		}
		pr.rounds = append(pr.rounds, round{end: int32(len(pr.xfers)), factor: factor})
	}
	if sc.RingStart >= 0 {
		eff := s.model
		eff.Beta *= s.contention(sc.NumRanks)
		pr.ringHops = float64(sc.RingRounds) * eff.PointToPoint(payload/float64(sc.Segments))
	}
	return pr
}

// programs is a simulator's table of compiled broadcasts, indexed densely
// by algorithm, communicator size and root — a pivot loop rotates the
// root every step — with one short chain of payloads per entry.
type programs struct {
	algs []sched.Algorithm // the table's algorithm axis, set by New
	mu   sync.RWMutex
	tab  [][][]*Program // [algorithm][size][root]
}

// Compile returns the program of alg's broadcast over p ranks rooted at
// root, for a payload of elems elements, building it on first use. Safe
// for concurrent use: the goroutine engine fires disjoint collectives
// from several goroutines at once.
func (s *Sim) Compile(alg sched.Algorithm, p, root, elems int) (*Program, error) {
	t := &s.progs
	a := -1
	for i, x := range t.algs {
		if x == alg {
			a = i
		}
	}
	payload := float64(elems)
	if a >= 0 && root >= 0 && root < p {
		t.mu.RLock()
		if rows := t.tab[a]; p < len(rows) && rows[p] != nil {
			for pr := rows[p][root]; pr != nil; pr = pr.next {
				if pr.Payload == payload {
					t.mu.RUnlock()
					return pr, nil
				}
			}
		}
		t.mu.RUnlock()
	}
	sc, err := sched.NewBroadcast(alg, p, root)
	if err != nil {
		return nil, err
	}
	pr := s.compile(sc, payload)
	pr.Traffic = make([]VRankStats, p)
	for _, r := range sc.Rounds {
		for _, x := range r.Transfers {
			lo, hi := sched.SegmentRange(elems, sc.Segments, x.SegLo, x.SegHi)
			pr.Traffic[x.Src].SentMessages++
			pr.Traffic[x.Src].SentBytes += int64(machine.BytesPerElement * (hi - lo))
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if p >= len(t.tab[a]) {
		t.tab[a] = append(t.tab[a], make([][]*Program, p+1-len(t.tab[a]))...)
	}
	if t.tab[a][p] == nil {
		t.tab[a][p] = make([]*Program, p)
	}
	for q := t.tab[a][p][root]; q != nil; q = q.next {
		if q.Payload == payload {
			return q, nil // a concurrent first build won
		}
	}
	pr.next = t.tab[a][p][root]
	t.tab[a][p][root] = pr
	return pr, nil
}

// reset drops every compiled program (their durations assume the old
// contention model).
func (t *programs) reset() {
	t.mu.Lock()
	t.tab = make([][][]*Program, len(t.algs))
	t.mu.Unlock()
}

// ExecOne advances the members' clocks through one collective's schedule,
// round by round; the contention model sees the round's own transfer
// count. Under uniform links the Van de Geijn ring suffix is advanced by
// the O(p) recurrence of execRingTail instead of transfer by transfer.
// members[i] is the simulator rank acting as schedule rank i. This is the
// one entry point both virtual engines fire a broadcast through, with the
// program from Compile.
func (s *Sim) ExecOne(pr *Program, members []int) {
	if len(members) != pr.Sched.NumRanks {
		panic(fmt.Sprintf("simnet: %d members for %d-rank schedule", len(members), pr.Sched.NumRanks))
	}
	if pr.disjoint && s.linkCost == nil {
		// In place, round after round: one pass over the transfers.
		s.execInPlace(members, pr.xfers)
	} else {
		lo := int32(0)
		for _, r := range pr.rounds {
			s.execRound(members, pr.xfers[lo:r.end], r.factor)
			lo = r.end
		}
	}
	sc := pr.Sched
	if sc.RingStart < 0 {
		return
	}
	if s.linkCost == nil {
		s.execRingTail(members, pr.ringHops)
		return
	}
	// The recurrence assumes uniform per-hop times, so a non-uniform link
	// model runs the ring transfer by transfer.
	ring := xferPool.Get().(*[]xfer)
	for _, r := range sc.Rounds[sc.RingStart:] {
		*ring = (*ring)[:0]
		for _, t := range r.Transfers {
			*ring = append(*ring, xfer{src: int32(t.Src), dst: int32(t.Dst), bytes: sc.SegBytes(t, pr.Payload)})
		}
		s.execRound(members, *ring, s.contention(len(r.Transfers)))
	}
	xferPool.Put(ring)
}

// execInPlace advances transfers of disjoint rounds under uniform links:
// each starts when both endpoints are past their previous work and
// occupies both until it completes. No rank appears twice in a round, so
// each transfer's clock updates land at once, with nothing buffered.
func (s *Sim) execInPlace(members []int, xs []xfer) {
	clocks, comm := s.clocks, s.comm
	for _, t := range xs {
		src, dst := members[t.src], members[t.dst]
		start := clocks[src]
		if clocks[dst] > start {
			start = clocks[dst]
		}
		end := start + t.dur
		if end > clocks[src] {
			comm[src] += end - clocks[src]
			clocks[src] = end
		}
		if end > clocks[dst] {
			comm[dst] += end - clocks[dst]
			clocks[dst] = end
		}
	}
}

// execRound advances one round of transfers that may share ranks, or run
// under a link model: every transfer reads the pre-round clocks and the
// updates land after the round (full duplex: a rank may send one message
// and receive another). Under a link model each transfer's time is
// scaled by its route.
func (s *Sim) execRound(members []int, xs []xfer, factor float64) {
	clocks, comm := s.clocks, s.comm
	updates := updatePool.Get().(*[]update)
	*updates = (*updates)[:0]
	for _, t := range xs {
		src, dst := members[t.src], members[t.dst]
		dur := t.dur
		if s.linkCost != nil {
			eff := s.model
			eff.Beta *= factor * s.linkCost(src, dst)
			dur = eff.PointToPoint(t.bytes)
		}
		start := clocks[src]
		if clocks[dst] > start {
			start = clocks[dst]
		}
		end := start + dur
		*updates = append(*updates, update{src, end}, update{dst, end})
	}
	for _, u := range *updates {
		if u.end > clocks[u.rank] {
			comm[u.rank] += u.end - clocks[u.rank]
			clocks[u.rank] = u.end
		}
	}
	updatePool.Put(updates)
}

// update is one endpoint clock advance of a buffered round. The scratch
// slices holding them, and the ring rounds run under a link model, are
// pooled: only those paths buffer, but each runs once per collective.
type update struct {
	rank int
	end  float64
}

var (
	updatePool = sync.Pool{New: func() any { s := make([]update, 0, 64); return &s }}
	xferPool   = sync.Pool{New: func() any { s := make([]xfer, 0, 64); return &s }}
)

// execRingTail advances a collective through its ring-allgather suffix in
// closed form. Derivation: with full-duplex rounds of uniform per-hop time
// T, a rank's clock obeys c_i(r) = max(c_{i−1}, c_i, c_{i+1})(r−1) + T (it
// finishes its receive from i−1 and its send to i+1), which unrolls to
// c_i(r) = max_{|k|≤r} c_{i+k}(0) + r·T. After RingRounds = p−1 rounds the
// window covers the whole ring, so every member ends at
// max(initial clocks) + (p−1)·T exactly; hops is (p−1)·T, computed at
// compile time. Every member moves at once, so the contention model sees
// p flows.
func (s *Sim) execRingTail(members []int, hops float64) {
	clocks, comm := s.clocks, s.comm
	maxClock := 0.0
	for _, m := range members {
		if clocks[m] > maxClock {
			maxClock = clocks[m]
		}
	}
	final := maxClock + hops
	for _, m := range members {
		comm[m] += final - clocks[m]
		clocks[m] = final
	}
}
