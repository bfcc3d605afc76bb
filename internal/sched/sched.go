// Package sched generates collective-communication schedules: explicit,
// data-dependency-respecting lists of point-to-point transfers that realise a
// broadcast over p ranks. A schedule is pure data, produced once per
// (algorithm, p, root) and then executed by two independent engines:
//
//   - internal/mpi replays it on real channels, moving real matrix blocks
//     (the correctness path);
//   - internal/simnet replays it on per-rank virtual clocks under the
//     Hockney model (the timing path for the paper's large-scale figures).
//
// Because both engines execute the *same* transfers, the simulated times the
// experiments report (`hsumma-bench -exp <id>`) measure exactly the
// communication pattern the runnable code performs — the property the
// paper's Section IV analysis relies on.
//
// The algorithms provided are the two the paper's cost analysis covers: the
// binomial tree (Table I) and Van de Geijn scatter-allgather (Table II).
// Binomial forwards the whole payload; Van de Geijn cuts it into p segments
// that every member reassembles in place (SegmentRange).
package sched

import (
	"fmt"

	"repro/internal/machine"
)

// Transfer is one point-to-point message: Src sends segments [SegLo,SegHi)
// of the broadcast payload to Dst. Ranks are communicator-local.
type Transfer struct {
	Src, Dst     int
	SegLo, SegHi int
}

// Round groups transfers that may proceed concurrently. Within a round each
// rank appears at most once as a sender and at most once as a receiver
// (one-port, full-duplex model — the standard assumption behind the
// log₂(p)-style costs in the paper's Table I/II).
type Round struct {
	Transfers []Transfer
}

// Schedule is an ordered sequence of rounds realising one collective over
// NumRanks ranks rooted at Root, with the payload cut into Segments equal
// parts (1 for binomial, NumRanks for Van de Geijn).
type Schedule struct {
	Algorithm Algorithm
	NumRanks  int
	Root      int
	Segments  int
	Rounds    []Round

	// RingStart/RingRounds describe a ring-allgather suffix: starting at
	// round index RingStart, RingRounds consecutive rounds each carry
	// exactly one single-segment transfer from every rank to its ring
	// successor. The Van de Geijn generator sets them (RingStart < 0
	// otherwise); the simulator uses them to advance clocks through the
	// O(p²) ring with an exact O(p) recurrence (see simnet), which is
	// property-tested equivalent to transfer-by-transfer execution.
	RingStart  int
	RingRounds int
}

// Algorithm names a broadcast algorithm.
type Algorithm string

// Broadcast algorithm identifiers.
const (
	// Binomial is the binomial tree: log₂(p) rounds, every informed rank
	// forwards. Cost ⌈log₂ p⌉(α+mβ) — the first row of the paper's
	// Table I.
	Binomial Algorithm = "binomial"
	// VanDeGeijn is the scatter-allgather broadcast (Barnett et al.,
	// InterCom): binomial scatter of p segments followed by a ring
	// allgather. Cost (log₂ p + p − 1)α + 2((p−1)/p)mβ — the second row
	// of the paper's Table II.
	VanDeGeijn Algorithm = "vandegeijn"
)

// Algorithms lists every broadcast generator, for sweeps and tests.
func Algorithms() []Algorithm {
	return []Algorithm{Binomial, VanDeGeijn}
}

// ByName maps a user-facing name (plus the historical aliases) to a
// broadcast algorithm; the empty string defaults to binomial. Every
// surface that parses broadcast names — the façade's BroadcastByName, the
// CLI, the serving daemon, hsumma-model — routes here, so an alias is
// added in one place.
func ByName(name string) (Algorithm, error) {
	switch name {
	case "", string(Binomial):
		return Binomial, nil
	case string(VanDeGeijn), "vdg", "scatter-allgather":
		return VanDeGeijn, nil
	}
	return "", fmt.Errorf("sched: unknown broadcast algorithm %q (have binomial, vandegeijn)", name)
}

// NewBroadcast builds the schedule for the given algorithm over p ranks
// rooted at root.
func NewBroadcast(alg Algorithm, p, root int) (*Schedule, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: invalid rank count %d", p)
	}
	if root < 0 || root >= p {
		return nil, fmt.Errorf("sched: root %d outside [0,%d)", root, p)
	}
	switch alg {
	case Binomial:
		return binomialBroadcast(p, root), nil
	case VanDeGeijn:
		return vanDeGeijnBroadcast(p, root), nil
	}
	return nil, fmt.Errorf("sched: unknown broadcast algorithm %q", alg)
}

// abs converts a root-relative virtual rank to an absolute rank.
func abs(vrank, root, p int) int { return (vrank + root) % p }

// binomialBroadcast builds the binomial tree — in root-relative virtual
// ranks the parent of vr clears its highest set bit — and turns it into a
// one-port round schedule with a greedy earliest-round assignment: an edge
// parent→child is scheduled in the first round where the parent already
// holds the data and neither endpoint is busy. This reproduces the classic
// ⌈log₂ p⌉-round schedule exactly (asserted in tests).
func binomialBroadcast(p, root int) *Schedule {
	s := &Schedule{Algorithm: Binomial, NumRanks: p, Root: root, Segments: 1, RingStart: -1}
	if p == 1 {
		return s
	}
	// children lists per virtual rank in increasing order. The child with
	// the smallest virtual rank roots the largest subtree (clearing the
	// highest bit of vr), so ascending order sends to the largest subtree
	// first — the classic recursive-doubling order that completes in
	// ⌈log₂ p⌉ rounds (asserted by TestBinomialRoundCount).
	children := make([][]int, p)
	for vr := 1; vr < p; vr++ {
		hb := 1
		for hb<<1 <= vr {
			hb <<= 1
		}
		children[vr-hb] = append(children[vr-hb], vr)
	}
	avail := make([]int, p)     // first round in which the rank holds data
	busyUntil := make([]int, p) // first round in which the rank is free
	for vr := range avail {
		avail[vr] = -1
	}
	avail[0] = 0
	// BFS order guarantees parents are placed before children.
	queue := []int{0}
	var edges []struct{ round, src, dst int }
	maxRound := 0
	for len(queue) > 0 {
		vr := queue[0]
		queue = queue[1:]
		for _, child := range children[vr] {
			r := avail[vr]
			if busyUntil[vr] > r {
				r = busyUntil[vr]
			}
			busyUntil[vr] = r + 1
			avail[child] = r + 1
			busyUntil[child] = r + 1
			edges = append(edges, struct{ round, src, dst int }{r, vr, child})
			if r+1 > maxRound {
				maxRound = r + 1
			}
			queue = append(queue, child)
		}
	}
	s.Rounds = make([]Round, maxRound)
	for _, e := range edges {
		s.Rounds[e.round].Transfers = append(s.Rounds[e.round].Transfers, Transfer{
			Src: abs(e.src, root, p), Dst: abs(e.dst, root, p), SegLo: 0, SegHi: 1,
		})
	}
	return s
}

// vanDeGeijnBroadcast: binomial scatter of p segments (segment i destined to
// virtual rank i) followed by a ring allgather. Works for any p, not only
// powers of two: the scatter splits the destination range at the largest
// power of two below its size, exactly like the MPICH implementation.
func vanDeGeijnBroadcast(p, root int) *Schedule {
	s := &Schedule{Algorithm: VanDeGeijn, NumRanks: p, Root: root, Segments: p, RingStart: -1}
	if p == 1 {
		return s
	}
	// Scatter phase. Each informed rank owns a contiguous virtual-rank
	// interval [lo,hi) whose segments it still holds; it repeatedly sends
	// the upper half to the first rank of that half.
	type span struct{ lo, hi int }
	owner := map[int]span{0: {0, p}}
	round := 0
	for {
		var transfers []Transfer
		next := map[int]span{}
		for vr, sp := range owner {
			size := sp.hi - sp.lo
			if size <= 1 {
				next[vr] = sp
				continue
			}
			half := 1
			for half<<1 < size {
				half <<= 1
			}
			mid := sp.lo + half
			transfers = append(transfers, Transfer{
				Src: abs(vr, root, p), Dst: abs(mid, root, p), SegLo: mid, SegHi: sp.hi,
			})
			next[vr] = span{sp.lo, mid}
			next[mid] = span{mid, sp.hi}
		}
		if len(transfers) == 0 {
			break
		}
		s.Rounds = append(s.Rounds, Round{Transfers: sortTransfers(transfers)})
		owner = next
		round++
		if round > 64 {
			panic("sched: scatter did not converge")
		}
	}
	// Ring allgather: p−1 rounds; in round r, virtual rank vr sends
	// segment (vr−r mod p) to vr+1.
	s.RingStart = len(s.Rounds)
	s.RingRounds = p - 1
	for r := 0; r < p-1; r++ {
		var transfers []Transfer
		for vr := 0; vr < p; vr++ {
			seg := ((vr-r)%p + p) % p
			transfers = append(transfers, Transfer{
				Src: abs(vr, root, p), Dst: abs((vr+1)%p, root, p), SegLo: seg, SegHi: seg + 1,
			})
		}
		s.Rounds = append(s.Rounds, Round{Transfers: transfers})
	}
	return s
}

// sortTransfers orders transfers deterministically by (Src,Dst) so schedule
// generation is reproducible regardless of map iteration order.
func sortTransfers(ts []Transfer) []Transfer {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0; j-- {
			a, b := ts[j-1], ts[j]
			if a.Src < b.Src || (a.Src == b.Src && a.Dst <= b.Dst) {
				break
			}
			ts[j-1], ts[j] = b, a
		}
	}
	return ts
}

// SegBytes returns the wire size of a transfer carrying seg segments of a
// payload of m total bytes cut into `segments` parts.
func (s *Schedule) SegBytes(t Transfer, payloadBytes float64) float64 {
	return payloadBytes * float64(t.SegHi-t.SegLo) / float64(s.Segments)
}

// SegmentRange maps the segment interval [segLo,segHi) of a payload of n
// elements cut into `segments` parts onto element indices. Segments are
// near-equal: the first n%segments segments get one extra element, matching
// how MPI implementations split non-divisible buffers. Both schedule
// executors — the live runtime (internal/mpi) and the virtual communicator
// (internal/simnet) — use this same integer split, so their per-transfer
// byte counts agree exactly.
func SegmentRange(n, segments, segLo, segHi int) (lo, hi int) {
	segStart := func(s int) int {
		base := n / segments
		extra := n % segments
		if s <= extra {
			return s * (base + 1)
		}
		return extra*(base+1) + (s-extra)*base
	}
	return segStart(segLo), segStart(segHi)
}

// Cost replays the schedule on per-rank virtual clocks under the Hockney
// model and returns the time at which the last rank completes — the
// congestion-free broadcast time. Both endpoints of a transfer are occupied
// for its whole duration (rendezvous semantics).
func (s *Schedule) Cost(payloadBytes float64, m machine.Model) float64 {
	clocks := make([]float64, s.NumRanks)
	s.CostOnClocks(clocks, payloadBytes, m)
	max := 0.0
	for _, c := range clocks {
		if c > max {
			max = c
		}
	}
	return max
}

// CostOnClocks advances the provided per-rank clocks through the schedule.
// It is the composition primitive the simulator uses to chain many
// collectives and compute phases into one timeline.
//
// Rounds use full-duplex one-port semantics: within a round every transfer
// starts from the pre-round clocks of its endpoints, so a rank may send one
// message and receive another simultaneously (the ring allgather relies on
// this, and it is the assumption behind its (p−1)(α+(m/p)β) closed form). Transfers in different rounds
// serialise through the updated clocks.
func (s *Schedule) CostOnClocks(clocks []float64, payloadBytes float64, m machine.Model) {
	if len(clocks) != s.NumRanks {
		panic(fmt.Sprintf("sched: %d clocks for %d ranks", len(clocks), s.NumRanks))
	}
	type update struct {
		rank int
		end  float64
	}
	var updates []update
	for _, round := range s.Rounds {
		updates = updates[:0]
		for _, t := range round.Transfers {
			start := clocks[t.Src]
			if clocks[t.Dst] > start {
				start = clocks[t.Dst]
			}
			end := start + m.PointToPoint(s.SegBytes(t, payloadBytes))
			updates = append(updates, update{t.Src, end}, update{t.Dst, end})
		}
		for _, u := range updates {
			if u.end > clocks[u.rank] {
				clocks[u.rank] = u.end
			}
		}
	}
}

// TotalBytes returns the total traffic of the schedule for a payload of m
// bytes — the bandwidth-term numerator in the paper's cost tables.
func (s *Schedule) TotalBytes(payloadBytes float64) float64 {
	sum := 0.0
	for _, round := range s.Rounds {
		for _, t := range round.Transfers {
			sum += s.SegBytes(t, payloadBytes)
		}
	}
	return sum
}

// NumTransfers returns the number of point-to-point messages.
func (s *Schedule) NumTransfers() int {
	n := 0
	for _, r := range s.Rounds {
		n += len(r.Transfers)
	}
	return n
}
