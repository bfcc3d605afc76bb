package sched

import "fmt"

// Validate checks the structural invariants every broadcast schedule must
// satisfy; the property tests run it over every algorithm, size and root.
//
//  1. rank and segment indices are in range and no rank sends to itself;
//  2. one-port model: within a round, a rank is the source of at most one
//     transfer and the destination of at most one transfer;
//  3. data availability: a rank only sends segments it already holds
//     (the root starts holding all segments);
//  4. completeness: after the last round every rank holds every segment.
//
// Redundant deliveries (receiving a segment already held) are permitted:
// the scatter-allgather broadcast really performs them — ranks that
// forwarded segments during the scatter still take part in every ring
// round, exactly as in the MPICH implementation and in the paper's
// (log₂p + p − 1)α cost. Tree algorithms never produce them, which
// ValidateNoRedundancy asserts separately.
func Validate(s *Schedule) error {
	if s.NumRanks <= 0 {
		return fmt.Errorf("sched: schedule over %d ranks", s.NumRanks)
	}
	if s.Segments <= 0 {
		return fmt.Errorf("sched: %d segments", s.Segments)
	}
	// holds[rank][seg]
	holds := make([][]bool, s.NumRanks)
	for r := range holds {
		holds[r] = make([]bool, s.Segments)
	}
	for seg := 0; seg < s.Segments; seg++ {
		holds[s.Root][seg] = true
	}
	for ri, round := range s.Rounds {
		srcSeen := make(map[int]bool)
		dstSeen := make(map[int]bool)
		// Deliveries become visible at the end of the round: stage them.
		type delivery struct{ rank, lo, hi int }
		var staged []delivery
		for ti, t := range round.Transfers {
			if t.Src < 0 || t.Src >= s.NumRanks || t.Dst < 0 || t.Dst >= s.NumRanks {
				return fmt.Errorf("round %d transfer %d: rank out of range: %+v", ri, ti, t)
			}
			if t.Src == t.Dst {
				return fmt.Errorf("round %d transfer %d: self-send: %+v", ri, ti, t)
			}
			if t.SegLo < 0 || t.SegHi > s.Segments || t.SegLo >= t.SegHi {
				return fmt.Errorf("round %d transfer %d: bad segment range: %+v", ri, ti, t)
			}
			if srcSeen[t.Src] {
				return fmt.Errorf("round %d: rank %d sends twice (one-port violation)", ri, t.Src)
			}
			if dstSeen[t.Dst] {
				return fmt.Errorf("round %d: rank %d receives twice (one-port violation)", ri, t.Dst)
			}
			srcSeen[t.Src] = true
			dstSeen[t.Dst] = true
			for seg := t.SegLo; seg < t.SegHi; seg++ {
				if !holds[t.Src][seg] {
					return fmt.Errorf("round %d: rank %d sends segment %d it does not hold", ri, t.Src, seg)
				}
			}
			staged = append(staged, delivery{t.Dst, t.SegLo, t.SegHi})
		}
		for _, d := range staged {
			for seg := d.lo; seg < d.hi; seg++ {
				holds[d.rank][seg] = true
			}
		}
	}
	for r := 0; r < s.NumRanks; r++ {
		for seg := 0; seg < s.Segments; seg++ {
			if !holds[r][seg] {
				return fmt.Errorf("incomplete: rank %d never receives segment %d", r, seg)
			}
		}
	}
	return nil
}

// ValidateNoRedundancy additionally checks that no rank ever receives a
// segment it already holds — true of the binomial tree, whose traffic
// equals the information-theoretic minimum, and deliberately false for
// scatter-allgather.
func ValidateNoRedundancy(s *Schedule) error {
	holds := make([][]bool, s.NumRanks)
	for r := range holds {
		holds[r] = make([]bool, s.Segments)
	}
	for seg := 0; seg < s.Segments; seg++ {
		holds[s.Root][seg] = true
	}
	for ri, round := range s.Rounds {
		for _, t := range round.Transfers {
			for seg := t.SegLo; seg < t.SegHi; seg++ {
				if holds[t.Dst][seg] {
					return fmt.Errorf("round %d: rank %d re-receives segment %d", ri, t.Dst, seg)
				}
			}
		}
		for _, t := range round.Transfers {
			for seg := t.SegLo; seg < t.SegHi; seg++ {
				holds[t.Dst][seg] = true
			}
		}
	}
	return nil
}
