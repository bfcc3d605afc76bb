package simnet

import (
	"sync"

	"repro/internal/machine"
	"repro/internal/sched"
)

// SchedCache memoises broadcast schedules (the shared sched.Cache) and
// their per-rank traffic deltas. It is the cache layer shared by the two
// virtual execution engines — the goroutine engine's VWorld and
// internal/evsim's event loop — so both resolve a collective to the *same*
// *sched.Schedule pointer and the same integer byte split, which is what
// makes their traffic counters comparable bit for bit.
//
// All methods are safe for concurrent use; the hot path takes a read
// lock only.
type SchedCache struct {
	*sched.Cache

	mu      sync.RWMutex
	traffic map[trafficCacheKey][]VRankStats
}

// trafficCacheKey caches per-rank traffic deltas by (schedule identity,
// payload size). Schedules are themselves cached per SchedCache, so
// pointer identity is a valid key.
type trafficCacheKey struct {
	sched *sched.Schedule
	elems int
}

// NewSchedCache returns an empty cache.
func NewSchedCache() *SchedCache {
	return &SchedCache{
		Cache:   sched.NewCache(),
		traffic: make(map[trafficCacheKey][]VRankStats),
	}
}

// Traffic returns the per-schedule-rank (messages, bytes) a collective of
// the given payload generates, cached: a Van de Geijn broadcast has O(p²)
// transfers, and walking them per collective would dominate large
// simulations where the timing side takes the O(p) ring fast path. Byte
// counts use the same integer sched.SegmentRange split the live runtime
// puts on the wire, so parity with internal/mpi is preserved.
func (c *SchedCache) Traffic(s *sched.Schedule, elems int) []VRankStats {
	k := trafficCacheKey{sched: s, elems: elems}
	c.mu.RLock()
	d, ok := c.traffic[k]
	c.mu.RUnlock()
	if ok {
		return d
	}
	delta := make([]VRankStats, s.NumRanks)
	for _, round := range s.Rounds {
		for _, t := range round.Transfers {
			lo, hi := sched.SegmentRange(elems, s.Segments, t.SegLo, t.SegHi)
			delta[t.Src].SentMessages++
			delta[t.Src].SentBytes += int64(machine.BytesPerElement * (hi - lo))
		}
	}
	c.mu.Lock()
	if exist, ok := c.traffic[k]; ok {
		delta = exist
	} else {
		c.traffic[k] = delta
	}
	c.mu.Unlock()
	return delta
}
