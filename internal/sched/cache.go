package sched

import "sync"

// Cache memoises broadcast schedules by (algorithm, p, root).
// A schedule is pure data, so every executor — the live runtime and both
// virtual engines — resolves a collective through one Cache per world and
// gets the same *Schedule pointer back for the same call, instead of
// rebuilding the transfer list on every broadcast.
//
// All methods are safe for concurrent use; the hot path takes a read lock
// only.
type Cache struct {
	mu     sync.RWMutex
	scheds map[cacheKey]*Schedule
}

type cacheKey struct {
	alg     Algorithm
	p, root int
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{scheds: make(map[cacheKey]*Schedule)}
}

// Broadcast returns the cached schedule for the given broadcast, building
// it on first use. Concurrent first builds keep pointer identity: the
// first writer wins and later builders adopt its pointer.
func (c *Cache) Broadcast(alg Algorithm, p, root int) (*Schedule, error) {
	k := cacheKey{alg, p, root}
	c.mu.RLock()
	s, ok := c.scheds[k]
	c.mu.RUnlock()
	if ok {
		return s, nil
	}
	s, err := NewBroadcast(alg, p, root)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if exist, ok := c.scheds[k]; ok {
		s = exist
	} else {
		c.scheds[k] = s
	}
	c.mu.Unlock()
	return s, nil
}
