package verifier

import (
	"sync"

	"astro/internal/types"
)

// memoKeyT is a collision-resistant digest of (domain, signer, message
// digest, signature); see memoKey.
type memoKeyT [32]byte

// memoCache is a small mutex-guarded LRU of signature verdicts — a thin
// synchronized wrapper over types.LRU, the repository's one eviction
// implementation (the lock is here because every worker shares the
// cache).
//
// Both outcomes are cached: verification is deterministic, so a signature
// that failed once fails forever, and caching failures blunts repeated
// garbage from a Byzantine peer as effectively as caching successes
// speeds up re-delivered commits.
type memoCache struct {
	mu  sync.Mutex
	lru *types.LRU[memoKeyT, bool] // nil when caching is disabled
}

// newMemoCache returns a cache holding up to capacity verdicts; capacity
// <= 0 disables caching (get always misses, put is a no-op).
func newMemoCache(capacity int) *memoCache {
	c := &memoCache{}
	if capacity > 0 {
		c.lru = types.NewLRU[memoKeyT, bool](capacity)
	}
	return c
}

func (c *memoCache) get(k memoKeyT) (ok, hit bool) {
	if c.lru == nil {
		return false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(k)
}

func (c *memoCache) put(k memoKeyT, ok bool) {
	if c.lru == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(k, ok)
}

// len reports the number of cached verdicts (for tests).
func (c *memoCache) len() int {
	if c.lru == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
