package types

import "testing"

func TestPeerCacheIsolatesPeers(t *testing.T) {
	c := NewPeerCache[string](2)
	d1, d2, d3 := HashBytes([]byte("a")), HashBytes([]byte("b")), HashBytes([]byte("c"))
	c.Put(1, d1, "p1-a")
	c.Put(2, d1, "p2-a")
	// Filling peer 2's LRU must not evict peer 1's entries.
	c.Put(2, d2, "p2-b")
	c.Put(2, d3, "p2-c") // evicts p2's d1
	if _, ok := c.Get(2, d1); ok {
		t.Fatal("peer 2's oldest entry not evicted")
	}
	if v, ok := c.Get(1, d1); !ok || v != "p1-a" {
		t.Fatal("peer 1's entry was disturbed by peer 2's churn")
	}
	if !c.HasPeer(2) || c.HasPeer(9) {
		t.Fatal("HasPeer wrong")
	}
	// Get on an unknown peer must not allocate a cache.
	if _, ok := c.Get(9, d1); ok || c.HasPeer(9) {
		t.Fatal("probe of unknown peer allocated state")
	}
}

func TestPeerCacheInternReturnsCanonical(t *testing.T) {
	c := NewPeerCache[[]int](2)
	d := HashBytes([]byte("chain"))
	first := []int{1, 2, 3}
	if got := c.Intern(1, d, first); &got[0] != &first[0] {
		t.Fatal("first intern did not adopt the given slice")
	}
	second := []int{1, 2, 3}
	if got := c.Intern(1, d, second); &got[0] != &first[0] {
		t.Fatal("second intern did not return the canonical slice")
	}
}

func TestPeerCacheSetCapacityAffectsNewPeers(t *testing.T) {
	c := NewPeerCache[int](4)
	d1, d2 := HashBytes([]byte("a")), HashBytes([]byte("b"))
	c.Put(1, d1, 1)
	c.SetCapacity(1)
	c.Put(2, d1, 1)
	c.Put(2, d2, 2) // capacity 1: evicts d1
	if _, ok := c.Get(2, d1); ok {
		t.Fatal("new peer did not get the updated capacity")
	}
	c.Put(1, d2, 2)
	_, ok1 := c.Get(1, d1)
	_, ok2 := c.Get(1, d2)
	if !ok1 || !ok2 {
		t.Fatal("existing peer's capacity changed retroactively")
	}
}
