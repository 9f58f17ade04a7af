package types

import "testing"

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := NewLRU[int, string](3)
	l.Put(1, "a")
	l.Put(2, "b")
	l.Put(3, "c")
	// Touch 1 so 2 becomes the eviction victim.
	if v, ok := l.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	l.Put(4, "d")
	if _, ok := l.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := l.Get(k); !ok {
			t.Fatalf("%d missing after eviction of 2", k)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
}

func TestLRUPutReplacesAndTouches(t *testing.T) {
	l := NewLRU[int, int](2)
	l.Put(1, 10)
	l.Put(2, 20)
	l.Put(1, 11) // replace refreshes recency
	l.Put(3, 30) // evicts 2, not 1
	if v, ok := l.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d, %v", v, ok)
	}
	if _, ok := l.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	l := NewLRU[int, int](0)
	l.Put(1, 1)
	l.Put(2, 2)
	if _, ok := l.Get(2); l.Len() != 1 || !ok {
		t.Fatal("capacity floor of 1 not enforced")
	}
}
