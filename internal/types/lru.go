package types

// LRU is a small bounded map with least-recently-used eviction: the
// store behind the signature verifier's memo cache, which keeps the
// verdicts of recently checked signatures, evicting the entry that has
// gone longest without use.
//
// The zero value is not usable; construct with NewLRU. An LRU is NOT safe
// for concurrent use — callers guard it with whatever lock already guards
// the state it belongs to.
type LRU[K comparable, V any] struct {
	capacity int
	m        map[K]*lruNode[K, V]
	// head is the most recently used node, tail the least; nil when empty.
	head, tail *lruNode[K, V]
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruNode[K, V]
}

// NewLRU returns an empty cache holding at most capacity entries;
// capacity < 1 is raised to 1.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		capacity: capacity,
		m:        make(map[K]*lruNode[K, V], capacity),
	}
}

// Len returns the number of cached entries.
func (l *LRU[K, V]) Len() int { return len(l.m) }

// Get returns the value cached under k and marks it most recently used.
func (l *LRU[K, V]) Get(k K) (V, bool) {
	n, ok := l.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveToFront(n)
	return n.val, true
}

// Put caches v under k (replacing any previous value), marks it most
// recently used, and evicts the least recently used entry if the cache is
// over capacity.
func (l *LRU[K, V]) Put(k K, v V) {
	if n, ok := l.m[k]; ok {
		n.val = v
		l.moveToFront(n)
		return
	}
	n := &lruNode[K, V]{key: k, val: v}
	l.m[k] = n
	l.pushFront(n)
	if len(l.m) > l.capacity {
		oldest := l.tail
		l.unlink(oldest)
		delete(l.m, oldest.key)
	}
}

func (l *LRU[K, V]) pushFront(n *lruNode[K, V]) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *LRU[K, V]) unlink(n *lruNode[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *LRU[K, V]) moveToFront(n *lruNode[K, V]) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}
