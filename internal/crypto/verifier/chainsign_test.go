package verifier

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astro/internal/types"
)

// collectSigner wires a ChainSigner to counters: the flush callback
// records the chains the drain formed, and a configurable latency inside
// Sign lets items pile up while a signature is in flight.
type collectSigner struct {
	mu      sync.Mutex
	chains  [][]int
	signLat time.Duration
	cs      *ChainSigner[int]
}

func newCollectSigner(t *testing.T, v *Verifier, lat time.Duration) *collectSigner {
	t.Helper()
	c := &collectSigner{signLat: lat}
	sign := func() ([]byte, error) {
		if c.signLat > 0 {
			time.Sleep(c.signLat)
		}
		return []byte("sig"), nil
	}
	c.cs = NewChainSigner(v, 8,
		func(items []int, wv *Wave) {
			if _, err := c.cs.Sign(len(items), sign); err != nil {
				t.Error(err)
			}
			// Exercise the per-wave scratch contract: bytes written before
			// the flush returns stay intact across further Scratch calls.
			w := wv.Scratch(8)
			w.U32(uint32(len(items)))
			if wv.Scratch(8); w.Len() != 4 {
				t.Error("wave scratch clobbered")
			}
			c.mu.Lock()
			c.chains = append(c.chains, items)
			c.mu.Unlock()
		})
	return c
}

func (c *collectSigner) waitCovered(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, covered := c.cs.Stats(); covered >= n {
			return
		}
		if time.Now().After(deadline) {
			_, covered := c.cs.Stats()
			t.Fatalf("covered %d of %d", covered, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChainSignerBatchesUnderLoad: with items arriving faster than
// signatures complete, the
// drain must collapse pending items into chains — fewer signing operations
// than items — while covering every item exactly once, in order.
func TestChainSignerBatchesUnderLoad(t *testing.T) {
	v := New(1)
	defer v.Close()
	c := newCollectSigner(t, v, time.Millisecond)

	const n = 40
	for i := 0; i < n; i++ {
		c.cs.Enqueue(i)
	}
	c.waitCovered(t, n)

	ops, covered := c.cs.Stats()
	if covered != n {
		t.Fatalf("covered = %d, want %d", covered, n)
	}
	if ops >= n {
		t.Fatalf("ops = %d, want < %d (no amortization happened)", ops, n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var seen []int
	for _, ch := range c.chains {
		if len(ch) > 8 {
			t.Fatalf("chain of %d exceeds maxBatch 8", len(ch))
		}
		seen = append(seen, ch...)
	}
	if len(seen) != n {
		t.Fatalf("flushed %d items, want %d", len(seen), n)
	}
	for i, item := range seen {
		if item != i {
			t.Fatalf("flushed item %d is %d: chains out of order", i, item)
		}
	}
}

// TestChainSignerLoneItemIsChainOfOne: an item that finds nothing else
// pending leaves as a chain of one, through the one flush callback.
func TestChainSignerLoneItemIsChainOfOne(t *testing.T) {
	v := New(1)
	defer v.Close()
	c := newCollectSigner(t, v, 0)
	c.cs.Enqueue(7)
	c.waitCovered(t, 1)
	v.Close() // the flush callback has returned once the lane exits
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.chains) != 1 || len(c.chains[0]) != 1 || c.chains[0][0] != 7 {
		t.Fatalf("chains %v; want one chain of one", c.chains)
	}
	if ops, covered := c.cs.Stats(); ops != 1 || covered != 1 {
		t.Fatalf("stats ops=%d covered=%d, want one signature covering one item", ops, covered)
	}
}

// TestChainSignerConcurrentEnqueue hammers Enqueue from many goroutines
// (exercised under -race by the Makefile's race target) and checks nothing
// is lost or duplicated.
func TestChainSignerConcurrentEnqueue(t *testing.T) {
	v := New(2)
	defer v.Close()
	var count atomic.Int64
	var cs *ChainSigner[int]
	cs = NewChainSigner(v, 16,
		func(items []int, _ *Wave) {
			if _, err := cs.Sign(len(items), func() ([]byte, error) { return nil, nil }); err != nil {
				t.Error(err)
			}
			count.Add(int64(len(items)))
		})

	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				cs.Enqueue(w*per + i)
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for count.Load() != workers*per {
		if time.Now().After(deadline) {
			t.Fatalf("flushed %d of %d", count.Load(), workers*per)
		}
		time.Sleep(time.Millisecond)
	}
	if _, covered := cs.Stats(); covered != workers*per {
		t.Fatalf("covered = %d, want %d", covered, workers*per)
	}
	if cs.Pending() != 0 {
		t.Fatalf("pending = %d after drain", cs.Pending())
	}
}

// TestChainDigestDomainsDisjoint: the same chain under different domain
// bytes must hash differently, and any chain change must change the
// digest.
func TestChainDigestDomainsDisjoint(t *testing.T) {
	chain := []types.Digest{types.HashBytes([]byte("a")), types.HashBytes([]byte("b"))}
	if ChainDigest(0x44, chain) == ChainDigest(0x46, chain) {
		t.Fatal("domains collide")
	}
	reordered := []types.Digest{chain[1], chain[0]}
	if ChainDigest(0x46, chain) == ChainDigest(0x46, reordered) {
		t.Fatal("order-insensitive chain digest")
	}
	if ChainDigest(0x46, chain) == ChainDigest(0x46, chain[:1]) {
		t.Fatal("length-insensitive chain digest")
	}
}
