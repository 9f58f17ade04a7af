package verifier

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"astro/internal/types"
	"astro/internal/wire"
)

// ChainSigner is the reusable scheduling core of chain signing, shared by
// the BRB ack signer and the payment layer's CREDIT signer: a single
// logical signer drains a queue of pending items on the verifier pool,
// covering everything pending with ONE signature over a hash chain of
// their digests — a lone item is a chain of one. While one signature is
// in flight, further items accumulate into the next chain, so per-item
// signing cost shrinks with load (self-clocked batching). The protocol
// layer supplies one flush callback, which emits one signature covering
// a slice of one to maxBatch items.
//
// Enqueue blocks until the drain task is accepted by the pool — never
// running the signature on the caller — so protocol handlers on transport
// dispatch goroutines can feed it directly; a saturated pool backpressures
// the feeding channel, not the other channels. A ChainSigner is safe for
// concurrent use.
type ChainSigner[T any] struct {
	v        *Verifier
	maxBatch int
	flush    func([]T, *Wave)

	mu      sync.Mutex
	pending []T
	signing bool

	// ops/covered are lifetime statistics (their ratio is the
	// amortization factor).
	ops     atomic.Uint64
	covered atomic.Uint64
}

// Wave is the per-flush scratch context handed to the flush callback.
// A chain flush fans one signature out to several destinations, and the
// expensive part of that fan-out — serializing the chain — is identical
// for every destination. Scratch hands the callback pooled writers whose
// contents stay valid for the whole flush, so the callback encodes the
// chain (and any other shared prefix) exactly once and reuses the bytes
// per destination; the signer releases every scratch writer back to the
// pool when the flush returns.
type Wave struct {
	scratch []*wire.Writer
}

// Scratch returns an empty pooled writer with at least the given capacity.
// Its bytes remain valid until the flush callback returns; the caller must
// NOT retain them (transports that copy are fine) and must not Release the
// writer itself.
func (wv *Wave) Scratch(capacity int) *wire.Writer {
	w := wire.AcquireWriter(capacity)
	wv.scratch = append(wv.scratch, w)
	return w
}

// release returns every scratch writer to the pool (drain side, after the
// flush callback returns).
func (wv *Wave) release() {
	for _, w := range wv.scratch {
		w.Release()
	}
	wv.scratch = wv.scratch[:0]
}

// NewChainSigner creates a chain signer draining on v (nil selects the
// shared Default pool). maxBatch caps how many items one signature covers.
// flush receives a Wave whose Scratch writers let it build the shared
// per-wave encodings once.
func NewChainSigner[T any](v *Verifier, maxBatch int, flush func([]T, *Wave)) *ChainSigner[T] {
	if v == nil {
		v = Default()
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &ChainSigner[T]{
		v:        v,
		maxBatch: maxBatch,
		flush:    flush,
	}
}

// Sign runs the protocol layer's signing primitive, charging covered
// items against one signing operation in the lifetime statistics. The
// flush callback routes its signature through here.
func (s *ChainSigner[T]) Sign(covered int, sign func() ([]byte, error)) ([]byte, error) {
	sig, err := sign()
	if err != nil {
		return nil, err
	}
	s.ops.Add(1)
	s.covered.Add(uint64(covered))
	return sig, nil
}

// Stats returns how many signing operations ran and how many items they
// covered. covered/ops > 1 means chain batching engaged.
func (s *ChainSigner[T]) Stats() (ops, covered uint64) {
	return s.ops.Load(), s.covered.Load()
}

// Pending returns the number of items queued and not yet signed.
func (s *ChainSigner[T]) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Enqueue queues one item for signing. Whichever enqueue finds the signer
// idle kicks the drain onto the pool (blocking until the task is accepted,
// never signing on the caller); everything that accumulates while the
// drain signs is batch-signed on its next pass.
func (s *ChainSigner[T]) Enqueue(item T) {
	s.mu.Lock()
	s.pending = append(s.pending, item)
	kick := !s.signing
	if kick {
		s.signing = true
	}
	s.mu.Unlock()
	if kick {
		s.v.Async(s.drain)
	}
}

// drain is the pool-side signer: it repeatedly takes everything queued and
// flushes it, one signature per pass. Each signature in flight lets the
// next pass accumulate more items, so the chain length — and with it the
// per-item signing cost — tracks load automatically.
func (s *ChainSigner[T]) drain() {
	var wave Wave
	for {
		s.mu.Lock()
		batch := s.pending
		s.pending = nil
		if len(batch) == 0 {
			s.signing = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		for len(batch) > 0 {
			n := min(len(batch), s.maxBatch)
			s.flush(batch[:n:n], &wave)
			wave.release()
			batch = batch[n:]
		}
	}
}

// ChainDigest computes a domain-separated hash over an ordered list of
// digests — the value one chain signature covers. Protocol layers choose
// distinct domain bytes so chain signatures from different subsystems can
// never be replayed as one another.
func ChainDigest(domain byte, chain []types.Digest) types.Digest {
	h := sha256.New()
	var hdr [5]byte
	hdr[0] = domain
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(chain)))
	h.Write(hdr[:])
	for _, d := range chain {
		h.Write(d[:])
	}
	var out types.Digest
	h.Sum(out[:0])
	return out
}
