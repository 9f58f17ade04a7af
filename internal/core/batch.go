package core

import (
	"fmt"

	"astro/internal/types"
	"astro/internal/wire"
)

// A batch is the unit the representative broadcasts (paper §VI-A): a set
// of payments, potentially from different clients, assembled to amortize
// authentication and network overheads. In Astro II each payment may carry
// the dependencies its spender accumulated since their last broadcast
// (paper Listing 7).

// BatchEntry is one payment plus its attached dependencies (Astro II; the
// slice is empty for Astro I batches) and, when end-to-end client
// signatures are enabled, the spender's signature over the payment.
type BatchEntry struct {
	Payment types.Payment
	// Sig is the spender's signature over PaymentDigest(Payment); empty
	// when client authentication is disabled.
	Sig  []byte
	Deps []Dependency
}

// PaymentDigest is what a client signs when end-to-end client signatures
// are enabled: a domain-separated hash of the payment's canonical
// encoding.
func PaymentDigest(p types.Payment) types.Digest {
	buf := make([]byte, 0, 1+types.PaymentWireSize)
	buf = append(buf, 0x45) // domain: client payment
	buf = p.AppendBinary(buf)
	return types.HashBytes(buf)
}

// maxBatch bounds decoded batch sizes.
const maxBatch = 1 << 16

// A batch's wire form is the chain table of its dependency certificates
// (deps.go; empty when none carries a chain), then the entry count and
// the entries, each dependency indexing into the table — every distinct
// chain is encoded once per batch.

// batchTable collects the distinct chains of a batch's dependencies.
func batchTable(entries []BatchEntry) chainTable {
	var t chainTable
	for _, e := range entries {
		for _, d := range e.Deps {
			t.add(d.Cert)
		}
	}
	return t
}

// batchSize returns the exact encoded size of a batch with table t, for
// exact-capacity preallocation: one undersized guess doubles the hot
// path's allocations.
func batchSize(entries []BatchEntry, t chainTable) int {
	n := t.size() + 4
	for _, e := range entries {
		n += types.PaymentWireSize + 4 + len(e.Sig) + 4
		for _, d := range e.Deps {
			n += dependencySize(d)
		}
	}
	return n
}

// appendBatch writes a batch with table t (batchTable(entries)) into w.
func appendBatch(w *wire.Writer, entries []BatchEntry, t chainTable) {
	t.append(w)
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.AppendFunc(e.Payment.AppendBinary)
		w.Chunk(e.Sig)
		w.U32(uint32(len(e.Deps)))
		for _, d := range e.Deps {
			appendDependency(w, d, t)
		}
	}
}

// EncodeBatch produces the broadcast payload for a batch.
func EncodeBatch(entries []BatchEntry) []byte {
	t := batchTable(entries)
	w := wire.NewWriter(batchSize(entries, t))
	appendBatch(w, entries, t)
	return w.Bytes()
}

// DecodeBatch parses a broadcast payload.
func DecodeBatch(payload []byte) ([]BatchEntry, error) {
	r := wire.NewReader(payload)
	entries, err := readBatchEntries(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return entries, nil
}

// readBatchEntries consumes one batch encoding (appendBatch) from the
// middle of a larger stream — the WAL snapshot embeds per-account queues
// this way. The encoding is self-contained: its chain table is read here,
// so a mid-stream batch never depends on outer context.
func readBatchEntries(r *wire.Reader) ([]BatchEntry, error) {
	t, err := readChainTable(r)
	if err != nil {
		return nil, err
	}
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > maxBatch {
		return nil, fmt.Errorf("batch: %d entries exceeds cap", n)
	}
	entries := make([]BatchEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		var e BatchEntry
		raw := r.Fixed(types.PaymentWireSize)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := e.Payment.UnmarshalBinary(raw); err != nil {
			return nil, err
		}
		if sig := r.Chunk(); len(sig) > 0 {
			e.Sig = sig
		}
		nd := r.U32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if nd > maxBatch {
			return nil, fmt.Errorf("batch: %d deps exceeds cap", nd)
		}
		for j := uint32(0); j < nd; j++ {
			d, err := decodeDependency(r, t)
			if err != nil {
				return nil, err
			}
			e.Deps = append(e.Deps, d)
		}
		entries = append(entries, e)
	}
	if err := t.finish(); err != nil {
		return nil, err
	}
	return entries, nil
}
