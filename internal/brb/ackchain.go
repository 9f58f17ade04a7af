package brb

import (
	"fmt"

	"astro/internal/types"
	"astro/internal/wire"
)

// Batch-level ack signing: a replica that has several acks pending while
// an earlier ECDSA is in flight signs them all at once. The single
// signature covers a *chain* — the ordered list of (origin, slot, ack
// digest) entries — so one signing operation endorses many BRB instances,
// possibly across different origins. Each origin receives the full chain
// and extracts the entries addressed to it; the signature only verifies
// against the whole chain, so commit certificates name the chain
// (AckSig.Chain) and every verifier recomputes the same chain digest. The
// verifier memo then collapses the cost on the receiving side too: a
// chain of k slots costs one ECDSA verification for all k commits it
// appears in.
//
// A lone pending ack keeps the single-slot form (kindAck): under light
// load every ack is signed alone, and a plain signature verifies with
// nothing else in hand, where a length-1 chain named by digest would be
// known only to its signer and its origin and cost every other replica a
// CHAINNACK round trip per commit.
//
// The queue/drain scheduling that feeds these chains
// is generalized as verifier.ChainSigner (shared with the payment layer's
// settlement-wave CREDIT signing); this file keeps the BRB-specific chain
// digests and wire forms.

// ChainEntry is one element of a batch-signed ack chain: the instance it
// acknowledges and the ack digest that a single-slot signature would have
// covered (SignedDigest of the instance).
type ChainEntry struct {
	Origin types.ReplicaID
	Slot   uint64
	Digest types.Digest
}

// AckSig is one signature of an ack certificate. Chain nil means the
// signature covers the instance's own ack digest (the single-slot form);
// otherwise it covers AckChainDigest(Chain), and it endorses an instance
// only if the chain carries that instance's entry.
type AckSig struct {
	Replica types.ReplicaID
	Sig     []byte
	Chain   []ChainEntry
	// ChainDigest memoizes AckChainDigest(Chain) when Chain is non-nil —
	// the origin computes it once while verifying the ACKBATCH, and the
	// chain-reference sender (sendCommit) keys CHAINDEF bookkeeping on it
	// without rehashing. Never encoded; receivers recompute from content.
	ChainDigest types.Digest
}

// chainDigest returns the memoized chain digest, hashing the chain when a
// caller built the signature without it.
func (a *AckSig) chainDigest() types.Digest {
	if a.ChainDigest == (types.Digest{}) {
		return AckChainDigest(a.Chain)
	}
	return a.ChainDigest
}

// AckCert is a quorum of ack signatures for one instance, possibly mixing
// single-slot and chain signatures.
type AckCert struct {
	Sigs []AckSig
}

// Len returns the number of signatures gathered.
func (c AckCert) Len() int { return len(c.Sigs) }

// Has reports whether the certificate already carries a signature by r.
func (c AckCert) Has(r types.ReplicaID) bool {
	for _, s := range c.Sigs {
		if s.Replica == r {
			return true
		}
	}
	return false
}

// maxAckChain bounds decoded chain lengths (defense against hostile
// input); far above any batch a signer's drain loop accumulates.
const maxAckChain = 1024

// maxSignBatch caps how many pending acks one signature covers. The
// amortization gain is hyperbolic — 32 already cuts per-ack signing cost
// ~32× — while the wire cost is linear: every commit certificate carries
// each signer's full chain, so unbounded chains would bloat commits (and
// redundantly, once per signer). 32 keeps the chain overhead per
// certificate signature (32×44 B) comparable to the ECDSA it replaces.
const maxSignBatch = 32

// chainEntrySize is the wire size of one chain entry.
const chainEntrySize = 4 + 8 + 32

// chainContains reports whether the chain carries the entry for the given
// instance with the given ack digest.
func chainContains(chain []ChainEntry, id instanceID, d types.Digest) bool {
	for _, e := range chain {
		if e.Origin == id.origin && e.Slot == id.slot && e.Digest == d {
			return true
		}
	}
	return false
}

// AckChainDigest computes the digest a replica signs for a batch of acks:
// a domain-separated hash over the canonical chain encoding. The 0x44
// domain byte keeps chain signatures disjoint from single-slot ack
// signatures (0x42 inside SignedDigest), so neither can be replayed as
// the other.
func AckChainDigest(chain []ChainEntry) types.Digest {
	w := wire.AcquireWriter(5 + len(chain)*chainEntrySize)
	defer w.Release()
	w.U8(0x44) // domain: brb-ack-chain
	w.U32(uint32(len(chain)))
	for _, e := range chain {
		w.U32(uint32(e.Origin))
		w.U64(e.Slot)
		w.Bytes32(e.Digest)
	}
	return types.HashBytes(w.Bytes())
}

func appendChain(w *wire.Writer, chain []ChainEntry) {
	w.U32(uint32(len(chain)))
	for _, e := range chain {
		w.U32(uint32(e.Origin))
		w.U64(e.Slot)
		w.Bytes32(e.Digest)
	}
}

func decodeChain(r *wire.Reader) ([]ChainEntry, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > maxAckChain {
		return nil, fmt.Errorf("brb: ack chain of %d exceeds cap", n)
	}
	if n == 0 {
		return nil, nil
	}
	chain := make([]ChainEntry, n)
	for i := range chain {
		chain[i].Origin = types.ReplicaID(r.U32())
		chain[i].Slot = r.U64()
		chain[i].Digest = r.Bytes32()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return chain, nil
}

// ackBatchSize is the exact size of an ACKBATCH message.
func ackBatchSize(chain []ChainEntry, sig []byte) int {
	return 1 + 4 + len(chain)*chainEntrySize + 4 + len(sig)
}

func appendAckBatch(w *wire.Writer, chain []ChainEntry, sig []byte) {
	w.U8(kindAckBatch)
	appendChain(w, chain)
	w.Chunk(sig)
}

// EncodeAckBatch encodes an ACKBATCH message: one signature over the
// chain digest, endorsing every instance the chain lists. Exported for
// tests that forge Byzantine traffic.
func EncodeAckBatch(chain []ChainEntry, sig []byte) []byte {
	w := wire.NewWriter(ackBatchSize(chain, sig))
	appendAckBatch(w, chain, sig)
	return w.Bytes()
}

// maxAckCertSigs mirrors crypto's decoded-certificate bound.
const maxAckCertSigs = 4096
