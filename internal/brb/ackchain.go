package brb

import (
	"fmt"

	"astro/internal/types"
	"astro/internal/wire"
)

// Ack signing: a replica signs every ack as a *chain* — the ordered list
// of (origin, slot, ack digest) entries pending when its signer drains —
// so one signing operation endorses every BRB instance that accumulated
// while the previous ECDSA was in flight, possibly across different
// origins. A lone pending ack is a chain of one: there is one ack form,
// the ACKBATCH. Each origin receives the full chain and extracts the
// entries addressed to it; the signature only verifies against the whole
// chain, so commit certificates name the chain (AckSig.Chain) and every
// verifier recomputes the same chain digest. The verifier memo then
// collapses the cost on the receiving side too: a chain of k slots costs
// one ECDSA verification for all k commits it appears in.
//
// The queue/drain scheduling that feeds these chains
// is generalized as verifier.ChainSigner (shared with the payment layer's
// settlement-wave CREDIT signing); this file keeps the BRB-specific chain
// digests and wire forms.

// ChainEntry is one element of an ack chain: the instance it acknowledges
// and the instance's ack digest (SignedDigest).
type ChainEntry struct {
	Origin types.ReplicaID
	Slot   uint64
	Digest types.Digest
}

// AckSig is one signature of an ack certificate. It covers
// AckChainDigest(Chain), and it endorses an instance only if the chain
// carries that instance's entry.
type AckSig struct {
	Replica types.ReplicaID
	Sig     []byte
	Chain   []ChainEntry
	// ChainDigest memoizes AckChainDigest(Chain) — the origin computes
	// it once while verifying the ACKBATCH, and
	// commitChainTable keys the commit's chain table on it without
	// rehashing. Never encoded; receivers recompute from content.
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

// AckCert is a quorum of ack signatures for one instance.
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

// maxSignBatch caps how many pending acks one signature covers. The
// amortization gain is hyperbolic — 32 already cuts per-ack signing cost
// ~32× — while the wire cost is linear: every commit certificate carries
// each signer's full chain, so unbounded chains would bloat commits (and
// redundantly, once per signer). 32 keeps the chain overhead per
// certificate signature (32×44 B) comparable to the ECDSA it replaces.
// Every decoder refuses a longer chain (decodeChain): no correct replica
// signs one, so an origin that counted one would commit a certificate no
// receiver accepts.
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

// AckChainDigest computes the digest a replica signs for a chain of acks:
// a domain-separated hash over the canonical chain encoding. The 0x44
// domain byte keeps it disjoint from the ack digests it lists (0x42
// inside SignedDigest), so a signature over one can never be replayed as
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

// decodeChain reads a chain of 1 to maxSignBatch entries: the only
// lengths a correct signer produces.
func decodeChain(r *wire.Reader) ([]ChainEntry, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 || n > maxSignBatch {
		return nil, fmt.Errorf("brb: ack chain of %d outside [1,%d]", n, maxSignBatch)
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

// decodeAckBatch parses an ACKBATCH after its kind byte: the one decoder
// for the one ack form, shared by Signed and DecodeAckBatch. It accepts
// only what decodeCommitTab accepts of a chain, and nothing after the
// signature.
func decodeAckBatch(r *wire.Reader) (chain []ChainEntry, sig []byte, err error) {
	chain, err = decodeChain(r)
	if err != nil {
		return nil, nil, err
	}
	sig = r.Chunk()
	if err := r.Finish(); err != nil {
		return nil, nil, err
	}
	return chain, sig, nil
}

// maxAckCertSigs mirrors crypto's decoded-certificate bound.
const maxAckCertSigs = 4096
