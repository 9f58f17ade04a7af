package brb

import (
	"fmt"

	"astro/internal/types"
	"astro/internal/wire"
)

// Chain-by-digest references: a chain of k batch-signed acks endorses k
// commits, and a certificate carrying its chains inline would re-transmit
// each signer's full chain — 44 bytes per slot per signer — once per SLOT.
// The reference protocol transmits a chain to each destination at most
// once:
//
//   - CHAINDEF carries the chain itself, content-addressed: the receiver
//     recomputes AckChainDigest and stores the chain in a bounded per-peer
//     LRU. A CHAINDEF is not authenticated — a bogus one only caches a
//     chain no valid signature will ever match;
//   - COMMITREF is a COMMIT whose certificate signatures name their chains
//     by digest (plus the instance's index in the chain) instead of
//     carrying them inline. Definitions are lazy: the sender withholds
//     the CHAINDEF, because a receiver already holds every chain it signed
//     itself and every chain any peer's ACKBATCH or CHAINDEF taught it;
//   - CHAINNACK is the demand: a receiver that cannot resolve enough
//     references for a quorum — the chain was evicted, or never seen —
//     parks the reference and names the missing digests, and the origin
//     answers with those CHAINDEFs followed by the COMMITREF again on the
//     same FIFO channel. A NACK naming a digest the commit does not carry
//     is answered with the self-contained COMMITTAB instead. Delivery is
//     therefore never stalled by a cache miss, only delayed by one round
//     trip, and a transport that does not keep per-link FIFO (a jittered
//     memnet latency model) costs at most another. A Byzantine NACK stream
//     costs one bounded unicast answer per NACK and evicts nothing from
//     anyone else's cache.
//
// At chain cap 32, chain bytes per committed payment are the amortized
// quorum x 44 + quorum x 37 of one CHAINDEF per wave plus the per-commit
// references, against quorum x chain-length x 44 inline — O(1) in chain
// length (the harness metric brb.signed_n4_wire_bytes_per_payment
// measures it).

// chainCacheEntries bounds the per-peer chain cache: a receiver keeps at
// most this many defined chains per sending peer (so one peer can never
// evict another's chains). At the maxSignBatch chain length this is
// ~90 KiB per peer, and deep enough to cover several settlement waves of
// in-flight commits.
const chainCacheEntries = 64

// ChainRefStats counts the chain-reference protocol's traffic at one
// replica, for tests and the benchmark harness: COMMITREF sends, the
// definitions NACKs demanded, self-contained COMMITTAB resends
// (FullSends), inbound reference cache hits and misses, and NACK round
// trips. The shape is shared with
// the credit channel's identical protocol (types.RefStats).
type ChainRefStats = types.RefStats

// learnChain caches a chain defined by peer under its digest, then
// re-runs any references parked waiting for it.
// Chains longer than maxSignBatch are never produced by an honest drain
// loop and are not cached (bounding per-entry memory); the commit they
// arrived in still verifies through its own inline copy.
func (s *Signed) learnChain(peer types.ReplicaID, digest types.Digest, chain []ChainEntry) {
	if len(chain) == 0 || len(chain) > maxSignBatch {
		return
	}
	s.chainMu.Lock()
	s.chainsKnown.Put(peer, digest, chain)
	s.chainMu.Unlock()
	for _, pr := range s.takeWaiting(digest) {
		s.handleCommitRef(pr.id, pr.peer, pr.payload, pr.sigs)
	}
}

// knownChain resolves a chain reference from peer, marking it most
// recently used. A miss in peer's section falls through to every other
// peer's: chains are content-addressed (the digest is recomputed from the
// learned bytes), so whoever defined a chain, it is THE chain — so a chain
// demanded once (or signed by this replica itself) resolves the
// references every origin sends afterwards.
func (s *Signed) knownChain(peer types.ReplicaID, digest types.Digest) ([]ChainEntry, bool) {
	s.chainMu.Lock()
	defer s.chainMu.Unlock()
	if chain, ok := s.chainsKnown.Get(peer, digest); ok {
		return chain, true
	}
	return s.chainsKnown.GetAny(digest)
}

// pendingRef is a COMMITREF parked while its chain definition is in
// flight: the receiver NACKs a missing digest once per sender and parks
// later references to it instead of NACK-storming, then re-runs them when
// the definition lands. The slices alias the transport frame — both
// endpoints hand each message a private buffer, the same ownership the
// delivery queue already relies on.
type pendingRef struct {
	id      instanceID
	peer    types.ReplicaID
	payload []byte
	sigs    []refSig
}

// maxWaitingRefs bounds the total parked references. Overflow (or a
// per-digest pileup beyond one wave's worth) degrades to NACKing the
// reference instead of parking it — the origin's answer then re-sends it,
// so delivery retries through the bounded NACK loop rather than growing
// memory. Honest steady state parks at most one wave per origin.
const (
	maxWaitingRefs         = 256
	maxWaitingRefsPerChain = maxSignBatch + 8
)

// parkRef buffers an unresolvable reference under the digest it is
// missing. It reports (parked, nack): nack is true when the caller should
// send the CHAINNACK — the first waiter for the digest from each sender
// demands the definition, and an overflow victim falls back to the NACK
// round trip. A NACK goes only to the commit's origin, and an origin that
// crashed never answers, so a reference from another origin must not
// wait on that NACK: it demands the definition from its own sender.
func (s *Signed) parkRef(d types.Digest, pr pendingRef) (parked, nack bool) {
	s.chainMu.Lock()
	defer s.chainMu.Unlock()
	waiting := s.refsWaiting[d]
	if s.refsWaitingCount >= maxWaitingRefs || len(waiting) >= maxWaitingRefsPerChain {
		return false, true
	}
	s.refsWaiting[d] = append(waiting, pr)
	s.refsWaitingCount++
	for _, w := range waiting {
		if w.peer == pr.peer {
			return true, false
		}
	}
	return true, true
}

// takeWaiting removes and returns the references parked on digest.
func (s *Signed) takeWaiting(digest types.Digest) []pendingRef {
	s.chainMu.Lock()
	defer s.chainMu.Unlock()
	waiting, ok := s.refsWaiting[digest]
	if !ok {
		return nil
	}
	delete(s.refsWaiting, digest)
	s.refsWaitingCount -= len(waiting)
	return waiting
}

// --- wire forms ---

// chainDefSize is the exact size of a CHAINDEF message.
func chainDefSize(chain []ChainEntry) int {
	return 1 + 4 + len(chain)*chainEntrySize
}

func appendChainDef(w *wire.Writer, chain []ChainEntry) {
	w.U8(kindChainDef)
	appendChain(w, chain)
}

// EncodeChainDef encodes a CHAINDEF message. Exported for tests that forge
// Byzantine traffic.
func EncodeChainDef(chain []ChainEntry) []byte {
	w := wire.NewWriter(chainDefSize(chain))
	appendChainDef(w, chain)
	return w.Bytes()
}

// decodeChainDef parses a CHAINDEF payload after its kind byte. Defined
// chains are bounded by maxSignBatch — the longest an honest drain
// produces — not the looser certificate bound.
func decodeChainDef(r *wire.Reader) ([]ChainEntry, error) {
	chain, err := decodeChain(r)
	if err != nil {
		return nil, err
	}
	if len(chain) == 0 || len(chain) > maxSignBatch {
		return nil, fmt.Errorf("brb: chain definition of %d outside [1,%d]", len(chain), maxSignBatch)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return chain, nil
}

// refSig is one signature of a COMMITREF certificate before resolution:
// either a plain single-slot signature, or a reference to a previously
// defined chain together with this instance's index in it.
type refSig struct {
	Replica types.ReplicaID
	Sig     []byte
	HasRef  bool
	Ref     types.Digest
	Idx     uint32
}

// per-signature reference modes on the wire.
const (
	refModePlain byte = 0
	refModeChain byte = 1
)

// commitRefSize is the exact size of a COMMITREF message.
func commitRefSize(payload []byte, sigs []refSig) int {
	n := headerSize + 4 + len(payload) + 4
	for _, s := range sigs {
		n += 4 + 4 + len(s.Sig) + 1
		if s.HasRef {
			n += 32 + 4
		}
	}
	return n
}

func appendCommitRef(w *wire.Writer, origin types.ReplicaID, slot uint64, payload []byte, sigs []refSig) {
	appendHeader(w, kindCommitRef, origin, slot)
	w.Chunk(payload)
	w.U32(uint32(len(sigs)))
	for _, s := range sigs {
		w.U32(uint32(s.Replica))
		w.Chunk(s.Sig)
		if s.HasRef {
			w.U8(refModeChain)
			w.Bytes32(s.Ref)
			w.U32(s.Idx)
		} else {
			w.U8(refModePlain)
		}
	}
}

// EncodeCommitRef encodes a COMMIT whose certificate references chains by
// digest. Exported for tests.
func EncodeCommitRef(origin types.ReplicaID, slot uint64, payload []byte, sigs []refSig) []byte {
	w := wire.NewWriter(commitRefSize(payload, sigs))
	appendCommitRef(w, origin, slot, payload, sigs)
	return w.Bytes()
}

func decodeCommitRef(r *wire.Reader) ([]refSig, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > maxAckCertSigs {
		return nil, fmt.Errorf("brb: commit-ref cert of %d signatures exceeds cap", n)
	}
	sigs := make([]refSig, 0, n)
	for i := uint32(0); i < n; i++ {
		var s refSig
		s.Replica = types.ReplicaID(r.U32())
		s.Sig = r.Chunk()
		mode := r.U8()
		if err := r.Err(); err != nil {
			return nil, err
		}
		switch mode {
		case refModePlain:
		case refModeChain:
			s.HasRef = true
			s.Ref = r.Bytes32()
			s.Idx = r.U32()
			if err := r.Err(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("brb: unknown reference mode %d", mode)
		}
		sigs = append(sigs, s)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return sigs, nil
}

// chainNackSize is the exact size of a CHAINNACK message.
func chainNackSize(missing []types.Digest) int {
	return headerSize + wire.DigestListSize(len(missing))
}

func appendChainNack(w *wire.Writer, origin types.ReplicaID, slot uint64, missing []types.Digest) {
	appendHeader(w, kindChainNack, origin, slot)
	wire.AppendDigestList(w, missing)
}

// EncodeChainNack encodes a CHAINNACK message. Exported for tests.
func EncodeChainNack(origin types.ReplicaID, slot uint64, missing []types.Digest) []byte {
	w := wire.NewWriter(chainNackSize(missing))
	appendChainNack(w, origin, slot, missing)
	return w.Bytes()
}

// maxNackDigests bounds NACK digest lists on both sides: the decoder
// rejects longer lists, and the sender truncates to it (a certificate can
// reference up to quorum distinct chains, which in very large groups
// exceeds this). Truncation is harmless — naming ANY missing digest
// triggers the same full self-contained resend.
const maxNackDigests = chainCacheEntries

func decodeChainNack(r *wire.Reader) ([]types.Digest, error) {
	missing, err := wire.ReadDigestList[types.Digest](r, maxNackDigests)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return missing, nil
}
