package brb

import (
	"errors"
	"fmt"
	"sync"

	"astro/internal/crypto/verifier"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// Signed implements BRB with digital signatures (after Malkhi & Reiter),
// the broadcast layer of Astro II (paper §IV-A, Listing 6).
//
// Per instance: the origin PREPAREs the payload to all replicas; each
// replica signs an ACK for the first payload it sees for the instance
// (subject to the validator) and unicasts it back to the origin; on
// gathering a Byzantine quorum (2f+1) of valid ACKs the origin sends a
// COMMIT carrying the payload and the aggregated certificate; replicas
// verify the certificate and deliver, in per-origin slot order.
//
// Message complexity is O(N) — the all-to-all phases of Bracha are
// replaced by unicasts to and from the origin — at the price of signature
// computation. The protocol does not provide totality: if the origin is
// faulty, some correct replicas may deliver while others never do. Astro II
// compensates at the payment layer with CREDIT dependency certificates.
//
// Signature computation — the dominant CPU cost of the protocol, which
// the paper amortizes with 256-payment batches (§VI-A) — never runs on a
// transport dispatch goroutine, in either direction:
//
//   - ack *signing* is queued and drained by a single logical signer on
//     the verifier pool. While one ECDSA is in flight, further prepares
//     accumulate; the drain then signs them all with ONE signature over a
//     hash chain of the pending instances (see ackchain.go), so signing
//     cost per instance shrinks with load — the sign-side analogue of the
//     paper's batch amortization. A lone pending ack keeps the single-slot
//     wire form;
//   - ack signatures arriving at the origin are checked asynchronously and
//     re-enter the state machine through a completion callback; a chain
//     signature is checked once for all the instances it endorses;
//   - commit certificates verify continuation-style: the payload hash and
//     the certificate filtering run on a verifier task, the signature
//     checks fan out with early exit, and the completion callback
//     re-enters the FIFO delivery drain on whichever lane settles the
//     tally — no goroutine is spawned per commit. A saturated pool runs
//     the task on the dispatch goroutine instead, which is the
//     backpressure that bounds in-flight commits. Chain signatures inside
//     certificates hit the verifier memo, so a chain of k slots costs one
//     ECDSA across all k commits carrying it.
//
// Because verifications may complete out of order, deliveries are staged
// through the per-origin FIFO under the instance lock and then drained by
// a single logical deliverer, so the Deliver callback still observes the
// paper's per-origin slot order.
type Signed struct {
	cfg Config
	ver *verifier.Verifier

	mu      sync.Mutex
	nextOut uint64
	mine    map[uint64]*outInstance   // my broadcasts, by slot: uncommitted, or recently committed
	acked   map[instanceID]*ackRecord // instances I have acknowledged
	// retiring lists the committed slots of mine, oldest first, and
	// retiringBytes sums their payloads. A committed slot is kept only to
	// answer CHAINNACKs, which a receiver sends the moment the commit
	// reaches it — so it can be asked about for as long as the commit may
	// still sit in a buffer on its way there. The oldest are dropped once
	// the kept payloads exceed retainBytes (and chainCacheEntries slots
	// remain), so payload copies and certificates no longer pile up for
	// the life of the process.
	retiring      []uint64
	retiringBytes int
	retainBytes   int
	order         *fifo
	// committing marks instances with a certificate verification in
	// flight, so re-delivered commits don't spawn duplicate work.
	committing map[instanceID]struct{}
	// deliverQ and delivering serialize the Deliver callback: whichever
	// completion appends first drains the queue, so deliveries exit in
	// exactly the order the FIFO released them even when certificate
	// verifications finish out of order.
	deliverQ   []delivery
	delivering bool

	// ackSigner queues acks awaiting signature and drains them on the
	// pool, collapsing acks that accumulate while an ECDSA is in flight
	// into one chain signature. The scheduling lives in
	// verifier.ChainSigner; this layer supplies the wire forms.
	ackSigner *verifier.ChainSigner[ChainEntry]

	// Chain-by-digest reference state (see chainref.go): chainsKnown holds,
	// per sending peer, the chains that peer has defined, bounded so no
	// peer can evict another's entries.
	chainMu     sync.Mutex
	chainsKnown *types.PeerCache[[]ChainEntry]
	// refsWaiting parks COMMITREFs whose chain definition is in flight
	// (lazy CHAINDEF): keyed by missing digest, drained by learnChain,
	// bounded by maxWaitingRefs. Guarded by chainMu.
	refsWaiting      map[types.Digest][]pendingRef
	refsWaitingCount int
	refStats         types.RefCounters
}

var _ Broadcaster = (*Signed)(nil)

type outInstance struct {
	payload   []byte
	digest    types.Digest
	cert      AckCert
	committed bool
}

type ackRecord struct {
	digest    types.Digest
	delivered bool
}

// committedRetainBytes is how much committed payload an origin keeps for
// CHAINNACK answers. A receiver's NACK trails the commit by whatever was
// queued ahead of it: kernel socket buffers (a few MiB per direction at
// Linux's autotuning limits) and the bounded dispatch queues. A count of
// slots cannot stand in for that — a burst of 256 slots commits as one,
// and the NACKs for its first slots arrive after all 256 commits.
const committedRetainBytes = 16 << 20

// Errors specific to the signed protocol.
var ErrNoKeys = errors.New("brb: signed protocol requires Keys and Registry")

// NewSigned creates the protocol instance and registers it on the mux's
// BRB channel.
func NewSigned(cfg Config) (*Signed, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Keys == nil || cfg.Registry == nil {
		return nil, ErrNoKeys
	}
	ver := cfg.Verifier
	if ver == nil {
		ver = verifier.Default()
	}
	s := &Signed{
		cfg:         cfg,
		ver:         ver,
		nextOut:     cfg.FirstSlot,
		mine:        make(map[uint64]*outInstance),
		acked:       make(map[instanceID]*ackRecord),
		order:       newFIFO(),
		committing:  make(map[instanceID]struct{}),
		chainsKnown: types.NewPeerCache[[]ChainEntry](chainCacheEntries),
		refsWaiting: make(map[types.Digest][]pendingRef),
		retainBytes: committedRetainBytes,
	}
	s.ackSigner = verifier.NewChainSigner(ver, maxSignBatch, s.signSingleAck, s.signAckChain)
	cfg.Mux.Register(transport.ChanBRB, s.onMessage)
	return s, nil
}

// Broadcast implements Broadcaster.
func (s *Signed) Broadcast(payload []byte) (uint64, error) {
	s.mu.Lock()
	s.nextOut++
	slot := s.nextOut
	buf := make([]byte, len(payload))
	copy(buf, payload)
	s.mine[slot] = &outInstance{
		payload: buf,
		digest:  SignedDigest(s.cfg.Self, slot, payload),
	}
	s.mu.Unlock()

	w := wire.AcquireWriter(payloadMsgSize(payload))
	appendPayloadMsg(w, kindPrepare, s.cfg.Self, slot, payload)
	for _, p := range s.cfg.Peers {
		_ = s.cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanBRB, w.Bytes())
	}
	w.Release()
	return slot, nil
}

// Rebroadcast re-runs the PREPARE phase for a slot this replica reserved
// before a crash, with the exact payload recorded in its WAL. The slot
// must be at most Config.FirstSlot (a reservation from the previous
// incarnation); peers that already acknowledged the identical digest
// re-ack it, so the protocol completes even though the first PREPARE wave
// reached some of them.
func (s *Signed) Rebroadcast(slot uint64, payload []byte) {
	s.mu.Lock()
	if slot > s.nextOut || s.mine[slot] != nil {
		s.mu.Unlock()
		return
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	s.mine[slot] = &outInstance{
		payload: buf,
		digest:  SignedDigest(s.cfg.Self, slot, payload),
	}
	s.mu.Unlock()

	w := wire.AcquireWriter(payloadMsgSize(payload))
	appendPayloadMsg(w, kindPrepare, s.cfg.Self, slot, payload)
	for _, p := range s.cfg.Peers {
		_ = s.cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanBRB, w.Bytes())
	}
	w.Release()
}

// Delivered implements Broadcaster.
func (s *Signed) Delivered(origin types.ReplicaID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.delivered[origin]
}

func (s *Signed) onMessage(from transport.NodeID, payload []byte) {
	peer := types.ReplicaID(from)
	r := wire.NewReader(payload)
	kind := r.U8()
	if r.Err() != nil {
		return
	}
	if kind == kindAckBatch {
		// Chain-signed acks carry no instance header: the chain itself
		// names every instance the signature endorses.
		chain, err := decodeChain(r)
		if err != nil {
			return
		}
		sig := r.Chunk()
		if r.Err() != nil || len(chain) == 0 {
			return
		}
		s.handleAckBatch(peer, chain, sig)
		return
	}
	if kind == kindChainDef {
		// A chain definition carries no instance header either: it is
		// content-addressed, keyed by the digest the receiver recomputes.
		// Only group members may define chains: the per-peer caches are
		// bounded individually, and membership bounds how many exist.
		if !s.membership(peer) {
			return
		}
		chain, err := decodeChainDef(r)
		if err != nil {
			return
		}
		s.learnChain(peer, AckChainDigest(chain), chain)
		return
	}
	origin := types.ReplicaID(r.U32())
	slot := r.U64()
	if r.Err() != nil {
		return
	}
	id := instanceID{origin: origin, slot: slot}
	switch kind {
	case kindPrepare:
		if peer != origin {
			return // spoofed prepare
		}
		body := r.Chunk()
		if r.Err() != nil {
			return
		}
		s.handlePrepare(id, body)
	case kindAck:
		digest := r.Bytes32()
		sig := r.Chunk()
		if r.Err() != nil {
			return
		}
		s.handleAck(id, peer, digest, sig)
	case kindCommitTab:
		body := r.Chunk()
		if r.Err() != nil {
			return
		}
		cert, table, digests, err := decodeCommitTab(r)
		if err != nil {
			return
		}
		// The table is hashed once by the decoder; feed it to the chain
		// cache (membership-gated, like CHAINDEF) so later COMMITREFs
		// referencing these chains resolve, and so any references parked
		// waiting on one of them drain now — the tabled form is the lazy
		// mode's self-contained fallback resend.
		if s.membership(peer) {
			for i := range table {
				s.learnChain(peer, digests[i], table[i])
			}
		}
		s.handleCommit(id, body, cert)
	case kindCommitRef:
		body := r.Chunk()
		if r.Err() != nil {
			return
		}
		sigs, err := decodeCommitRef(r)
		if err != nil {
			return
		}
		s.handleCommitRef(id, peer, body, sigs)
	case kindChainNack:
		missing, err := decodeChainNack(r)
		if err != nil {
			return
		}
		s.handleChainNack(id, peer, missing)
	}
}

// handlePrepare acknowledges the first (and only the first) payload seen
// for the instance — the equivocation check of Listing 6. The ack is not
// signed here: it is queued for the pool-side signer, so the dispatch
// goroutine never executes an ECDSA.
func (s *Signed) handlePrepare(id instanceID, payload []byte) {
	d := SignedDigest(id.origin, id.slot, payload)

	s.mu.Lock()
	if rec, seen := s.acked[id]; seen {
		resend := rec.digest == d
		s.mu.Unlock()
		if resend {
			// Identical re-prepare: the origin is recovering from a crash
			// and re-running the PREPARE phase (Rebroadcast). Our previous
			// ack — possibly lost with the origin's memory — endorsed this
			// exact digest, so re-signing it grants nothing new; without
			// the re-ack a rebroadcast slot could never gather its quorum.
			// The validator is skipped: it ran (and passed) the first time,
			// and re-running it against replayed endorsement state would
			// wrongly flag the batch's payments as double-spends.
			s.ackSigner.Enqueue(ChainEntry{Origin: id.origin, Slot: id.slot, Digest: d})
		}
		return // conflicting payload for an acked instance: stay silent
	}
	s.mu.Unlock()

	// The validator runs outside the instance lock: the payment layer's
	// hook verifies a whole batch of client signatures on the pool and
	// blocks for the results, and completion callbacks taking s.mu must
	// stay able to run meanwhile.
	if s.cfg.Validator != nil && !s.cfg.Validator(id.origin, id.slot, payload) {
		return
	}

	s.mu.Lock()
	if _, seen := s.acked[id]; seen {
		// A commit for this instance finished verifying while the
		// validator ran; its record wins and this replica stays silent.
		s.mu.Unlock()
		return
	}
	s.acked[id] = &ackRecord{digest: d}
	s.mu.Unlock()

	// Blocking submission: under a saturated pool this stalls the BRB
	// channel (backpressure), but the signature itself still runs on a
	// worker — never on this goroutine.
	s.ackSigner.Enqueue(ChainEntry{Origin: id.origin, Slot: id.slot, Digest: d})
}

// signSingleAck signs one pending ack in the single-slot wire form
// (ChainSigner flush callback, pool side).
func (s *Signed) signSingleAck(e ChainEntry) {
	sig, err := s.ackSigner.Sign(1, func() ([]byte, error) { return s.cfg.Keys.Sign(e.Digest) })
	if err != nil {
		return // entropy failure; withholding an ack is always safe
	}
	s.ver.PrimeReplica(s.cfg.Self, e.Digest, sig)
	w := wire.AcquireWriter(ackSize(sig))
	appendAck(w, e.Origin, e.Slot, e.Digest, sig)
	_ = s.cfg.Mux.Send(transport.ReplicaNode(e.Origin), transport.ChanBRB, w.Bytes())
	w.Release()
}

// signAckChain signs a batch of pending acks with one chain signature,
// unicast to every origin the chain touches (ChainSigner flush callback).
// The ACKBATCH — chain included — is encoded once into the wave's shared
// scratch and the same bytes go to every destination.
func (s *Signed) signAckChain(batch []ChainEntry, wave *verifier.Wave) {
	cd := AckChainDigest(batch)
	sig, err := s.ackSigner.Sign(len(batch), func() ([]byte, error) { return s.cfg.Keys.Sign(cd) })
	if err != nil {
		return
	}
	s.ver.PrimeReplica(s.cfg.Self, cd, sig)
	// Self-prime: cache our own chain before any origin's commit can
	// reference it. Under lazy CHAINDEF this is what makes most
	// definitions unnecessary — every receiver already holds the chains it
	// signed, so references to them never NACK. The ChainSigner's drain
	// hands the flush callback ownership of the batch slice, so caching it
	// without a copy is safe.
	s.learnChain(s.cfg.Self, cd, batch)
	w := wave.Scratch(ackBatchSize(batch, sig))
	appendAckBatch(w, batch, sig)
	sent := make(map[types.ReplicaID]struct{}, 4)
	for _, e := range batch {
		if _, dup := sent[e.Origin]; dup {
			continue
		}
		sent[e.Origin] = struct{}{}
		_ = s.cfg.Mux.Send(transport.ReplicaNode(e.Origin), transport.ChanBRB, w.Bytes())
	}
}

// handleAck runs at the origin: it performs the cheap instance checks
// inline, then hands the signature to the verifier pool. Certificate
// assembly — and the COMMIT, once a quorum accrues — happens in the
// completion callback.
func (s *Signed) handleAck(id instanceID, peer types.ReplicaID, digest types.Digest, sig []byte) {
	if id.origin != s.cfg.Self {
		return // ack for someone else's instance; misdirected
	}

	s.mu.Lock()
	out := s.mine[id.slot]
	if out == nil || out.committed || digest != out.digest {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	// Signature checks dominate CPU cost: run them on the pool, off the
	// dispatch goroutine and outside the instance lock. Re-sent acks hit
	// the verifier's memo and resolve inline.
	s.ver.VerifyReplicaDetached(s.cfg.Registry, peer, digest, sig, func(ok bool) {
		if ok {
			s.ackVerified(id, peer, digest, sig, nil, types.Digest{})
		}
	})
}

// handleAckBatch runs at each origin a chain touches: find the entries
// addressed to my in-flight instances, then verify the one chain
// signature on the pool and credit every covered instance from the
// completion callback. The chain digest is memoized, so the ECDSA runs
// once however many instances (or redeliveries) the chain covers.
func (s *Signed) handleAckBatch(peer types.ReplicaID, chain []ChainEntry, sig []byte) {
	// Cache the acker's chain like an unsolicited CHAINDEF (same
	// membership gate, same content-addressed soundness — the digest is
	// recomputed from the bytes in hand). Under lazy CHAINDEF this is
	// the second half of the no-NACK steady state: when every replica
	// originates traffic, every chain touches every origin, so each
	// replica learns each acker's chain here before any COMMITREF can
	// reference it.
	cd := AckChainDigest(chain)
	if s.membership(peer) {
		s.learnChain(peer, cd, chain)
	}
	var relevant []ChainEntry
	s.mu.Lock()
	for _, e := range chain {
		if e.Origin != s.cfg.Self {
			continue
		}
		out := s.mine[e.Slot]
		if out == nil || out.committed || e.Digest != out.digest || out.cert.Has(peer) {
			continue
		}
		relevant = append(relevant, e)
	}
	s.mu.Unlock()
	if len(relevant) == 0 {
		return
	}
	s.ver.VerifyReplicaDetached(s.cfg.Registry, peer, cd, sig, func(ok bool) {
		if !ok {
			return
		}
		for _, e := range relevant {
			s.ackVerified(instanceID{origin: e.Origin, slot: e.Slot}, peer, e.Digest, sig, chain, cd)
		}
	})
}

// ackVerified re-enters the state machine after an ack signature checks
// out: record it (with its chain context, if batch-signed), and commit on
// reaching the quorum.
func (s *Signed) ackVerified(id instanceID, peer types.ReplicaID, digest types.Digest, sig []byte, chain []ChainEntry, chainDigest types.Digest) {
	s.mu.Lock()
	out := s.mine[id.slot]
	if out == nil || out.committed || digest != out.digest || out.cert.Has(peer) {
		s.mu.Unlock()
		return
	}
	out.cert.Sigs = append(out.cert.Sigs, AckSig{Replica: peer, Sig: sig, Chain: chain, ChainDigest: chainDigest})
	commit := out.cert.Len() >= s.cfg.quorum()
	if commit {
		out.committed = true
		s.retiring = append(s.retiring, id.slot)
		s.retiringBytes += len(out.payload)
		for len(s.retiring) > chainCacheEntries && s.retiringBytes > s.retainBytes {
			oldest := s.retiring[0]
			s.retiring = s.retiring[1:]
			s.retiringBytes -= len(s.mine[oldest].payload)
			delete(s.mine, oldest)
		}
	}
	payload := out.payload
	cert := out.cert
	s.mu.Unlock()

	if commit {
		s.sendCommit(id, payload, digest, cert)
	}
}

// defChain is one distinct chain named by a commit certificate, with its
// CHAINDEF encoding built lazily and shared across destinations.
type defChain struct {
	digest types.Digest
	chain  []ChainEntry
	enc    []byte
}

// buildRefSigs converts a certificate to the reference form and collects
// the distinct chains it names. Every chain signature records this
// instance's index in its chain, so receivers locate the entry in O(1)
// (the digest binding is still confirmed against the payload hash during
// verification); a single-slot signature stays plain. ok is false when a
// chain does not carry this instance's entry — the defensive case the
// reference form cannot express, which handleAckBatch's filtering should
// make unreachable.
func (s *Signed) buildRefSigs(id instanceID, digest types.Digest, cert AckCert) (sigs []refSig, defs []defChain, ok bool) {
	sigs = make([]refSig, 0, len(cert.Sigs))
	for _, a := range cert.Sigs {
		if a.Chain == nil {
			sigs = append(sigs, refSig{Replica: a.Replica, Sig: a.Sig})
			continue
		}
		idx := -1
		for i, e := range a.Chain {
			if e.Origin == id.origin && e.Slot == id.slot && e.Digest == digest {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, nil, false
		}
		sigs = append(sigs, refSig{Replica: a.Replica, Sig: a.Sig, HasRef: true, Ref: a.ChainDigest, Idx: uint32(idx)})
		known := false
		for _, d := range defs {
			if d.digest == a.ChainDigest {
				known = true
				break
			}
		}
		if !known {
			defs = append(defs, defChain{digest: a.ChainDigest, chain: a.Chain})
		}
	}
	return sigs, defs, true
}

// sendCommit broadcasts the commit for an instance whose quorum is
// complete as a COMMITREF, encoded once (it is destination-independent).
// Chain definitions are withheld (lazy CHAINDEF) — receivers already know
// their own chains and any chain learned from any peer, and demand the
// rest by NACK (handleChainNack answers with the definition; most never
// ask). A certificate of single-slot signatures names no chain and never
// draws a NACK.
func (s *Signed) sendCommit(id instanceID, payload []byte, digest types.Digest, cert AckCert) {
	sigs, _, ok := s.buildRefSigs(id, digest, cert)
	if !ok {
		// A chain that does not endorse this instance never enters the
		// certificate (handleAckBatch filters); if one did, referencing it
		// would be unverifiable — fall back to the self-contained form.
		s.sendCommitFull(id, payload, cert, s.cfg.Peers...)
		return
	}

	ref := wire.AcquireWriter(commitRefSize(payload, sigs))
	appendCommitRef(ref, id.origin, id.slot, payload, sigs)
	for _, p := range s.cfg.Peers {
		_ = s.cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanBRB, ref.Bytes())
		s.refStats.RefsSent.Add(1)
	}
	ref.Release()
}

// sendCommitFull sends the self-contained COMMITTAB of a commit to the
// given destinations — the NACK fallback, and the defensive path for
// certificates the reference form cannot express.
func (s *Signed) sendCommitFull(id instanceID, payload []byte, cert AckCert, dests ...types.ReplicaID) {
	table, idxs := commitChainTable(cert)
	w := wire.AcquireWriter(commitTabSize(payload, table, cert))
	appendCommitTab(w, id.origin, id.slot, payload, table, cert, idxs)
	for _, p := range dests {
		_ = s.cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanBRB, w.Bytes())
		s.refStats.FullSends.Add(1)
	}
	w.Release()
}

// beginCommit performs the cheap duplicate checks for an incoming commit
// and marks the instance's verification in flight. It reports whether the
// caller should proceed.
func (s *Signed) beginCommit(id instanceID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec := s.acked[id]; rec != nil && rec.delivered {
		return false
	}
	if _, busy := s.committing[id]; busy {
		return false // a verification for this instance is already in flight
	}
	s.committing[id] = struct{}{}
	return true
}

// handleCommit performs the cheap duplicate checks inline, then verifies
// the certificate continuation-style: the digest hash runs on a verifier
// task, the signature checks fan out with 2f+1 early exit, and the
// completion callback re-enters the FIFO delivery drain — zero goroutines
// per commit. Chain signatures verify against their chain digest (once,
// memoized, for all the commits a chain covers) and count toward the
// quorum only if the chain actually carries this instance's entry.
func (s *Signed) handleCommit(id instanceID, payload []byte, cert AckCert) {
	if !s.beginCommit(id) {
		return
	}
	s.ver.TryAsync(func() {
		// On a verifier lane (or inline under a saturated pool — the
		// natural backpressure; TryAsync rather than Async because commits
		// can arrive via the parked-reference drain, which runs on a pool
		// worker, and a blocking enqueue there could wedge a full queue
		// against itself): hash the payload and start the tally. The
		// continuation may fire inline right here (memo hits, structural
		// failure) or on whichever lane casts the deciding vote; either
		// way commitVerified only takes s.mu and drains deliveries — it
		// never waits on the verifier, per the continuation discipline.
		d := SignedDigest(id.origin, id.slot, payload)
		s.verifyAckCertDetached(id, d, cert, func(ok bool) {
			s.commitVerified(id, d, payload, ok)
		})
	})
}

// handleCommitRef resolves a chain-referencing commit against the per-peer
// chain cache and, when enough references resolve for a quorum, verifies
// it like any commit. When resolution leaves the quorum out of reach — an
// evicted or never-seen chain — it NACKs the missing digests back to the
// sender, which answers with the definitions or the self-contained
// COMMITTAB; the reference protocol can delay a delivery by one round
// trip, never prevent it.
func (s *Signed) handleCommitRef(id instanceID, peer types.ReplicaID, payload []byte, sigs []refSig) {
	cert := AckCert{Sigs: make([]AckSig, 0, len(sigs))}
	var missing []types.Digest
	var missingSet map[types.Digest]struct{}
	for _, rs := range sigs {
		if !rs.HasRef {
			cert.Sigs = append(cert.Sigs, AckSig{Replica: rs.Replica, Sig: rs.Sig})
			continue
		}
		chain, ok := s.knownChain(peer, rs.Ref)
		if !ok {
			s.refStats.RefMisses.Add(1)
			// One quorum usually references one chain; name each digest
			// once, and stop collecting at the NACK bound up front — the
			// answer to ANY named digest re-supplies the commit, so a
			// hostile reference list buys neither an overlong NACK nor a
			// quadratic dedup scan.
			if missingSet == nil {
				missingSet = make(map[types.Digest]struct{}, 4)
			}
			if _, dup := missingSet[rs.Ref]; !dup && len(missing) < maxNackDigests {
				missingSet[rs.Ref] = struct{}{}
				missing = append(missing, rs.Ref)
			}
			continue
		}
		s.refStats.RefHits.Add(1)
		// The carried index locates this instance's entry in O(1): a
		// reference whose indexed entry names another instance cannot
		// endorse this one, and is dropped before any verification work.
		// The entry's digest is bound later, by ackCertItems, against
		// the payload hash computed off this dispatch goroutine.
		if int(rs.Idx) >= len(chain) {
			continue // reference cannot be valid; treat as no endorsement
		}
		if e := chain[rs.Idx]; e.Origin != id.origin || e.Slot != id.slot {
			continue // indexed entry is for another instance
		}
		cert.Sigs = append(cert.Sigs, AckSig{Replica: rs.Replica, Sig: rs.Sig, Chain: chain, ChainDigest: rs.Ref})
	}
	if len(missing) > 0 && len(cert.Sigs) < s.cfg.quorum() {
		// Not deliverable from what we have. Skip the NACK when the
		// instance is already delivered or mid-verification — a duplicate
		// needs no resend.
		s.mu.Lock()
		rec := s.acked[id]
		_, busy := s.committing[id]
		done := busy || (rec != nil && rec.delivered)
		s.mu.Unlock()
		if done {
			return
		}
		// Park the reference on its LAST missing digest — a NACK is
		// answered with definitions in certificate order, so by the time
		// the last one lands and learnChain re-runs the parked reference,
		// the earlier ones are already cached and the re-run resolves
		// outright instead of re-parking per digest. Only the digest's
		// first waiter from each sender NACKs; that sender's followers
		// ride the same answer. A parked reference evicted by the bound
		// falls back to the NACK round trip, so delivery never depends on
		// buffer capacity.
		parked, nack := s.parkRef(missing[len(missing)-1], pendingRef{id: id, peer: peer, payload: payload, sigs: sigs})
		if parked && !nack {
			return
		}
		w := wire.AcquireWriter(chainNackSize(missing))
		appendChainNack(w, id.origin, id.slot, missing)
		_ = s.cfg.Mux.Send(transport.ReplicaNode(peer), transport.ChanBRB, w.Bytes())
		w.Release()
		s.refStats.NacksSent.Add(1)
		return
	}
	s.handleCommit(id, payload, cert)
}

// handleChainNack runs at the origin: a destination could not resolve
// chain references for one of our commits. This is the demand path of
// lazy CHAINDEF: answer with exactly the CHAINDEFs the receiver named,
// followed by the COMMITREF again, on the same FIFO channel. When a named
// digest is not one of this commit's chains (a stale NACK about an
// earlier wave) degrade to the self-contained resend.
func (s *Signed) handleChainNack(id instanceID, peer types.ReplicaID, missing []types.Digest) {
	if id.origin != s.cfg.Self {
		return // we only resend our own commits
	}
	// Only group members receive commits, so only they can legitimately
	// miss a chain; gating here keeps the resend amplification (a 37-byte
	// NACK answered with definitions or a complete commit) reachable by
	// group members alone.
	if !s.membership(peer) {
		return
	}
	s.refStats.NacksReceived.Add(1)
	s.mu.Lock()
	out := s.mine[id.slot]
	if out == nil || !out.committed {
		s.mu.Unlock()
		return
	}
	payload, digest, cert := out.payload, out.digest, out.cert
	s.mu.Unlock()
	if s.answerNackWithDefs(id, peer, payload, digest, cert, missing) {
		return
	}
	s.sendCommitFull(id, payload, cert, peer)
}

// answerNackWithDefs serves a demand: when every digest the
// receiver named is one of this commit's certificate chains, send those
// CHAINDEFs and then the COMMITREF again — FIFO ordering guarantees the
// definitions land first, and learnChain on the receiver re-runs any
// references parked meanwhile. Reports false when a named digest is not
// servable from this certificate (the caller falls back to the
// self-contained form, which answers everything).
func (s *Signed) answerNackWithDefs(id instanceID, peer types.ReplicaID, payload []byte, digest types.Digest, cert AckCert, missing []types.Digest) bool {
	sigs, defs, ok := s.buildRefSigs(id, digest, cert)
	if !ok {
		return false
	}
	for _, m := range missing {
		found := false
		for i := range defs {
			if defs[i].digest == m {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	dest := transport.ReplicaNode(peer)
	for i := range defs {
		demanded := false
		for _, m := range missing {
			if defs[i].digest == m {
				demanded = true
				break
			}
		}
		if !demanded {
			continue // the receiver has this one; it named what it lacks
		}
		if defs[i].enc == nil {
			defs[i].enc = EncodeChainDef(defs[i].chain)
		}
		_ = s.cfg.Mux.Send(dest, transport.ChanBRB, defs[i].enc)
		s.refStats.DefsDemanded.Add(1)
	}
	ref := wire.AcquireWriter(commitRefSize(payload, sigs))
	appendCommitRef(ref, id.origin, id.slot, payload, sigs)
	_ = s.cfg.Mux.Send(dest, transport.ChanBRB, ref.Bytes())
	ref.Release()
	s.refStats.RefsSent.Add(1)
	return true
}

// ackCertItem is one (replica, digest, sig) triple of a certificate left
// to verify after ackCertItems' filtering.
type ackCertItem struct {
	replica types.ReplicaID
	digest  types.Digest
	sig     []byte
}

// ackCertItems performs the cheap serial filtering of a certificate —
// dedupe, membership, chain endorsement, chain-digest memoization. A
// quorum of valid endorsements of (id, d) among the returned items is
// exactly what the protocol needs: extra invalid or irrelevant signatures
// are ignored and duplicate signers count once.
func (s *Signed) ackCertItems(id instanceID, d types.Digest, cert AckCert) []ackCertItem {
	seen := make(map[types.ReplicaID]struct{}, len(cert.Sigs))
	items := make([]ackCertItem, 0, len(cert.Sigs))
	for _, a := range cert.Sigs {
		if _, dup := seen[a.Replica]; dup {
			continue
		}
		if !s.membership(a.Replica) {
			continue
		}
		dg := d
		if a.Chain != nil {
			if !chainContains(a.Chain, id, d) {
				continue // chain does not endorse this instance
			}
			dg = a.chainDigest()
		}
		seen[a.Replica] = struct{}{}
		items = append(items, ackCertItem{replica: a.Replica, digest: dg, sig: a.Sig})
	}
	return items
}

// verifyAckCertDetached checks a certificate continuation-style: cb fires
// exactly once with the quorum verdict, inline when memo hits settle it
// during the fan-out loop, otherwise on the goroutine casting the deciding
// vote.
// Exactly-once follows from the CertTally arithmetic: every item votes,
// and fewer than `need` valid votes forces more invalid ones than the
// budget tolerates.
func (s *Signed) verifyAckCertDetached(id instanceID, d types.Digest, cert AckCert, cb func(bool)) {
	need := s.cfg.quorum()
	items := s.ackCertItems(id, d, cert)
	if len(items) < need {
		cb(false)
		return
	}
	t := verifier.NewCertTally(need, len(items)-need, cb)
	for _, it := range items {
		if t.Done() {
			return // settled by memo hits mid-loop; remaining checks moot
		}
		s.ver.VerifyReplicaDetached(s.cfg.Registry, it.replica, it.digest, it.sig, t.Vote)
	}
}

// commitVerified re-enters the state machine after certificate
// verification: on success it marks the instance delivered, releases the
// consecutive run from the per-origin FIFO, and drains the delivery queue.
// A failed verification only clears the in-flight marker, so a later
// well-formed commit for the instance can still be processed.
func (s *Signed) commitVerified(id instanceID, d types.Digest, payload []byte, ok bool) {
	s.mu.Lock()
	delete(s.committing, id)
	if !ok {
		s.mu.Unlock()
		return // invalid or insufficient certificate
	}
	rec := s.acked[id]
	if rec == nil {
		rec = &ackRecord{digest: d}
		s.acked[id] = rec
	}
	if rec.delivered {
		s.mu.Unlock()
		return
	}
	rec.delivered = true
	if s.cfg.Unordered {
		// Recovery mode: deliver in arrival order. Slots the replica
		// missed while down will never be retransmitted, so waiting for a
		// consecutive run would wedge the origin forever; the payment
		// layer orders by client sequence number on its own. rec.delivered
		// above already dedups; the high-water mark keeps Delivered()
		// meaningful.
		if id.slot > s.order.delivered[id.origin] {
			s.order.delivered[id.origin] = id.slot
		}
		s.deliverQ = append(s.deliverQ, delivery{origin: id.origin, slot: id.slot, payload: payload})
	} else {
		s.deliverQ = append(s.deliverQ, s.order.ready(id, payload)...)
	}
	if s.delivering {
		// Another completion is draining; it will pick these up, in order.
		s.mu.Unlock()
		return
	}
	s.delivering = true
	for len(s.deliverQ) > 0 {
		batch := s.deliverQ
		s.deliverQ = nil
		s.mu.Unlock()
		for _, dv := range batch {
			s.cfg.Deliver(dv.origin, dv.slot, dv.payload)
		}
		s.mu.Lock()
	}
	s.delivering = false
	s.mu.Unlock()
}

func (s *Signed) membership(id types.ReplicaID) bool {
	for _, p := range s.cfg.Peers {
		if p == id {
			return true
		}
	}
	return false
}

// AckSignStats returns how many signing operations this replica has spent
// on acks and how many acks they covered. acks/ops > 1 means chain
// batching engaged (one ECDSA endorsing several instances).
func (s *Signed) AckSignStats() (ops, acks uint64) {
	return s.ackSigner.Stats()
}

// ChainRefStats returns the chain-reference protocol counters: CHAINDEFs
// and COMMITREFs sent, cache hits and misses on inbound references, and
// NACK fallback traffic.
func (s *Signed) ChainRefStats() ChainRefStats {
	return s.refStats.Snapshot()
}

// String implements fmt.Stringer for diagnostics.
func (s *Signed) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("signedbrb{self=%d peers=%d f=%d out=%d}", s.cfg.Self, len(s.cfg.Peers), s.cfg.F, s.nextOut)
}
