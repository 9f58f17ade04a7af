package brb

import (
	"errors"
	"fmt"
	"sync"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// Signed implements BRB with digital signatures (after Malkhi & Reiter),
// the broadcast layer of Astro II (paper §IV-A, Listing 6).
//
// Per instance: the origin PREPAREs the payload to every other replica,
// each copy carrying the origin's link tag over the ack digest. The tag
// is keyed by ECDH between the origin's key pair and the receiver's
// (crypto.NewKeyedLinkAuthenticator), so no third replica can make it. A
// replica signs an ACK only for a PREPARE whose tag checks, and only for
// the first payload it sees for the instance (subject to the validator),
// and unicasts it back to the origin. The origin does not ack its own
// instance: its tagged PREPARE is its endorsement. On gathering
// CertQuorum valid ACKs (2f at N = 3f+1) from distinct members other than
// itself, the origin sends the other replicas one COMMIT — the
// self-contained COMMITTAB, carrying the payload and the certificate with
// every chain it names tabled inline, so a receiver needs nothing else to
// verify it — and delivers its own copy by a direct call into the
// per-origin FIFO. Replicas verify the certificate — an origin signature
// in it counts for nothing — and deliver, in per-origin slot order; a
// COMMIT in a replica's own name from the network is dropped.
//
// Why CertQuorum suffices: any two certificates for one instance share at
// least f of the N-1 non-origin members. A faulty origin leaves at most
// f-1 faulty among those, so the two share a correct acker, which acks one
// digest only. A correct origin tags one payload per slot, and a
// certificate holds more than f acks (at least one whenever the group has
// other members), so at least one is from a correct replica that acks
// only what the origin's tag vouches for.
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
//     the verifier pool. Every drain signs what is pending with ONE
//     signature over a hash chain of the pending instances (see
//     ackchain.go) — a lone ack is a chain of one. While one ECDSA is in
//     flight, further prepares accumulate into the next chain, so signing
//     cost per instance shrinks with load — the sign-side analogue of the
//     paper's batch amortization;
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

	others []types.ReplicaID // Config.others: where PREPAREs and COMMITs go
	// tags keys PREPARE tags by ECDH between this replica's key pair and
	// each peer's registered key, so only the two ends of a link can tag.
	tags *crypto.LinkAuthenticator

	mu      sync.Mutex
	nextOut uint64
	mine    map[uint64]*outInstance   // my uncommitted broadcasts, by slot
	acked   map[instanceID]*ackRecord // instances I have acknowledged
	order   *fifo
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
	// pool, signing the acks pending at each pass as one chain. The
	// scheduling lives in verifier.ChainSigner; this layer supplies the
	// wire form.
	ackSigner *verifier.ChainSigner[ChainEntry]
}

var _ Broadcaster = (*Signed)(nil)

type outInstance struct {
	payload []byte
	digest  types.Digest
	cert    AckCert
}

type ackRecord struct {
	digest    types.Digest
	delivered bool
}

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
		cfg:        cfg,
		ver:        ver,
		nextOut:    cfg.FirstSlot,
		mine:       make(map[uint64]*outInstance),
		acked:      make(map[instanceID]*ackRecord),
		order:      newFIFO(),
		committing: make(map[instanceID]struct{}),
		others:     cfg.others(),
		tags:       crypto.NewKeyedLinkAuthenticator(cfg.Self, cfg.Keys, cfg.Registry),
	}
	s.ackSigner = verifier.NewChainSigner(ver, maxSignBatch, s.signAckChain)
	// One ECDH per link keys the PREPARE tags; derive them on the pool
	// now rather than on the first PREPARE each way.
	ver.TryAsync(func() {
		for _, p := range s.others {
			s.tags.Derive(p)
		}
	})
	cfg.Mux.Register(transport.ChanBRB, s.onMessage)
	return s, nil
}

// Broadcast implements Broadcaster.
func (s *Signed) Broadcast(payload []byte) (uint64, error) {
	s.mu.Lock()
	s.nextOut++
	slot := s.nextOut
	s.mu.Unlock()
	s.prepare(slot, payload)
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
	stale := slot > s.nextOut || s.mine[slot] != nil
	s.mu.Unlock()
	if !stale {
		s.prepare(slot, payload)
	}
}

// prepare opens one of this replica's instances: it records a copy of the
// payload and sends every other member a PREPARE tagged for that member.
// The message is encoded once; only its trailing tag differs per
// destination.
func (s *Signed) prepare(slot uint64, payload []byte) {
	buf := make([]byte, len(payload))
	copy(buf, payload)
	d := SignedDigest(s.cfg.Self, slot, payload)
	id := instanceID{origin: s.cfg.Self, slot: slot}
	out := &outInstance{payload: buf, digest: d}
	s.mu.Lock()
	s.mine[slot] = out
	s.mu.Unlock()

	w := wire.AcquireWriter(payloadMsgSize(payload) + prepareTagSize)
	appendSignedPrepare(w, s.cfg.Self, slot, payload)
	msg := w.Bytes()
	for _, p := range s.others {
		setPrepareTag(msg, s.tags, p, d)
		_ = s.cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanBRB, msg)
	}
	w.Release()

	if s.cfg.certQuorum() == 0 {
		// A group of one: the origin's own endorsement is the whole
		// certificate.
		s.mu.Lock()
		s.commitIfComplete(id, out)
	}
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
		// Acks carry no instance header: the chain itself names every
		// instance the signature endorses.
		chain, sig, err := decodeAckBatch(r)
		if err != nil {
			return
		}
		s.handleAckBatch(peer, chain, sig)
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
		if peer != origin || origin == s.cfg.Self {
			return // spoofed prepare
		}
		body := r.Chunk()
		tag := r.Fixed(prepareTagSize)
		if r.Finish() != nil {
			return
		}
		s.handlePrepare(id, body, tag)
	case kindCommitTab:
		if origin == s.cfg.Self {
			return // the origin delivers its own slots by direct call
		}
		body := r.Chunk()
		if r.Err() != nil {
			return
		}
		cert, err := decodeCommitTab(r)
		if err != nil {
			return
		}
		s.handleCommit(id, body, cert)
	}
}

// handlePrepare acknowledges the first (and only the first) payload seen
// for the instance — the equivocation check of Listing 6 — provided the
// PREPARE carries the origin's link tag for this replica. The tag is what
// makes an ack endorse the origin's own payload: the transport's sender
// id alone does not authenticate the origin. The ack is not signed here:
// it is queued for the pool-side signer, so the dispatch goroutine never
// executes an ECDSA.
func (s *Signed) handlePrepare(id instanceID, payload, tag []byte) {
	d := SignedDigest(id.origin, id.slot, payload)
	if !s.tags.VerifyTag(id.origin, d[:], tag) {
		return // not tagged by the origin: forged or corrupted
	}

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

// signAckChain signs the pending acks — one or more — with one chain
// signature, unicast to every origin the chain touches (ChainSigner flush
// callback).
// The ACKBATCH — chain included — is encoded once into the wave's shared
// scratch and the same bytes go to every destination.
func (s *Signed) signAckChain(batch []ChainEntry, wave *verifier.Wave) {
	cd := AckChainDigest(batch)
	sig, err := s.ackSigner.Sign(len(batch), func() ([]byte, error) { return s.cfg.Keys.Sign(cd) })
	if err != nil {
		return
	}
	s.ver.PrimeReplica(s.cfg.Self, cd, sig)
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

// handleAckBatch runs at each origin a chain touches: find the entries
// addressed to my in-flight instances inline, then verify the one chain
// signature on the pool — off the dispatch goroutine and outside the
// instance lock — and credit every covered instance from the completion
// callback, where certificate assembly and the COMMIT, once a quorum
// accrues, happen. The chain digest is memoized, so the ECDSA runs once
// however many instances (or redeliveries) the chain covers.
func (s *Signed) handleAckBatch(peer types.ReplicaID, chain []ChainEntry, sig []byte) {
	var relevant []ChainEntry
	s.mu.Lock()
	for _, e := range chain {
		if e.Origin != s.cfg.Self {
			continue
		}
		out := s.mine[e.Slot]
		if out == nil || e.Digest != out.digest || out.cert.Has(peer) {
			continue
		}
		relevant = append(relevant, e)
	}
	s.mu.Unlock()
	if len(relevant) == 0 {
		return
	}
	cd := AckChainDigest(chain)
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
// out: record it with its chain, and commit on reaching the quorum.
func (s *Signed) ackVerified(id instanceID, peer types.ReplicaID, digest types.Digest, sig []byte, chain []ChainEntry, chainDigest types.Digest) {
	s.mu.Lock()
	out := s.mine[id.slot]
	if out == nil || digest != out.digest || out.cert.Has(peer) {
		s.mu.Unlock()
		return
	}
	if peer == s.cfg.Self || !s.membership(peer) {
		// Count only what receivers count (ackCertItems), or the
		// certificate would complete here and fail everywhere else.
		s.mu.Unlock()
		return
	}
	out.cert.Sigs = append(out.cert.Sigs, AckSig{Replica: peer, Sig: sig, Chain: chain, ChainDigest: chainDigest})
	s.commitIfComplete(id, out)
}

// commitIfComplete commits one of this replica's instances once its
// certificate holds the quorum: it sends the COMMIT to the other members
// and delivers the own copy by a direct call. A committed slot leaves
// mine at once — nothing asks about it afterwards: late acks find no
// instance and are dropped. s.mu is held on entry and released on return.
func (s *Signed) commitIfComplete(id instanceID, out *outInstance) {
	if out.cert.Len() < s.cfg.certQuorum() {
		s.mu.Unlock()
		return
	}
	delete(s.mine, id.slot)
	s.mu.Unlock()

	s.sendCommit(id, out.payload, out.cert)
	s.commitVerified(id, out.digest, out.payload, true)
}

// sendCommit sends the commit for an instance whose quorum is complete to
// the other members as one self-contained COMMITTAB, encoded once (it is
// destination-independent): the payload and its certificate, every chain
// the certificate names tabled inline.
func (s *Signed) sendCommit(id instanceID, payload []byte, cert AckCert) {
	table, idxs := commitChainTable(cert)
	w := wire.AcquireWriter(commitTabSize(payload, table, cert))
	appendCommitTab(w, id.origin, id.slot, payload, table, cert, idxs)
	for _, p := range s.others {
		_ = s.cfg.Mux.Send(transport.ReplicaNode(p), transport.ChanBRB, w.Bytes())
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
// task, the signature checks fan out with 2f early exit, and the
// completion callback re-enters the FIFO delivery drain — zero goroutines
// per commit. Signatures verify against their chain digest (once,
// memoized, for all the commits a chain covers) and count toward the
// quorum only if the chain actually carries this instance's entry.
func (s *Signed) handleCommit(id instanceID, payload []byte, cert AckCert) {
	if !s.beginCommit(id) {
		return
	}
	s.ver.TryAsync(func() {
		// On a verifier lane (or inline under a saturated pool — the
		// natural backpressure): hash the payload and start the tally.
		// The continuation may fire inline right here (memo hits,
		// structural failure) or on whichever lane casts the deciding
		// vote; either way commitVerified only takes s.mu and drains
		// deliveries — it never waits on the verifier, per the
		// continuation discipline.
		d := SignedDigest(id.origin, id.slot, payload)
		s.verifyAckCertDetached(id, d, cert, func(ok bool) {
			s.commitVerified(id, d, payload, ok)
		})
	})
}

// ackCertItem is one (replica, digest, sig) triple of a certificate left
// to verify after ackCertItems' filtering.
type ackCertItem struct {
	replica types.ReplicaID
	digest  types.Digest
	sig     []byte
}

// ackCertItems performs the cheap serial filtering of a certificate —
// dedupe, membership, the origin's own signature, chain endorsement,
// chain-digest memoization. A quorum of valid endorsements of (id, d)
// among the returned items is exactly what the protocol needs: extra
// invalid or irrelevant signatures are ignored, duplicate signers count
// once, and the origin's signature counts for nothing (its tagged PREPARE
// already endorsed the instance, and the quorum arithmetic assumes 2f
// other members).
func (s *Signed) ackCertItems(id instanceID, d types.Digest, cert AckCert) []ackCertItem {
	seen := make(map[types.ReplicaID]struct{}, len(cert.Sigs))
	items := make([]ackCertItem, 0, len(cert.Sigs))
	for _, a := range cert.Sigs {
		if _, dup := seen[a.Replica]; dup {
			continue
		}
		if a.Replica == id.origin || !s.membership(a.Replica) {
			continue
		}
		if !chainContains(a.Chain, id, d) {
			continue // chain does not endorse this instance
		}
		seen[a.Replica] = struct{}{}
		items = append(items, ackCertItem{replica: a.Replica, digest: a.chainDigest(), sig: a.Sig})
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
	need := s.cfg.certQuorum()
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

// String implements fmt.Stringer for diagnostics.
func (s *Signed) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("signedbrb{self=%d peers=%d f=%d out=%d}", s.cfg.Self, len(s.cfg.Peers), s.cfg.F, s.nextOut)
}
