// Package brb implements Byzantine reliable broadcast (BRB), the
// replication primitive at the heart of Astro. Two protocols are provided,
// matching the paper's two system variants:
//
//   - Bracha: the echo/ready protocol of Bracha & Toueg used by Astro I.
//     O(N²) messages per broadcast, MAC-authenticated links, provides
//     totality.
//   - Signed: the signature-based protocol (after Malkhi & Reiter) used by
//     Astro II. O(N) messages: the origin gathers 2f signed ACKs from
//     the other replicas into a certificate and sends each of them one
//     self-contained COMMIT (the COMMITTAB: payload, certificate and the
//     chains it names); its own MAC-tagged PREPARE stands for its
//     endorsement. No totality — the payment layer compensates with
//     CREDIT dependency certificates.
//
// Both protocols deliver payloads per origin in slot order (FIFO), exactly
// like the paper's per-client sequence-number delivery rule, and both
// guarantee agreement per (origin, slot): no two correct replicas deliver
// different payloads for the same identifier.
//
// An external-validity hook lets the payment layer refuse to endorse
// payloads containing payments that conflict with previously endorsed ones
// (the double-spend check when batching).
package brb

import (
	"errors"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// Validator decides whether this replica endorses (echoes or acks) the
// payload proposed for an instance. Returning false withholds this
// replica's contribution; a payload endorsed by fewer than a quorum of
// replicas is never delivered anywhere.
type Validator func(origin types.ReplicaID, slot uint64, payload []byte) bool

// DeliverFunc receives delivered payloads, per origin in slot order.
type DeliverFunc func(origin types.ReplicaID, slot uint64, payload []byte)

// Broadcaster is the common interface of both BRB implementations.
type Broadcaster interface {
	// Broadcast reliably sends payload to all replicas, assigning it the
	// next slot of this replica's sequence. It returns the assigned slot.
	// Implementations copy payload before returning, so callers may reuse
	// (or pool) their buffers.
	Broadcast(payload []byte) (uint64, error)
	// Delivered returns the highest slot delivered for an origin.
	Delivered(origin types.ReplicaID) uint64
}

// Config carries the parameters shared by both protocols.
type Config struct {
	// Mux is the node's transport multiplexer; the protocol registers
	// itself on transport.ChanBRB.
	Mux *transport.Mux
	// Self is this replica's identity.
	Self types.ReplicaID
	// Peers lists all replicas participating in the broadcast group
	// (including Self). For sharded deployments this is the shard.
	Peers []types.ReplicaID
	// F is the number of Byzantine replicas tolerated; len(Peers) must be
	// at least 3F+1.
	F int
	// Validator is the external-validity hook; nil accepts everything.
	Validator Validator
	// Deliver receives delivered payloads. Must be non-nil.
	Deliver DeliverFunc

	// Auth authenticates Bracha's links (Astro I) with pairwise MACs.
	// Optional; when set, every protocol message carries an HMAC tag,
	// costing the MAC computation the paper attributes to Bracha's
	// protocol. Signed ignores it: its PREPARE tag is keyed by Keys and
	// Registry (crypto.NewKeyedLinkAuthenticator), so no third replica
	// can make it.
	Auth *crypto.LinkAuthenticator

	// Keys and Registry supply the signing key and peer public keys for
	// the signature-based protocol (required by Signed, ignored by
	// Bracha).
	Keys     *crypto.KeyPair
	Registry *crypto.Registry

	// Verifier is the worker pool the signature-based protocol uses to
	// verify ack signatures and commit certificates off the transport
	// dispatch goroutine. Nil selects the shared process-wide pool
	// (verifier.Default). Ignored by Bracha, which verifies nothing.
	Verifier *verifier.Verifier

	// FirstSlot seeds this replica's own broadcast sequence: the first
	// Broadcast is assigned FirstSlot+1. A replica restarting from a WAL
	// sets it to the highest slot it ever reserved, so it never reuses a
	// slot its peers may already have acknowledged under a different
	// payload (they would silently refuse the second digest). Zero — the
	// default — starts at slot 1.
	FirstSlot uint64

	// Unordered switches delivery from per-origin slot order to arrival
	// order (Signed only). A replica recovering from a crash cannot rely
	// on peers retransmitting commits for slots delivered while it was
	// down — the signed protocol has no retransmission — so insisting on
	// per-origin FIFO would wedge every origin with a gap. The payment
	// layer's settlement engine orders payments by client sequence number
	// independently, so it tolerates out-of-order slot delivery; only a
	// recovering replica should set this.
	Unordered bool
}

// Errors returned by Broadcast.
var (
	ErrNoQuorum  = errors.New("brb: fewer than 3f+1 peers")
	ErrNoDeliver = errors.New("brb: Deliver callback not set")
)

func (c *Config) validate() error {
	if len(c.Peers) < 3*c.F+1 {
		return ErrNoQuorum
	}
	if c.Deliver == nil {
		return ErrNoDeliver
	}
	return nil
}

func (c *Config) quorum() int { return 2*c.F + 1 }

// others lists the group members other than Self: a replica handles its
// own copy of every message by a direct call, never through the network.
func (c *Config) others() []types.ReplicaID {
	out := make([]types.ReplicaID, 0, len(c.Peers))
	for _, p := range c.Peers {
		if p != c.Self {
			out = append(out, p)
		}
	}
	return out
}

// CertQuorum is the size of a Signed commit certificate in a group of n
// members tolerating f faults: ceil((n-1+f)/2) acks from distinct members
// other than the origin — 2f at n = 3f+1. Any two such sets among the n-1
// non-origin members share at least f of them (Signed's comment says why
// that suffices), and the n-1-f correct ones can always form one.
func CertQuorum(n, f int) int { return (n + f) / 2 }

func (c *Config) certQuorum() int { return CertQuorum(len(c.Peers), c.F) }

// instanceID identifies one broadcast instance.
type instanceID struct {
	origin types.ReplicaID
	slot   uint64
}

// Message kinds on ChanBRB. Bracha uses PREPARE, ECHO and READY; Signed
// uses PREPARE, ACKBATCH and COMMITTAB. Kind bytes are the values below;
// 4 (the single-slot ACK), 5, 7, 8, 9 and 10 are retired.
//
//	kind        direction            body after the kind byte
//	PREPARE     origin -> others     origin u32, slot u64, payload chunk;
//	                                 Signed appends the origin's 32-byte
//	                                 link tag over the ack digest
//	ECHO        all -> all           origin u32, slot u64, payload chunk
//	READY       all -> all           origin u32, slot u64, payload chunk
//	ACKBATCH    replica -> origins   chain of 1 to 32 (origin u32, slot u64,
//	                                 ack digest), sig chunk: one signature
//	                                 over the chain, sent to every origin it
//	                                 names
//	COMMITTAB   origin -> others     origin, slot, payload chunk, chain table,
//	                                 certificate naming chains by table index
//
// Every ack is a chain signature — a lone ack is a chain of one — and a
// commit is one COMMITTAB, self-contained: its table holds every chain its
// certificate names (see ackchain.go, committab.go).
const (
	kindPrepare   byte = 1
	kindEcho      byte = 2
	kindReady     byte = 3
	kindAckBatch  byte = 6
	kindCommitTab byte = 11
)

// headerSize is the fixed prefix of every BRB message: kind, origin, slot.
const headerSize = 1 + 4 + 8

// appendHeader writes the common message prefix.
func appendHeader(w *wire.Writer, kind byte, origin types.ReplicaID, slot uint64) {
	w.U8(kind)
	w.U32(uint32(origin))
	w.U64(slot)
}

// payloadMsgSize is the exact size of a PREPARE/ECHO/READY message.
func payloadMsgSize(payload []byte) int { return headerSize + 4 + len(payload) }

func appendPayloadMsg(w *wire.Writer, kind byte, origin types.ReplicaID, slot uint64, payload []byte) {
	appendHeader(w, kind, origin, slot)
	w.Chunk(payload)
}

// EncodePrepare encodes a Bracha PREPARE message, which carries no tag of
// its own. Exported for tests that forge Byzantine traffic.
func EncodePrepare(origin types.ReplicaID, slot uint64, payload []byte) []byte {
	w := wire.NewWriter(payloadMsgSize(payload))
	appendPayloadMsg(w, kindPrepare, origin, slot, payload)
	return w.Bytes()
}

// prepareTagSize is the link tag a Signed PREPARE carries after its
// payload.
const prepareTagSize = crypto.TagSize

// appendSignedPrepare writes a Signed PREPARE whose tag bytes are left
// zero; the sender fills them per destination (setPrepareTag).
func appendSignedPrepare(w *wire.Writer, origin types.ReplicaID, slot uint64, payload []byte) {
	appendPayloadMsg(w, kindPrepare, origin, slot, payload)
	w.Raw(make([]byte, prepareTagSize))
}

// setPrepareTag fills an encoded Signed PREPARE's tag for destination to:
// auth's link tag over the ack digest, which binds origin, slot and
// payload. The tag is zero when auth has no key for the link, and no
// receiver accepts it.
func setPrepareTag(msg []byte, auth *crypto.LinkAuthenticator, to types.ReplicaID, digest types.Digest) {
	tag := msg[len(msg)-prepareTagSize:]
	clear(tag)
	copy(tag, auth.Tag(to, digest[:]))
}

// EncodeSignedPrepare encodes the Signed PREPARE for destination to,
// tagged with auth. Only the origin's keyed authenticator
// (crypto.NewKeyedLinkAuthenticator over its own key pair) produces a tag
// the destination accepts. Exported for tests that forge Byzantine
// traffic.
func EncodeSignedPrepare(auth *crypto.LinkAuthenticator, to, origin types.ReplicaID, slot uint64, payload []byte) []byte {
	w := wire.NewWriter(payloadMsgSize(payload) + prepareTagSize)
	appendSignedPrepare(w, origin, slot, payload)
	msg := w.Bytes()
	setPrepareTag(msg, auth, to, SignedDigest(origin, slot, payload))
	return msg
}

// EncodeReady encodes a READY message (Bracha). Exported for tests.
func EncodeReady(origin types.ReplicaID, slot uint64, payload []byte) []byte {
	w := wire.NewWriter(payloadMsgSize(payload))
	appendPayloadMsg(w, kindReady, origin, slot, payload)
	return w.Bytes()
}

// SignedDigest computes the digest a replica signs when acknowledging an
// instance in the signature-based protocol. The domain byte prevents
// cross-protocol signature reuse.
func SignedDigest(origin types.ReplicaID, slot uint64, payload []byte) types.Digest {
	ph := types.HashBytes(payload)
	w := wire.AcquireWriter(1 + 4 + 8 + 32)
	defer w.Release()
	w.U8(0x42) // domain: brb-ack
	w.U32(uint32(origin))
	w.U64(slot)
	w.Bytes32(ph)
	return types.HashBytes(w.Bytes())
}

// fifo tracks per-origin delivery order, buffering out-of-order deliveries.
type fifo struct {
	delivered map[types.ReplicaID]uint64
	pending   map[instanceID][]byte
}

func newFIFO() *fifo {
	return &fifo{
		delivered: make(map[types.ReplicaID]uint64),
		pending:   make(map[instanceID][]byte),
	}
}

// ready records a deliverable payload and returns the consecutive run now
// deliverable for that origin, in slot order.
type delivery struct {
	origin  types.ReplicaID
	slot    uint64
	payload []byte
}

func (f *fifo) ready(id instanceID, payload []byte) []delivery {
	if id.slot <= f.delivered[id.origin] {
		return nil // stale duplicate
	}
	if _, dup := f.pending[id]; dup {
		return nil
	}
	f.pending[id] = payload
	var out []delivery
	next := f.delivered[id.origin] + 1
	for {
		p, ok := f.pending[instanceID{origin: id.origin, slot: next}]
		if !ok {
			break
		}
		delete(f.pending, instanceID{origin: id.origin, slot: next})
		out = append(out, delivery{origin: id.origin, slot: next, payload: p})
		f.delivered[id.origin] = next
		next++
	}
	return out
}
