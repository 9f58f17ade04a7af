package brb

// Adversarial wire helpers: the pieces a Byzantine replica behavior
// (internal/sim) needs to inspect, forge, and corrupt BRB traffic without
// re-implementing the codecs. Everything here is wire-level only — no
// protocol state — so a behavior can interpose on raw frames at the
// transport boundary. The same helpers seed the fuzz corpora with
// realistic hostile inputs.

import (
	"astro/internal/crypto"
	"astro/internal/types"
	"astro/internal/wire"
)

// Exported message-kind bytes (first byte of every ChanBRB frame), for
// behaviors that dispatch on frame kind.
const (
	KindPrepare  = kindPrepare
	KindEcho     = kindEcho
	KindReady    = kindReady
	KindAckBatch = kindAckBatch
)

// FrameKind returns a frame's message-kind byte (0 for an empty frame).
func FrameKind(frame []byte) byte {
	if len(frame) == 0 {
		return 0
	}
	return frame[0]
}

// IsCommitKind reports whether kind carries a commit certificate — the
// COMMITTAB, the frame a commit-withholding adversary suppresses.
func IsCommitKind(kind byte) bool {
	return kind == kindCommitTab
}

// DecodePrepare parses a Signed PREPARE frame (kind byte included) into
// its instance coordinates, payload and link tag, both of which alias the
// frame. It checks the form only; whether the tag is the origin's is for
// the receiver's authenticator to say.
func DecodePrepare(frame []byte) (origin types.ReplicaID, slot uint64, payload, tag []byte, ok bool) {
	r := wire.NewReader(frame)
	if r.U8() != kindPrepare {
		return 0, 0, nil, nil, false
	}
	origin = types.ReplicaID(r.U32())
	slot = r.U64()
	payload = r.Chunk()
	tag = r.Fixed(prepareTagSize)
	if r.Finish() != nil {
		return 0, 0, nil, nil, false
	}
	return origin, slot, payload, tag, true
}

// DecodeAckBatch parses an ACKBATCH frame (kind byte included) into the
// chain its one signature covers and the signature, which aliases the
// frame; it accepts exactly what a Signed replica accepts. The frame does
// not name the acking replica — endpoints identify senders by transport
// address.
func DecodeAckBatch(frame []byte) (chain []ChainEntry, sig []byte, ok bool) {
	r := wire.NewReader(frame)
	if r.U8() != kindAckBatch {
		return nil, nil, false
	}
	chain, sig, err := decodeAckBatch(r)
	return chain, sig, err == nil
}

// SignAck is replica's ack of one instance as a correct replica signs a
// lone pending ack — a chain of one — in the form a certificate carries
// it. Exported for tests that assemble certificates by hand.
func SignAck(kp *crypto.KeyPair, replica, origin types.ReplicaID, slot uint64, digest types.Digest) (AckSig, error) {
	chain := []ChainEntry{{Origin: origin, Slot: slot, Digest: digest}}
	cd := AckChainDigest(chain)
	sig, err := kp.Sign(cd)
	if err != nil {
		return AckSig{}, err
	}
	return AckSig{Replica: replica, Sig: sig, Chain: chain, ChainDigest: cd}, nil
}

// ForgeAck produces the ACKBATCH of one a colluding replica emits to
// endorse an arbitrary payload — including one that conflicts with a
// payload it already acknowledged, which an honest handlePrepare never
// does. The frame must be sent from the forger's own endpoint: receivers
// identify the acking replica by transport address.
func ForgeAck(kp *crypto.KeyPair, origin types.ReplicaID, slot uint64, payload []byte) ([]byte, error) {
	a, err := SignAck(kp, 0, origin, slot, SignedDigest(origin, slot, payload))
	if err != nil {
		return nil, err
	}
	return EncodeAckBatch(a.Chain, a.Sig), nil
}
