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
	KindAck      = kindAck
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

// DecodeAck parses an ACK frame (kind byte included). The signature
// aliases the frame. The acking replica is not in the frame — endpoints
// identify senders by transport address.
func DecodeAck(frame []byte) (origin types.ReplicaID, slot uint64, digest types.Digest, sig []byte, ok bool) {
	r := wire.NewReader(frame)
	if r.U8() != kindAck {
		return 0, 0, types.Digest{}, nil, false
	}
	origin = types.ReplicaID(r.U32())
	slot = r.U64()
	digest = r.Bytes32()
	sig = r.Chunk()
	if r.Err() != nil {
		return 0, 0, types.Digest{}, nil, false
	}
	return origin, slot, digest, sig, true
}

// DecodeAckBatch parses an ACKBATCH frame (kind byte included) into the
// chain its one signature covers and the signature, which aliases the
// frame. Like an ACK, the frame does not name the acking replica.
func DecodeAckBatch(frame []byte) (chain []ChainEntry, sig []byte, ok bool) {
	r := wire.NewReader(frame)
	if r.U8() != kindAckBatch {
		return nil, nil, false
	}
	chain, err := decodeChain(r)
	sig = r.Chunk()
	if err != nil || r.Finish() != nil || len(chain) == 0 {
		return nil, nil, false
	}
	return chain, sig, true
}

// ForgeAck produces the ACK frame a colluding replica emits to endorse an
// arbitrary payload — including one that conflicts with a payload it
// already acknowledged, which an honest handlePrepare never does. The
// frame must be sent from the forger's own endpoint: receivers identify
// the acking replica by transport address.
func ForgeAck(kp *crypto.KeyPair, origin types.ReplicaID, slot uint64, payload []byte) ([]byte, error) {
	d := SignedDigest(origin, slot, payload)
	sig, err := kp.Sign(d)
	if err != nil {
		return nil, err
	}
	return EncodeAck(origin, slot, d, sig), nil
}
