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
	KindPrepare   = kindPrepare
	KindEcho      = kindEcho
	KindReady     = kindReady
	KindAck       = kindAck
	KindAckBatch  = kindAckBatch
	KindChainDef  = kindChainDef
	KindCommitRef = kindCommitRef
	KindChainNack = kindChainNack
)

// FrameKind returns a frame's message-kind byte (0 for an empty frame).
func FrameKind(frame []byte) byte {
	if len(frame) == 0 {
		return 0
	}
	return frame[0]
}

// IsCommitKind reports whether kind carries a commit certificate — the
// COMMITREF and the COMMITTAB resend, the frames a commit-withholding
// adversary suppresses.
func IsCommitKind(kind byte) bool {
	return kind == kindCommitRef || kind == kindCommitTab
}

// DecodePrepare parses a PREPARE frame (kind byte included) into its
// instance coordinates and payload. The payload aliases the frame.
func DecodePrepare(frame []byte) (origin types.ReplicaID, slot uint64, payload []byte, ok bool) {
	r := wire.NewReader(frame)
	if r.U8() != kindPrepare {
		return 0, 0, nil, false
	}
	origin = types.ReplicaID(r.U32())
	slot = r.U64()
	payload = r.Chunk()
	if r.Err() != nil {
		return 0, 0, nil, false
	}
	return origin, slot, payload, true
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

// CorruptChainRefs returns a structurally valid mutation of a CHAINDEF or
// COMMITREF frame with its chain digests perturbed by salt — the forged
// chain-reference attack. A corrupted CHAINDEF caches a chain no honest
// signature will reference; a corrupted COMMITREF references a chain the
// receiver does not know, forcing the CHAINNACK → full-form fallback.
// Frames of any other kind return (nil, false).
func CorruptChainRefs(frame []byte, salt byte) ([]byte, bool) {
	if salt == 0 {
		salt = 0xa5
	}
	switch FrameKind(frame) {
	case kindChainDef:
		chain, err := decodeChainDef(wire.NewReader(frame[1:]))
		if err != nil {
			return nil, false
		}
		for i := range chain {
			chain[i].Digest[0] ^= salt
			chain[i].Slot ^= uint64(salt) << 40
		}
		return EncodeChainDef(chain), true
	case kindCommitRef:
		r := wire.NewReader(frame)
		r.U8()
		origin := types.ReplicaID(r.U32())
		slot := r.U64()
		payload := r.Chunk()
		if r.Err() != nil {
			return nil, false
		}
		sigs, err := decodeCommitRef(r)
		if err != nil {
			return nil, false
		}
		for i := range sigs {
			if sigs[i].HasRef {
				sigs[i].Ref[0] ^= salt
				sigs[i].Idx += uint32(salt)
			}
		}
		return EncodeCommitRef(origin, slot, payload, sigs), true
	default:
		return nil, false
	}
}

// NackFor builds the CHAINNACK a hostile receiver would answer a
// COMMITREF with, naming every chain digest the commit references — the
// building block of a NACK storm. Returns (nil, false) for frames of any
// other kind or commits with no references.
func NackFor(frame []byte) ([]byte, bool) {
	if FrameKind(frame) != kindCommitRef {
		return nil, false
	}
	r := wire.NewReader(frame)
	r.U8()
	origin := types.ReplicaID(r.U32())
	slot := r.U64()
	r.Chunk() // payload
	if r.Err() != nil {
		return nil, false
	}
	sigs, err := decodeCommitRef(r)
	if err != nil {
		return nil, false
	}
	var missing []types.Digest
	seen := make(map[types.Digest]struct{})
	for _, s := range sigs {
		if !s.HasRef {
			continue
		}
		if _, dup := seen[s.Ref]; dup {
			continue
		}
		seen[s.Ref] = struct{}{}
		missing = append(missing, s.Ref)
	}
	if len(missing) == 0 {
		return nil, false
	}
	return EncodeChainNack(origin, slot, missing), true
}
