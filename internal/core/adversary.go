package core

// Adversarial wire helpers for the credit channel, mirroring
// internal/brb/adversary.go: the pieces a Byzantine replica behavior
// needs to inspect and corrupt CREDIT traffic at the transport boundary,
// and to forge hostile NACKs. Wire-level only; no replica state. The
// same helpers seed the credit-channel fuzz corpora.

import "astro/internal/types"

// Exported credit message-kind bytes (first byte of every ChanCredit
// frame), for behaviors that dispatch on frame kind.
const (
	CreditKindSingle   = msgCreditSingle
	CreditKindChainDef = msgCreditChainDef
	CreditKindRef      = msgCreditRef
	CreditKindNack     = msgCreditNack
	CreditKindRedo     = msgCreditRedo
)

// CreditFrameKind returns a credit frame's kind byte (0 for an empty
// frame).
func CreditFrameKind(frame []byte) byte {
	if len(frame) == 0 {
		return 0
	}
	return frame[0]
}

// CorruptCreditRefs returns a structurally valid mutation of a
// CREDITCHAINDEF or CREDITREF frame with its chain digests perturbed by
// salt — the credit-channel half of the forged chain-reference attack. A
// corrupted definition caches a chain no wave signature matches; a
// corrupted reference names a chain the receiver does not know, forcing a
// CREDITNACK the signer cannot answer. Other kinds return (nil, false).
func CorruptCreditRefs(frame []byte, salt byte) ([]byte, bool) {
	if salt == 0 {
		salt = 0xa5
	}
	switch CreditFrameKind(frame) {
	case msgCreditChainDef:
		chain, err := decodeCreditChainDef(frame[1:])
		if err != nil {
			return nil, false
		}
		for i := range chain {
			chain[i][0] ^= salt
		}
		return encodeCreditChainDef(chain), true
	case msgCreditRef:
		m, err := decodeCreditRef(frame[1:])
		if err != nil {
			return nil, false
		}
		m.ChainDigest[0] ^= salt
		return encodeCreditRef(m), true
	default:
		return nil, false
	}
}

// CreditNackFor builds the CREDITNACK a hostile receiver would answer a
// CREDITREF with, naming the referenced chain digest — the building block
// of a credit NACK storm. Returns (nil, false) for other kinds.
func CreditNackFor(frame []byte) ([]byte, bool) {
	if CreditFrameKind(frame) != msgCreditRef {
		return nil, false
	}
	m, err := decodeCreditRef(frame[1:])
	if err != nil {
		return nil, false
	}
	return encodeCreditNack(m.ChainDigest), true
}

// EncodeCreditNack builds a CREDITNACK for an arbitrary digest (forged
// NACKs naming chains that never existed). Exported for adversarial
// tests and fuzz seeding.
func EncodeCreditNack(missing types.Digest) []byte {
	return encodeCreditNack(missing)
}

// ---------------------------------------------------------------------------
// Byzantine *client* wire helpers (payment channel). A hostile client owns a
// transport node and can emit arbitrary ChanPayment frames; these builders
// produce the canonical attack forms — forged/spoofed/equivocating submits,
// sequence races, replays, and reflected control traffic — used by the
// sim.HostileClient suite, the TCP chaos harness, and the fuzz corpora.

// EncodeSubmit builds a raw submit frame for an arbitrary payment and
// signature — including payments the sender has no right to submit
// (spoofed spenders), signatures that verify under nobody's key (forged),
// and byte-identical replays of history.
func EncodeSubmit(p types.Payment, sig []byte) []byte {
	return encodeSubmit(p, sig)
}

// EncodeConfirm builds a confirmation frame for a run of count payments
// starting at first — hostile when reflected *at* a replica (clients are
// the only legitimate receivers), or when the run is one no representative
// would send (count 0, another spender, a length past any buffer).
func EncodeConfirm(first types.PaymentID, count uint32) []byte {
	return encodeConfirm(confirmRun{Spender: first.Spender, First: first.Seq, Count: count})
}

// DecodeConfirm parses a confirmation frame (kind byte included) into the
// first payment of its run and the run's length. The hostile-client
// harness seeds real settled history before attacking it and uses this to
// learn when the seed payment confirmed.
func DecodeConfirm(frame []byte) (first types.PaymentID, count uint32, ok bool) {
	run, ok := decodeConfirm(frame)
	return types.PaymentID{Spender: run.Spender, Seq: run.First}, run.Count, ok
}

// EncodeSeqReq builds a next-sequence query for an arbitrary client
// identity — the probe half of a SyncSeq race.
func EncodeSeqReq(c types.ClientID) []byte {
	return encodeSeqReq(c)
}

// EncodeBalanceReq builds a balance query for an arbitrary client identity.
func EncodeBalanceReq(c types.ClientID) []byte {
	return encodeBalanceReq(c)
}

// EncodeStatsReq builds an edge-stats query frame.
func EncodeStatsReq() []byte {
	return encodeStatsReq()
}

// EncodeCreditForged builds a single-group CREDIT frame claiming signer
// signed the group — from a client node it must die at the sender-class
// check before any signature verification.
func EncodeCreditForged(signer types.ReplicaID, group []types.Payment, sig []byte) []byte {
	return encodeCredit(creditMsg{Signer: signer, Group: group, Sig: sig})
}

// EncodeCreditRedoRaw builds a CREDITREDO request for arbitrary payment
// groups — the re-sign flood a hostile node aims at settled history.
func EncodeCreditRedoRaw(groups [][]types.Payment) []byte {
	return encodeCreditRedo(groups)
}
