package core

// Adversarial wire helpers for the credit channel, mirroring
// internal/brb/adversary.go: the pieces a Byzantine replica behavior
// needs to corrupt CREDITTAB traffic at the transport boundary.
// Wire-level only; no replica state. The same helpers seed the
// credit-channel fuzz corpora.

import "astro/internal/types"

// CorruptCreditTab returns a structurally valid mutation of a CREDITTAB
// frame whose inline chain is no longer the one the signature covers: the
// chain digests no group of the frame names are perturbed by salt, so
// every group still matches its own entry and only the signature check
// can refuse the frame; a frame naming every entry has them all perturbed
// and fails the digest match instead. Either way the forger's signature
// never counts and the other signers complete the certificate — the
// credit-channel half of the forged-chain attack. Other kinds return
// (nil, false).
func CorruptCreditTab(frame []byte, salt byte) ([]byte, bool) {
	if len(frame) == 0 || frame[0] != msgCreditTab {
		return nil, false
	}
	m, err := decodeCreditTab(frame[1:])
	if err != nil {
		return nil, false
	}
	if salt == 0 {
		salt = 0xa5
	}
	named := make([]bool, len(m.Chain))
	for _, g := range m.Groups {
		named[g.ChainIdx] = true
	}
	allNamed := len(m.Groups) == len(m.Chain)
	for i := range m.Chain {
		if allNamed || !named[i] {
			m.Chain[i][0] ^= salt
		}
	}
	return encodeCreditTab(m), true
}

// EncodeCreditTab builds a CREDITTAB claiming signer signed the chain of
// the given groups' digests, each group at its own position — with a
// signature over nothing in particular it is the forgery a hostile node
// aims at the credit channel. Exported for adversarial tests and fuzz
// seeding.
func EncodeCreditTab(signer types.ReplicaID, sig []byte, groups ...[]types.Payment) []byte {
	m := creditTabMsg{Signer: signer, Sig: sig}
	for i, g := range groups {
		m.Chain = append(m.Chain, CreditGroupDigest(g))
		m.Groups = append(m.Groups, creditTabGroup{ChainIdx: uint32(i), Group: g})
	}
	return encodeCreditTab(m)
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
