package core

import (
	"fmt"

	"astro/internal/types"
	"astro/internal/wire"
)

// Message kinds on the payment channel (client <-> representative).
//
//	kind            direction       body after the kind byte
//	msgSubmit       client -> rep   payment (PaymentWireSize) + signature chunk
//	msgConfirm      rep -> client   spender u64, first seq u64, count u32: a run
//	                                of count consecutive settled payments
//	msgBalanceReq   client -> rep   client u64
//	msgBalanceResp  rep -> client   client u64, balance u64
//	msgSeqReq       client -> rep   client u64
//	msgSeqResp      rep -> client   client u64, next usable seq u64
//	msgStatsReq/msgStatsResp        edge-rejection counters (edge.go)
//
// A confirmation is always a run: one settled batch owes one client one
// frame, whatever the number of its payments in the batch, and a single
// payment (an idle deployment, a settled-replay answer) is a run of 1.
const (
	msgSubmit      byte = 1 // client -> representative: a new payment
	msgConfirm     byte = 2 // representative -> client: a run of settled payments
	msgBalanceReq  byte = 3 // client -> representative: balance query
	msgBalanceResp byte = 4 // representative -> client: balance answer
	msgSeqReq      byte = 5 // client -> representative: next sequence query
	msgSeqResp     byte = 6 // representative -> client: next usable sequence
)

// Local event kinds on transport.ChanLocal.
const (
	localFlush byte = 1 // batch timer fired
)

func encodeSubmit(p types.Payment, sig []byte) []byte {
	w := wire.NewWriter(8 + types.PaymentWireSize + len(sig))
	w.U8(msgSubmit)
	w.Raw(p.AppendBinary(nil))
	w.Chunk(sig)
	return w.Bytes()
}

func decodeSubmit(payload []byte) (types.Payment, []byte, bool) {
	var p types.Payment
	r := wire.NewReader(payload)
	raw := r.Fixed(types.PaymentWireSize)
	if r.Err() != nil {
		return p, nil, false
	}
	if err := p.UnmarshalBinary(raw); err != nil {
		return p, nil, false
	}
	sig := r.Chunk()
	if r.Finish() != nil {
		return p, nil, false
	}
	return p, sig, true
}

// confirmRun is the body of a msgConfirm frame: Count payments of Spender
// with consecutive sequence numbers from First settled.
type confirmRun struct {
	Spender types.ClientID
	First   types.Seq
	Count   uint32
}

// maxConfirmRun is the longest run a representative sends and the depth of
// a client's confirmation buffer: a client refuses anything longer unread,
// so the two must be one number.
const maxConfirmRun = 1 << 12

// confirmFrameSize is the one length a msgConfirm frame has, kind included.
const confirmFrameSize = 1 + 8 + 8 + 4

func encodeConfirm(run confirmRun) []byte {
	w := wire.NewWriter(confirmFrameSize)
	w.U8(msgConfirm)
	w.U64(uint64(run.Spender))
	w.U64(uint64(run.First))
	w.U32(run.Count)
	return w.Bytes()
}

// decodeConfirm parses a whole msgConfirm frame. It accepts only runs that
// name real payments: at least one, sequence numbers from 1, and a last
// sequence number that does not wrap. How long a run a receiver is willing
// to expand is the receiver's bound, not the grammar's.
func decodeConfirm(frame []byte) (confirmRun, bool) {
	if len(frame) != confirmFrameSize || frame[0] != msgConfirm {
		return confirmRun{}, false
	}
	r := wire.NewReader(frame[1:])
	run := confirmRun{Spender: types.ClientID(r.U64()), First: types.Seq(r.U64()), Count: r.U32()}
	if run.Count == 0 || run.First == 0 || run.First+types.Seq(run.Count-1) < run.First {
		return confirmRun{}, false
	}
	return run, true
}

func encodeBalanceReq(c types.ClientID) []byte {
	w := wire.NewWriter(9)
	w.U8(msgBalanceReq)
	w.U64(uint64(c))
	return w.Bytes()
}

func encodeBalanceResp(c types.ClientID, a types.Amount) []byte {
	w := wire.NewWriter(17)
	w.U8(msgBalanceResp)
	w.U64(uint64(c))
	w.U64(uint64(a))
	return w.Bytes()
}

func encodeSeqReq(c types.ClientID) []byte {
	w := wire.NewWriter(9)
	w.U8(msgSeqReq)
	w.U64(uint64(c))
	return w.Bytes()
}

func encodeSeqResp(c types.ClientID, s types.Seq) []byte {
	w := wire.NewWriter(17)
	w.U8(msgSeqResp)
	w.U64(uint64(c))
	w.U64(uint64(s))
	return w.Bytes()
}

// Message kinds on the credit channel (transport.ChanCredit). Kinds 2, 3,
// 4 and 5 are retired: no decoder reads them, and a replica drops them
// without answering.
//
//	kind            direction             body after the kind byte
//	CREDIT          signer -> rep         signer u32, group, sig chunk: one
//	                                      signature over the group's digest
//	CREDITREDO      restarted rep ->      groups to re-sign
//	                own-shard signers
//	CREDITRESCAN    restarted rep ->      nothing: rescan the xlogs for rep
//	                foreign-shard signers
//	CREDITTAB       signer -> rep         signer u32, chain of group digests,
//	                                      sig chunk, then (chain index,
//	                                      group) for each group of the wave
//	                                      addressed to rep
//
// A settling replica signs a lone credit group as a CREDIT, and a whole
// settlement wave with one signature over the chain of its group digests,
// sending each destination representative one CREDITTAB: the chain the
// signature covers, inline, the signature, and the destination's groups
// with their chain indices. A CREDITTAB is self-contained — it needs no
// state at the receiver and no other frame before or after it — and, like
// brb's COMMITTAB, it has one encoding: indices strictly ascending and
// below the chain's length, so decode → encode reproduces the bytes.
const (
	msgCreditSingle byte = 1
	msgCreditRedo   byte = 6
	msgCreditRescan byte = 7
	msgCreditTab    byte = 8
)

// CREDIT message (transport.ChanCredit): a settling replica's signed
// endorsement that a group of payments (beneficiaries all represented by
// the destination replica) settled in its shard (paper §V, Listing 9).
type creditMsg struct {
	Signer types.ReplicaID
	Group  []types.Payment
	Sig    []byte
}

func encodeCredit(m creditMsg) []byte {
	w := wire.NewWriter(13 + len(m.Group)*types.PaymentWireSize + len(m.Sig))
	w.U8(msgCreditSingle)
	w.U32(uint32(m.Signer))
	appendPaymentGroup(w, m.Group)
	w.Chunk(m.Sig)
	return w.Bytes()
}

// decodeCredit parses a CREDIT payload after its kind byte.
func decodeCredit(payload []byte) (creditMsg, error) {
	var m creditMsg
	r := wire.NewReader(payload)
	m.Signer = types.ReplicaID(r.U32())
	group, err := decodePaymentGroup(r)
	if err != nil {
		return m, err
	}
	m.Group = group
	m.Sig = r.Chunk()
	if err := r.Finish(); err != nil {
		return m, err
	}
	return m, nil
}

// creditTabMsg is one signer's CREDITTAB: the chain of group digests its
// signature covers, and the wave's groups whose beneficiaries this
// destination represents, each with its index into the chain. The
// receiver recomputes each group's digest, matches it against the chain,
// and verifies the one signature against the chain's digest — so a wave
// crediting k groups costs the signer one ECDSA, and (through the verifier
// memo) the receiver one ECDSA per signer.
type creditTabMsg struct {
	Signer types.ReplicaID
	Chain  []types.Digest
	Sig    []byte
	Groups []creditTabGroup
}

// creditTabGroup is one credit group of a CREDITTAB with its position in
// the signed chain.
type creditTabGroup struct {
	ChainIdx uint32
	Group    []types.Payment
}

func creditTabSize(m creditTabMsg) int {
	n := 1 + 4 + wire.DigestListSize(len(m.Chain)) + 4 + len(m.Sig) + 4
	for _, g := range m.Groups {
		n += 4 + 4 + len(g.Group)*types.PaymentWireSize
	}
	return n
}

func appendCreditTab(w *wire.Writer, m creditTabMsg) {
	w.U8(msgCreditTab)
	w.U32(uint32(m.Signer))
	wire.AppendDigestList(w, m.Chain)
	w.Chunk(m.Sig)
	w.U32(uint32(len(m.Groups)))
	for _, g := range m.Groups {
		w.U32(g.ChainIdx)
		appendPaymentGroup(w, g.Group)
	}
}

func encodeCreditTab(m creditTabMsg) []byte {
	w := wire.NewWriter(creditTabSize(m))
	appendCreditTab(w, m)
	return w.Bytes()
}

// decodeCreditTab parses a CREDITTAB payload after its kind byte. It
// accepts only the canonical form: a chain no longer than an honest wave
// (creditChainCap), at least one group, and chain indices strictly
// ascending and below the chain's length.
func decodeCreditTab(payload []byte) (creditTabMsg, error) {
	var m creditTabMsg
	r := wire.NewReader(payload)
	m.Signer = types.ReplicaID(r.U32())
	chain, err := decodeDigestChain(r)
	if err != nil {
		return m, err
	}
	if len(chain) == 0 || len(chain) > creditChainCap {
		return m, fmt.Errorf("credit tab: chain of %d outside [1,%d]", len(chain), creditChainCap)
	}
	m.Chain = chain
	m.Sig = r.Chunk()
	ng := r.U32()
	if err := r.Err(); err != nil {
		return m, err
	}
	if ng == 0 || ng > uint32(len(chain)) {
		return m, fmt.Errorf("credit tab: %d groups for a chain of %d", ng, len(chain))
	}
	m.Groups = make([]creditTabGroup, 0, ng)
	for i := uint32(0); i < ng; i++ {
		idx := r.U32()
		if err := r.Err(); err != nil {
			return m, err
		}
		if idx >= uint32(len(chain)) || (i > 0 && idx <= m.Groups[i-1].ChainIdx) {
			return m, fmt.Errorf("credit tab: chain index %d out of order or range", idx)
		}
		group, err := decodePaymentGroup(r)
		if err != nil {
			return m, err
		}
		m.Groups = append(m.Groups, creditTabGroup{ChainIdx: idx, Group: group})
	}
	if err := r.Finish(); err != nil {
		return m, err
	}
	return m, nil
}

// maxRedoGroups bounds the group count of a CREDITREDO request.
const maxRedoGroups = 1 << 12

// encodeCreditRedo encodes a CREDITREDO: a restarted representative's
// request that the receiver re-sign CREDITs for the given groups. The
// requester is implicit in the transport sender; the receiver signs only
// groups it can verify as settled in its own xlogs and destined to the
// requester's clients, so the message carries no authority of its own.
func encodeCreditRedo(groups [][]types.Payment) []byte {
	n := 1 + 4
	for _, g := range groups {
		n += 4 + len(g)*types.PaymentWireSize
	}
	w := wire.NewWriter(n)
	w.U8(msgCreditRedo)
	w.U32(uint32(len(groups)))
	for _, g := range groups {
		appendPaymentGroup(w, g)
	}
	return w.Bytes()
}

// decodeCreditRedo parses a CREDITREDO payload after its kind byte.
func decodeCreditRedo(payload []byte) ([][]types.Payment, error) {
	r := wire.NewReader(payload)
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 || n > maxRedoGroups {
		return nil, fmt.Errorf("credit: bad redo group count %d", n)
	}
	groups := make([][]types.Payment, n)
	for i := range groups {
		g, err := decodePaymentGroup(r)
		if err != nil {
			return nil, err
		}
		groups[i] = g
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return groups, nil
}

// encodeCreditRescan encodes a CREDITRESCAN: a restarted representative's
// request that a *foreign* shard's replica scan its own settled xlogs for
// payments benefiting the requester's clients and re-sign them as fresh
// credit groups. Unlike CREDITREDO the requester cannot name the payments
// — it holds no copy of the foreign shard's xlogs — so the message is
// just the kind byte; the requester's identity rides the transport, and
// over-answering is harmless (duplicate certificates are dropped at the
// requester's attach-time dedup).
func encodeCreditRescan() []byte {
	w := wire.NewWriter(1)
	w.U8(msgCreditRescan)
	return w.Bytes()
}

// decodeCreditRescan parses a CREDITRESCAN payload after its kind byte.
func decodeCreditRescan(payload []byte) error {
	return wire.NewReader(payload).Finish()
}

func appendPaymentGroup(w *wire.Writer, group []types.Payment) {
	w.U32(uint32(len(group)))
	for _, p := range group {
		w.AppendFunc(p.AppendBinary)
	}
}

func decodePaymentGroup(r *wire.Reader) ([]types.Payment, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 || n > maxGroup {
		return nil, fmt.Errorf("credit: bad group size %d", n)
	}
	group := make([]types.Payment, n)
	for i := range group {
		raw := r.Fixed(types.PaymentWireSize)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := group[i].UnmarshalBinary(raw); err != nil {
			return nil, err
		}
	}
	return group, nil
}
