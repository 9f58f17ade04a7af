package consensus

import (
	"sync/atomic"

	"astro/internal/types"
	"astro/internal/wire"
)

type atomicU64 = atomic.Uint64

// Message kinds on transport.ChanConsensus.
const (
	kindPrePrepare byte = 1
	kindPrepare    byte = 2
	kindCommit     byte = 3
	kindViewChange byte = 4
	kindNewView    byte = 5
)

// Client-channel message kinds (transport.ChanPayment).
const (
	clientSubmit  byte = 1
	clientConfirm byte = 2
)

const maxBatchEntries = 1 << 16

func splitKind(payload []byte) (byte, []byte) {
	if len(payload) == 0 {
		return 0, nil
	}
	return payload[0], payload[1:]
}

func batchDigest(batch []types.Payment) types.Digest {
	w := wire.NewWriter(8 + len(batch)*types.PaymentWireSize)
	w.U8(0x50) // domain: consensus batch
	w.U32(uint32(len(batch)))
	for _, p := range batch {
		w.Raw(p.AppendBinary(nil))
	}
	return types.HashBytes(w.Bytes())
}

func encodeBatchInto(w *wire.Writer, batch []types.Payment) {
	w.U32(uint32(len(batch)))
	for _, p := range batch {
		w.Raw(p.AppendBinary(nil))
	}
}

func decodeBatchFrom(r *wire.Reader) ([]types.Payment, bool) {
	n := r.U32()
	if r.Err() != nil || n > maxBatchEntries {
		return nil, false
	}
	batch := make([]types.Payment, n)
	for i := range batch {
		raw := r.Fixed(types.PaymentWireSize)
		if r.Err() != nil {
			return nil, false
		}
		if err := batch[i].UnmarshalBinary(raw); err != nil {
			return nil, false
		}
	}
	return batch, true
}

func encodePrePrepare(view, seq uint64, batch []types.Payment) []byte {
	w := wire.NewWriter(32 + len(batch)*types.PaymentWireSize)
	w.U8(kindPrePrepare)
	w.U64(view)
	w.U64(seq)
	encodeBatchInto(w, batch)
	return w.Bytes()
}

func decodePrePrepare(body []byte) (view, seq uint64, batch []types.Payment, ok bool) {
	r := wire.NewReader(body)
	view = r.U64()
	seq = r.U64()
	batch, ok = decodeBatchFrom(r)
	if !ok || r.Finish() != nil {
		return 0, 0, nil, false
	}
	return view, seq, batch, true
}

func encodePrepare(view, seq uint64, digest types.Digest) []byte {
	return encodePhase(kindPrepare, view, seq, digest)
}

func encodeCommit(view, seq uint64, digest types.Digest) []byte {
	return encodePhase(kindCommit, view, seq, digest)
}

func encodePhase(kind byte, view, seq uint64, digest types.Digest) []byte {
	w := wire.NewWriter(49)
	w.U8(kind)
	w.U64(view)
	w.U64(seq)
	w.Bytes32(digest)
	return w.Bytes()
}

func decodePhase(body []byte) (view, seq uint64, digest types.Digest, ok bool) {
	r := wire.NewReader(body)
	view = r.U64()
	seq = r.U64()
	digest = r.Bytes32()
	if r.Finish() != nil {
		return 0, 0, types.Digest{}, false
	}
	return view, seq, digest, true
}

// preparedEntry is a prepared-but-unexecuted batch carried by view-change
// and new-view messages.
type preparedEntry struct {
	Seq   uint64
	Batch []types.Payment
}

type viewChangeMsg struct {
	NewView  uint64
	LastExec uint64
	Prepared []preparedEntry
}

func encodeViewChange(m *viewChangeMsg) []byte {
	w := wire.NewWriter(64)
	w.U8(kindViewChange)
	w.U64(m.NewView)
	w.U64(m.LastExec)
	w.U32(uint32(len(m.Prepared)))
	for _, pe := range m.Prepared {
		w.U64(pe.Seq)
		encodeBatchInto(w, pe.Batch)
	}
	return w.Bytes()
}

func decodeViewChange(body []byte) (*viewChangeMsg, bool) {
	r := wire.NewReader(body)
	m := &viewChangeMsg{NewView: r.U64(), LastExec: r.U64()}
	n := r.U32()
	if r.Err() != nil || n > maxBatchEntries {
		return nil, false
	}
	for i := uint32(0); i < n; i++ {
		seq := r.U64()
		batch, ok := decodeBatchFrom(r)
		if !ok {
			return nil, false
		}
		m.Prepared = append(m.Prepared, preparedEntry{Seq: seq, Batch: batch})
	}
	if r.Finish() != nil {
		return nil, false
	}
	return m, true
}

func encodeNewView(view uint64, entries []preparedEntry) []byte {
	w := wire.NewWriter(64)
	w.U8(kindNewView)
	w.U64(view)
	w.U32(uint32(len(entries)))
	for _, pe := range entries {
		w.U64(pe.Seq)
		encodeBatchInto(w, pe.Batch)
	}
	return w.Bytes()
}

func decodeNewView(body []byte) (uint64, []preparedEntry, bool) {
	r := wire.NewReader(body)
	view := r.U64()
	n := r.U32()
	if r.Err() != nil || n > maxBatchEntries {
		return 0, nil, false
	}
	var entries []preparedEntry
	for i := uint32(0); i < n; i++ {
		seq := r.U64()
		batch, ok := decodeBatchFrom(r)
		if !ok {
			return 0, nil, false
		}
		entries = append(entries, preparedEntry{Seq: seq, Batch: batch})
	}
	if r.Finish() != nil {
		return 0, nil, false
	}
	return view, entries, true
}

// ---- client channel ----

func encodeClientSubmit(p types.Payment) []byte {
	w := wire.NewWriter(1 + types.PaymentWireSize)
	w.U8(clientSubmit)
	w.Raw(p.AppendBinary(nil))
	return w.Bytes()
}

func decodeClientSubmit(payload []byte) (types.Payment, bool) {
	var p types.Payment
	if len(payload) != 1+types.PaymentWireSize || payload[0] != clientSubmit {
		return p, false
	}
	if err := p.UnmarshalBinary(payload[1:]); err != nil {
		return p, false
	}
	return p, true
}

func encodeClientConfirm(id types.PaymentID) []byte {
	w := wire.NewWriter(17)
	w.U8(clientConfirm)
	w.U64(uint64(id.Spender))
	w.U64(uint64(id.Seq))
	return w.Bytes()
}

func decodeClientConfirm(payload []byte) (types.PaymentID, bool) {
	var id types.PaymentID
	if len(payload) != 17 || payload[0] != clientConfirm {
		return id, false
	}
	r := wire.NewReader(payload[1:])
	id.Spender = types.ClientID(r.U64())
	id.Seq = types.Seq(r.U64())
	return id, r.Finish() == nil
}
