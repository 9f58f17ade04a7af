package core

// Client-edge hardening: every hostile frame class a Byzantine client can
// aim at a representative is rejected on a cheap path, and each rejection
// increments a per-replica counter so deployments (and the chaos suite)
// can see an attack engaging without grepping logs.
//
// The boundedness argument, per hostile frame:
//
//   - malformed / spoofed / wrong-rep / seq-zero frames: one decode and a
//     couple of map-free comparisons — O(frame) and no state growth;
//   - forged client signatures: one pooled ECDSA verify (the same memo
//     cache the honest path uses), no state growth;
//   - replays of settled payments: one striped SettledAt lookup; the
//     byte-identical case costs one confirmation resend (which the
//     retrying correct client needs anyway);
//   - conflicting / equivocating resubmissions: one endorsement-memory
//     lookup, refused before they occupy a broadcast slot
//     (preScreenSubmit, the anti-wedge screen);
//   - far-future sequence numbers: refused beyond NextSeq + maxSeqWindow,
//     so the settlement queue a hostile client can strand (payments
//     parked behind a gap that will never fill) is capped at maxSeqWindow
//     entries per client — the window is anchored at the *settled* next
//     sequence, which only advances through gap-free settlement, so the
//     cap cannot be ratcheted upward by further hostile submissions;
//   - unfunded submit floods: the per-client hold queue (Astro II
//     projected-balance holds) is capped at maxHeldSubmits; beyond it the
//     newest submission is shed — a correct client retries after its
//     in-flight payments settle, exactly as it would after a lost frame;
//   - hostile CREDIT/CREDITTAB/REDO traffic from client nodes: dropped by the
//     sender-class check before any decode.
//
// Counters are replica-wide (not per-client maps) so the accounting
// itself cannot become the memory amplifier.

import (
	"sync/atomic"

	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// Stats message kinds on the payment channel: any node may ask a replica
// for its edge-rejection counters; the answer is a fixed-size frame.
const (
	msgStatsReq  byte = 7 // client/operator -> replica: edge stats query
	msgStatsResp byte = 8 // replica -> requester: EdgeStats snapshot
)

// maxSeqWindow bounds how far beyond a client's settled next sequence
// number a submission may reach. Correct clients assign sequence numbers
// densely (SyncSeq resumes from nextUsableSeq, which trails this bound by
// the in-flight pipeline depth), so only an attacker manufacturing gaps
// is affected.
const maxSeqWindow = 1 << 12

// maxHeldSubmits caps the Astro II per-client hold queue (submissions
// waiting for funding). Beyond it, new submissions are shed and counted.
// Strictly smaller than maxSeqWindow: the hold queue models a transient
// funding gap a few payments deep, while the window bounds the whole
// in-flight sequence range, so the cap must bind first.
const maxHeldSubmits = 1 << 10

// EdgeStats is a snapshot of the hostile-traffic rejection counters at a
// replica's client edge. Every counter is monotone; a live attack shows
// as a climbing counter while the invariant auditor stays clean.
type EdgeStats struct {
	Malformed      uint64 // undecodable or short payment-channel frames
	Spoofed        uint64 // submit whose spender is not the sending node
	WrongRep       uint64 // submit for a client this replica does not represent
	BadSig         uint64 // client-auth signature failures (forged payments)
	SeqZero        uint64 // submissions with the never-settleable Seq 0
	FutureSeq      uint64 // submissions beyond the sequence window
	SettledReplay  uint64 // byte-identical resubmits of settled payments
	Conflicting    uint64 // double-spend/equivocating resubmissions refused
	HeldOverflow   uint64 // unfunded submissions shed by the hold-queue cap
	CreditOutsider uint64 // credit-channel frames from non-replica senders
}

// Add accumulates another snapshot — fleet-wide summaries aggregate the
// per-replica counters with it.
func (s *EdgeStats) Add(o EdgeStats) {
	s.Malformed += o.Malformed
	s.Spoofed += o.Spoofed
	s.WrongRep += o.WrongRep
	s.BadSig += o.BadSig
	s.SeqZero += o.SeqZero
	s.FutureSeq += o.FutureSeq
	s.SettledReplay += o.SettledReplay
	s.Conflicting += o.Conflicting
	s.HeldOverflow += o.HeldOverflow
	s.CreditOutsider += o.CreditOutsider
}

// Total sums every rejection class (Sent-style engagement probe).
func (s EdgeStats) Total() uint64 {
	return s.Malformed + s.Spoofed + s.WrongRep + s.BadSig + s.SeqZero +
		s.FutureSeq + s.SettledReplay + s.Conflicting + s.HeldOverflow +
		s.CreditOutsider
}

// edgeCounters is the live, atomically-updated form embedded in Replica.
type edgeCounters struct {
	malformed      atomic.Uint64
	spoofed        atomic.Uint64
	wrongRep       atomic.Uint64
	badSig         atomic.Uint64
	seqZero        atomic.Uint64
	futureSeq      atomic.Uint64
	settledReplay  atomic.Uint64
	conflicting    atomic.Uint64
	heldOverflow   atomic.Uint64
	creditOutsider atomic.Uint64
}

func (e *edgeCounters) snapshot() EdgeStats {
	return EdgeStats{
		Malformed:      e.malformed.Load(),
		Spoofed:        e.spoofed.Load(),
		WrongRep:       e.wrongRep.Load(),
		BadSig:         e.badSig.Load(),
		SeqZero:        e.seqZero.Load(),
		FutureSeq:      e.futureSeq.Load(),
		SettledReplay:  e.settledReplay.Load(),
		Conflicting:    e.conflicting.Load(),
		HeldOverflow:   e.heldOverflow.Load(),
		CreditOutsider: e.creditOutsider.Load(),
	}
}

// EdgeStats returns the replica's hostile-traffic rejection counters.
func (r *Replica) EdgeStats() EdgeStats { return r.edge.snapshot() }

const statsRespSize = 1 + 10*8

func encodeStatsReq() []byte {
	return []byte{msgStatsReq}
}

func encodeStatsResp(s EdgeStats) []byte {
	w := wire.NewWriter(statsRespSize)
	w.U8(msgStatsResp)
	for _, v := range [...]uint64{
		s.Malformed, s.Spoofed, s.WrongRep, s.BadSig, s.SeqZero,
		s.FutureSeq, s.SettledReplay, s.Conflicting, s.HeldOverflow,
		s.CreditOutsider,
	} {
		w.U64(v)
	}
	return w.Bytes()
}

// decodeStatsResp parses a stats response after its kind byte.
func decodeStatsResp(payload []byte) (EdgeStats, bool) {
	var s EdgeStats
	r := wire.NewReader(payload)
	fields := [...]*uint64{
		&s.Malformed, &s.Spoofed, &s.WrongRep, &s.BadSig, &s.SeqZero,
		&s.FutureSeq, &s.SettledReplay, &s.Conflicting, &s.HeldOverflow,
		&s.CreditOutsider,
	}
	for _, f := range fields {
		*f = r.U64()
	}
	return s, r.Finish() == nil
}

// handleStatsReq answers a stats query from any node — the response is a
// fixed-size snapshot of ten atomics, so the query itself cannot be used
// as an amplification vector.
func (r *Replica) handleStatsReq(from transport.NodeID) {
	_ = r.cfg.Mux.Send(from, transport.ChanPayment, encodeStatsResp(r.edge.snapshot()))
}

// withinSeqWindow applies the far-future guard. Anchoring at the settled
// NextSeq (not submittedHi) is what makes the strandable-queue bound
// non-ratchetable; see the package comment.
func (r *Replica) withinSeqWindow(p types.Payment) bool {
	return p.Seq <= r.state.NextSeq(p.Spender)+maxSeqWindow
}
