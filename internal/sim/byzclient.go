package sim

// Byzantine *clients*: active adversaries that own a client transport
// node and speak the real payment-channel wire protocol at replicas —
// the client-side counterpart of the replica Behavior suite. Unlike a
// Behavior (a passive interposer on an honest stack), a HostileClient is
// a driver: it seeds genuine settled history under its own identity and
// then attacks it with forged signatures, double-spends equivocated
// across representatives, sequence-number races around SyncSeq, replays
// of settled submissions, and hostile CREDIT/NACK traffic.
//
// Every attack class maps to a core.EdgeStats counter, so a scenario can
// assert the attack engaged (counter climbing) while the invariant
// auditor stays clean and honest clients keep settling — the bounded-
// cost claim of the client-edge hardening, demonstrated end to end.
//
// The harness is transport-agnostic: it drives a plain transport.Mux, so
// the same volleys run over memnet in the scenario matrix and over real
// TCP in the e2e harness and the soak runner.

import (
	"fmt"
	"sync/atomic"
	"time"

	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/types"
)

// HostileClient is a Byzantine client bound to one (corrupted) identity.
// It holds the identity's genuine registered key when the deployment
// runs client auth — the paper's adversary controls the client, key and
// all — plus a second, unregistered key for forged-signature volleys.
type HostileClient struct {
	id       types.ClientID
	rep      types.ReplicaID // the identity's legitimate representative
	wrongRep types.ReplicaID // a replica that does NOT represent it
	mux      *transport.Mux
	realKey  *crypto.KeyPair // registered (nil without ClientAuth)
	forgeKey *crypto.KeyPair // never registered anywhere

	confirms chan types.PaymentID

	// Volleys counts hostile frames sent — the engagement probe.
	Volleys atomic.Uint64
}

// Hostile returns a Byzantine client on the given identity. The identity
// must not also be used through Client — one mux per transport node.
func (c *AstroCluster) Hostile(id types.ClientID) *HostileClient {
	rep := c.repOf(id)
	var wrongRep types.ReplicaID
	for _, r := range c.Topology.AllReplicas() {
		if r != rep {
			wrongRep = r
			break
		}
	}
	return NewHostileClient(id, rep, wrongRep, c.clientMux(id), c.ClientKey(id))
}

// NewHostileClient binds the attack suite to an arbitrary transport mux —
// the form the TCP harness uses, where no cluster handle exists. rep must
// be the identity's legitimate representative and wrongRep any replica
// that does not represent it. realKey may be nil when the deployment runs
// without client auth. The mux's payment channel is claimed for
// confirmation tracking, so the identity must not also drive a
// core.Client on the same mux.
func NewHostileClient(id types.ClientID, rep, wrongRep types.ReplicaID, mux *transport.Mux, realKey *crypto.KeyPair) *HostileClient {
	h := &HostileClient{
		id:       id,
		rep:      rep,
		wrongRep: wrongRep,
		mux:      mux,
		realKey:  realKey,
		forgeKey: crypto.MustGenerateKeyPair(),
		confirms: make(chan types.PaymentID, 64),
	}
	h.mux.Register(transport.ChanPayment, h.onMessage)
	return h
}

func (h *HostileClient) onMessage(_ transport.NodeID, payload []byte) {
	first, count, ok := core.DecodeConfirm(payload)
	if !ok || first.Spender != h.id {
		return
	}
	for i := uint32(0); i < count; i++ {
		select {
		case h.confirms <- types.PaymentID{Spender: h.id, Seq: first.Seq + types.Seq(i)}:
		default:
			return // buffer full: the rest of the run is not needed either
		}
	}
}

// ID returns the corrupted identity.
func (h *HostileClient) ID() types.ClientID { return h.id }

func (h *HostileClient) repNode() transport.NodeID { return transport.ReplicaNode(h.rep) }

// sign signs with the identity's genuine key, or returns nil without
// client auth (replicas then skip the signature check entirely).
func (h *HostileClient) sign(p types.Payment) []byte {
	if h.realKey == nil {
		return nil
	}
	sig, _ := h.realKey.Sign(core.PaymentDigest(p))
	return sig
}

func (h *HostileClient) send(to transport.NodeID, ch transport.Channel, frame []byte) {
	_ = h.mux.Send(to, ch, frame)
	h.Volleys.Add(1)
}

// SettleOne legitimately settles one payment under the corrupted
// identity, returning the payment and its byte-identical submit frame —
// the settled history the replay and equivocation volleys attack.
// Resends through loss until confirmed or the timeout expires.
func (h *HostileClient) SettleOne(ben types.ClientID, amt types.Amount, timeout time.Duration) (types.Payment, []byte, error) {
	p := types.Payment{Spender: h.id, Seq: 1, Beneficiary: ben, Amount: amt}
	frame := core.EncodeSubmit(p, h.sign(p))
	deadline := time.Now().Add(timeout)
	for {
		if err := h.mux.Send(h.repNode(), transport.ChanPayment, frame); err != nil && time.Now().After(deadline) {
			return p, frame, err
		}
		select {
		case id := <-h.confirms:
			if id == p.ID() {
				return p, frame, nil
			}
		case <-time.After(250 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return p, frame, fmt.Errorf("sim: hostile seed payment unconfirmed after %v", timeout)
		}
	}
}

// Equivocate double-spends one sequence slot at the legitimate
// representative: two conflicting payments, same (spender, seq), both
// signed with the identity's genuine key. At most one can ever settle;
// the other is refused before it occupies a broadcast slot
// (EdgeStats.Conflicting — or SettledReplay once a variant settles and
// its twin keeps arriving).
func (h *HostileClient) Equivocate(seq types.Seq, benA, benB types.ClientID) {
	pa := types.Payment{Spender: h.id, Seq: seq, Beneficiary: benA, Amount: 1}
	pb := types.Payment{Spender: h.id, Seq: seq, Beneficiary: benB, Amount: 1}
	h.send(h.repNode(), transport.ChanPayment, core.EncodeSubmit(pa, h.sign(pa)))
	h.send(h.repNode(), transport.ChanPayment, core.EncodeSubmit(pb, h.sign(pb)))
}

// ForgedSig submits a conflicting variant of settled history signed with
// the unregistered key. Under client auth the signature check rejects it
// (EdgeStats.BadSig); without auth the conflict screen does
// (EdgeStats.Conflicting) — it never settles either way.
func (h *HostileClient) ForgedSig(settled types.Payment) {
	p := settled
	p.Beneficiary++
	sig, _ := h.forgeKey.Sign(core.PaymentDigest(p))
	h.send(h.repNode(), transport.ChanPayment, core.EncodeSubmit(p, sig))
}

// SpoofAs submits a payment claiming another client as spender. The
// sender-node check refuses it before any crypto (EdgeStats.Spoofed).
func (h *HostileClient) SpoofAs(victim types.ClientID, seq types.Seq, ben types.ClientID) {
	p := types.Payment{Spender: victim, Seq: seq, Beneficiary: ben, Amount: 1}
	h.send(h.repNode(), transport.ChanPayment, core.EncodeSubmit(p, nil))
}

// WrongRepSubmit aims an otherwise-valid own payment at a replica that
// does not represent the spender — the cross-representative half of a
// double-spend (EdgeStats.WrongRep at the receiver).
func (h *HostileClient) WrongRepSubmit(p types.Payment) {
	h.send(transport.ReplicaNode(h.wrongRep), transport.ChanPayment, core.EncodeSubmit(p, h.sign(p)))
}

// SeqRace probes the sequence-number edges around SyncSeq: the
// never-settleable Seq 0 (EdgeStats.SeqZero) and a sequence far beyond
// the window (EdgeStats.FutureSeq) that would otherwise strand an
// unbounded gap queue.
func (h *HostileClient) SeqRace(ben types.ClientID) {
	p0 := types.Payment{Spender: h.id, Seq: 0, Beneficiary: ben, Amount: 1}
	pf := types.Payment{Spender: h.id, Seq: 1 << 40, Beneficiary: ben, Amount: 1}
	h.send(h.repNode(), transport.ChanPayment, core.EncodeSubmit(p0, h.sign(p0)))
	h.send(h.repNode(), transport.ChanPayment, core.EncodeSubmit(pf, h.sign(pf)))
	h.send(h.repNode(), transport.ChanPayment, core.EncodeSeqReq(h.id))
}

// Replay resends a captured byte-identical settled submit frame. The
// replica re-confirms instead of re-settling (EdgeStats.SettledReplay).
func (h *HostileClient) Replay(settledFrame []byte) {
	h.send(h.repNode(), transport.ChanPayment, settledFrame)
}

// CreditStorm aims hostile credit-channel traffic at the representative:
// a CREDITTAB and a CREDIT claiming a replica signature over settled
// history, and a re-sign flood over it. All die
// at the sender-class check (EdgeStats.CreditOutsider) on Astro II; on
// Astro I the unregistered channel discards them at the mux.
func (h *HostileClient) CreditStorm(settled types.Payment) {
	h.send(h.repNode(), transport.ChanCredit, core.EncodeCreditTab(h.rep, []byte("forged"), []types.Payment{settled}))
	h.send(h.repNode(), transport.ChanCredit, core.EncodeCreditForged(h.rep, []types.Payment{settled}, []byte("forged")))
	h.send(h.repNode(), transport.ChanCredit, core.EncodeCreditRedoRaw([][]types.Payment{{settled}}))
}

// Junk sends undecodable bytes and reflected control frames (a
// confirmation aimed *at* a replica) — both counted as malformed.
func (h *HostileClient) Junk() {
	h.send(h.repNode(), transport.ChanPayment, []byte{0xee, 0x01, 0xfe})
	h.send(h.repNode(), transport.ChanPayment, core.EncodeConfirm(types.PaymentID{Spender: h.id, Seq: 1}, 1))
}

// Storm drives the full attack mix against the settled seed payment
// until stop closes; run it on its own goroutine. Volleys are paced to
// model a bandwidth-bounded attacker (~17 frames per 5ms, a few
// thousand hostile frames per second): the edge hardening bounds the
// *per-frame* cost and the *state* an attacker can occupy, not the raw
// packet rate of the attacker's uplink — an unpaced in-memory loop would
// just measure host scheduling, with every frame queued ahead of honest
// traffic on the shared inbound lanes.
func (h *HostileClient) Storm(stop <-chan struct{}, settled types.Payment, settledFrame []byte) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		h.Equivocate(settled.Seq+1, settled.Beneficiary, settled.Beneficiary+1)
		h.ForgedSig(settled)
		h.SpoofAs(settled.Beneficiary, 1, h.id)
		h.WrongRepSubmit(settled)
		h.SeqRace(settled.Beneficiary)
		h.Replay(settledFrame)
		h.CreditStorm(settled)
		h.Junk()
		time.Sleep(5 * time.Millisecond)
	}
}
