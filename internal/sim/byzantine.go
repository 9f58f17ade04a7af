package sim

// Byzantine replica behaviors: pluggable fault injectors that interpose
// on a replica's protocol traffic at the transport boundary, below the
// Mux. A behavior sees every frame the replica sends or receives — with
// the mux channel tag as frame[0] — and may mutate it, suppress it, or
// emit extra forged frames from the replica's own endpoint (receivers
// attribute frames to transport addresses, so a faulty replica can only
// ever speak as itself; it cannot spoof others, exactly as in the
// paper's model where channels are authenticated).
//
// Every replica endpoint is permanently wrapped (the wrapper is inert
// until armed), so behaviors can be attached and detached while the
// system runs — the experiment harness flips them on mid-run like any
// other FaultKind.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"astro/internal/brb"
	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/reconfig"
	"astro/internal/transport"
	"astro/internal/types"
)

// Emit sends an extra, behavior-forged frame (channel tag included) from
// the faulty replica's endpoint.
type Emit func(to transport.NodeID, frame []byte)

// Behavior is a Byzantine strategy. Outbound interposes on frames the
// replica is about to send, Inbound on frames arriving before the honest
// stack sees them. Both return the frame to deliver — possibly mutated —
// or nil to suppress it. frame[0] is the transport.Channel tag; helpers
// below split and rebuild it. Implementations must be safe for
// concurrent calls: sends originate from many lanes.
type Behavior interface {
	Name() string
	Outbound(to transport.NodeID, frame []byte, emit Emit) []byte
	Inbound(from transport.NodeID, frame []byte, emit Emit) []byte
}

// frameChan returns a frame's channel tag (0 for empty frames).
func frameChan(frame []byte) transport.Channel {
	if len(frame) == 0 {
		return 0
	}
	return transport.Channel(frame[0])
}

// reframe prepends a channel tag to a protocol body.
func reframe(ch transport.Channel, body []byte) []byte {
	out := make([]byte, 0, 1+len(body))
	out = append(out, byte(ch))
	return append(out, body...)
}

// byzEndpoint wraps a replica's endpoint with a swappable behavior. It
// sits between the Mux and the (possibly chaos-wrapped) transport, so
// forged frames still traverse chaos and the network model like any
// honest frame.
type byzEndpoint struct {
	inner    transport.Endpoint
	behavior atomic.Pointer[Behavior]
}

var _ transport.Endpoint = (*byzEndpoint)(nil)

func newByzEndpoint(inner transport.Endpoint) *byzEndpoint {
	return &byzEndpoint{inner: inner}
}

// Set arms (or, with nil, disarms) the behavior.
func (e *byzEndpoint) Set(b Behavior) {
	if b == nil {
		e.behavior.Store(nil)
		return
	}
	e.behavior.Store(&b)
}

func (e *byzEndpoint) ID() transport.NodeID { return e.inner.ID() }
func (e *byzEndpoint) Close() error         { return e.inner.Close() }

func (e *byzEndpoint) emit(to transport.NodeID, frame []byte) {
	_ = e.inner.Send(to, frame)
}

func (e *byzEndpoint) Send(to transport.NodeID, payload []byte) error {
	bp := e.behavior.Load()
	if bp == nil {
		return e.inner.Send(to, payload)
	}
	out := (*bp).Outbound(to, payload, e.emit)
	if out == nil {
		return nil
	}
	return e.inner.Send(to, out)
}

func (e *byzEndpoint) SetHandler(h transport.Handler) {
	e.inner.SetHandler(func(from transport.NodeID, payload []byte) {
		bp := e.behavior.Load()
		if bp != nil {
			payload = (*bp).Inbound(from, payload, e.emit)
			if payload == nil {
				return
			}
		}
		h(from, payload)
	})
}

// NopBehavior is an embeddable pass-through: override only the hook a
// strategy needs.
type NopBehavior struct{}

func (NopBehavior) Outbound(_ transport.NodeID, frame []byte, _ Emit) []byte { return frame }
func (NopBehavior) Inbound(_ transport.NodeID, frame []byte, _ Emit) []byte  { return frame }

// ---------------------------------------------------------------------
// Equivocation
// ---------------------------------------------------------------------

// Equivocate sends conflicting slot contents to different peers: victims
// receive a variant-B PREPARE whose batch pays a shifted beneficiary,
// everyone else the honest variant A. Both variants carry the
// equivocator's own link tag, so receivers accept either as its PREPARE.
// The behavior harvests inbound acks for B (its honest stack only
// collects A's), so with a colluding AckAll accomplice it can assemble a
// full certificate of non-origin acks for B and commit both variants —
// the f+1 break the auditor must catch. With at most f faulty replicas B
// can never reach a quorum: victims ack B but then deliver A through its
// valid commit, and every invariant holds — the paper's tolerance claim,
// demonstrated.
type Equivocate struct {
	Self    types.ReplicaID
	Auth    *crypto.LinkAuthenticator // the equivocator's own PREPARE authenticator (keyed by its key pair)
	Quorum  int                       // brb.CertQuorum non-origin acks for the shard
	Victims map[transport.NodeID]bool // peers fed variant B
	// Accomplices are colluding peers that receive variant B as an extra
	// PREPARE alongside the honest variant A. On their own the extra
	// prepares are harmless (an honest stack acks one digest per
	// instance); paired with an AckAll behavior on the accomplice, both
	// variants get signed — the extra signature that pushes certB past
	// the quorum in f+1 collusion scenarios.
	Accomplices map[transport.NodeID]bool
	// WithholdFromVictims suppresses honest variant-A commits to the
	// victim set, so a victim's first commit for an equivocated slot is
	// the forged B one (armed only in f+1 collusion scenarios; leaving
	// it false lets victims converge on A and masks the attack).
	WithholdFromVictims bool

	mu    sync.Mutex
	insts map[brbInstance]*equivInstance

	Equivocated  atomic.Uint64 // variant-B prepares sent
	ForgedCommit atomic.Uint64 // forged B commits emitted
}

type brbInstance struct {
	Origin types.ReplicaID
	Slot   uint64
}

type equivInstance struct {
	payloadB  []byte
	digestB   types.Digest
	certB     brb.AckCert
	committed bool
}

func (b *Equivocate) Name() string { return "equivocate" }

// mutateBatch derives variant B from an honest batch payload: every
// payment's beneficiary is shifted by one, which keeps the batch
// decodable and settleable (same spender, seq, amount, deps) while
// diverging the xlog content any receiver settles.
func mutateBatch(payload []byte) ([]byte, bool) {
	entries, err := core.DecodeBatch(payload)
	if err != nil || len(entries) == 0 {
		return nil, false
	}
	for i := range entries {
		entries[i].Payment.Beneficiary++
	}
	return core.EncodeBatch(entries), true
}

func (b *Equivocate) inst(id brbInstance) *equivInstance {
	// caller holds b.mu
	if b.insts == nil {
		b.insts = make(map[brbInstance]*equivInstance)
	}
	in := b.insts[id]
	if in == nil {
		in = &equivInstance{}
		b.insts[id] = in
	}
	return in
}

func (b *Equivocate) Outbound(to transport.NodeID, frame []byte, emit Emit) []byte {
	if frameChan(frame) != transport.ChanBRB {
		return frame
	}
	body := frame[1:]
	switch {
	case brb.FrameKind(body) == brb.KindPrepare:
		origin, slot, payload, _, ok := brb.DecodePrepare(body)
		if !ok || origin != b.Self {
			return frame
		}
		id := brbInstance{origin, slot}
		b.mu.Lock()
		in := b.inst(id)
		if in.payloadB == nil {
			pb, ok := mutateBatch(payload)
			if !ok {
				b.mu.Unlock()
				return frame
			}
			in.payloadB = pb
			in.digestB = brb.SignedDigest(origin, slot, pb)
		}
		variantB := in.payloadB
		b.mu.Unlock()
		if b.Victims[to] {
			b.Equivocated.Add(1)
			return reframe(transport.ChanBRB, brb.EncodeSignedPrepare(b.Auth, types.ReplicaID(to), origin, slot, variantB))
		}
		if b.Accomplices[to] {
			b.Equivocated.Add(1)
			emit(to, reframe(transport.ChanBRB, brb.EncodeSignedPrepare(b.Auth, types.ReplicaID(to), origin, slot, variantB)))
		}
		return frame
	case brb.IsCommitKind(brb.FrameKind(body)) && b.WithholdFromVictims && b.Victims[to]:
		// Victims only ever see the forged B commit (sent from Inbound
		// once the colluding certificate completes).
		return nil
	}
	return frame
}

// Inbound harvests the acks for variant B: the entries of ACKBATCH chains
// addressed to this replica — every ack is a chain signature, a lone ack
// a chain of one, and a chain signature endorses each entry it lists.
func (b *Equivocate) Inbound(from transport.NodeID, frame []byte, emit Emit) []byte {
	if frameChan(frame) != transport.ChanBRB {
		return frame
	}
	chain, sig, ok := brb.DecodeAckBatch(frame[1:])
	if !ok {
		return frame
	}
	signer := types.ReplicaID(from)
	var commits [][]byte
	b.mu.Lock()
	for _, e := range chain {
		if e.Origin != b.Self {
			continue
		}
		in := b.insts[brbInstance{b.Self, e.Slot}]
		if in == nil || e.Digest != in.digestB || in.committed || in.certB.Has(signer) {
			continue
		}
		in.certB.Sigs = append(in.certB.Sigs, brb.AckSig{Replica: signer, Sig: sig, Chain: chain})
		if in.certB.Len() >= b.Quorum {
			in.committed = true
			commits = append(commits, reframe(transport.ChanBRB, brb.EncodeCommitTab(b.Self, e.Slot, in.payloadB, in.certB)))
		}
	}
	b.mu.Unlock()
	for _, commitB := range commits {
		for v := range b.Victims {
			emit(v, commitB)
			b.ForgedCommit.Add(1)
		}
	}
	return frame
}

// AckAll is the accomplice to Equivocate: it acknowledges every PREPARE
// it receives — including a second, conflicting payload for an instance
// it already acked, which an honest replica never signs. On its own it
// is harmless (duplicate acks for one digest dedupe); combined with an
// equivocator it is the non-origin signer that pushes a conflicting
// certificate to 2f acks, modeling f+1 collusion. It acks without
// checking the link tag: the equivocator tags its variants honestly.
type AckAll struct {
	NopBehavior
	Self types.ReplicaID
	Keys *crypto.KeyPair

	Forged atomic.Uint64
}

func (b *AckAll) Name() string { return "ack-all" }

func (b *AckAll) Inbound(from transport.NodeID, frame []byte, emit Emit) []byte {
	if frameChan(frame) != transport.ChanBRB {
		return frame
	}
	origin, slot, payload, _, ok := brb.DecodePrepare(frame[1:])
	if !ok || types.ReplicaID(from) != origin {
		return frame
	}
	if ack, err := brb.ForgeAck(b.Keys, origin, slot, payload); err == nil {
		emit(from, reframe(transport.ChanBRB, ack))
		b.Forged.Add(1)
	}
	return frame
}

// ---------------------------------------------------------------------
// Withheld commits
// ---------------------------------------------------------------------

// WithholdCommits signs acks like an honest replica but never emits a
// commit certificate (the COMMITTAB) for its own broadcasts. Its clients'
// payments collect acks and stall forever;
// nobody else is harmed — the canonical "crash at the most annoying
// step" Byzantine strategy.
type WithholdCommits struct {
	NopBehavior

	Suppressed atomic.Uint64
}

func (b *WithholdCommits) Name() string { return "withhold-commits" }

func (b *WithholdCommits) Outbound(_ transport.NodeID, frame []byte, _ Emit) []byte {
	if frameChan(frame) == transport.ChanBRB && brb.IsCommitKind(brb.FrameKind(frame[1:])) {
		b.Suppressed.Add(1)
		return nil
	}
	return frame
}

// ---------------------------------------------------------------------
// Forged credit chains
// ---------------------------------------------------------------------

// ForgeChainRefs corrupts the inline chain of every CREDITTAB this replica
// sends (core.CorruptCreditTab) so that it is no longer the chain the
// wave's signature covers. Every CREDIT is a CREDITTAB — a lone credit
// group is a wave of one — so the attack engages on every credit frame
// the replica sends, whatever the load. Honest receivers must shrug: the
// forged chain fails verification, this signer's credit signatures never
// count, and the other signers complete the certificate.
type ForgeChainRefs struct {
	NopBehavior
	Salt byte

	Corrupted atomic.Uint64
}

func (b *ForgeChainRefs) Name() string { return "forge-chain-refs" }

func (b *ForgeChainRefs) Outbound(_ transport.NodeID, frame []byte, _ Emit) []byte {
	if frameChan(frame) == transport.ChanCredit {
		if mut, ok := core.CorruptCreditTab(frame[1:], b.Salt); ok {
			b.Corrupted.Add(1)
			return reframe(transport.ChanCredit, mut)
		}
	}
	return frame
}

// ---------------------------------------------------------------------
// Stale-view reconfiguration
// ---------------------------------------------------------------------

// StaleViewReconfig spams the reconfiguration channel with stale ADOPT
// announcements (view numbers at or below the installed view) and
// forged INSTALLs carrying garbage certificates. Honest managers must
// reject both — monotonicity for the adopts, 2f+1 certificate
// verification for the installs — and keep the live view. Triggered off
// inbound broadcast traffic, throttled to one volley per Every frames.
type StaleViewReconfig struct {
	NopBehavior
	Self  types.ReplicaID
	Peers []transport.NodeID // shard members to spam
	View  reconfig.View      // a stale view (Num <= installed)
	Every int                // volley throttle (default 64)

	seen    atomic.Uint64
	Volleys atomic.Uint64
}

func (b *StaleViewReconfig) Name() string { return "stale-view-reconfig" }

func (b *StaleViewReconfig) Inbound(_ transport.NodeID, frame []byte, emit Emit) []byte {
	every := uint64(b.Every)
	if every == 0 {
		every = 64
	}
	if b.seen.Add(1)%every != 1 {
		return frame
	}
	adopt := reframe(transport.ChanReconfig, reconfig.ForgeStaleAdopt(b.View))
	install := reframe(transport.ChanReconfig, reconfig.ForgeInstall(
		reconfig.View{Num: b.View.Num + 1000, Members: b.View.Members},
		b.Self, []byte("bogus-public-key"), crypto.Certificate{},
	))
	for _, p := range b.Peers {
		emit(p, adopt)
		emit(p, install)
	}
	b.Volleys.Add(1)
	return frame
}

// ---------------------------------------------------------------------
// Fault-kind arming
// ---------------------------------------------------------------------

// NewBehavior builds the canonical behavior for a Byzantine FaultKind
// with shard-derived defaults: the equivocator targets the last non-self
// member of the shard and tags its variants with auth, the replica's own
// PREPARE authenticator (crypto.NewKeyedLinkAuthenticator over its key
// pair); the stale-view spammer addresses the whole shard
// with the genesis view. members must include self. Exported so
// out-of-process deployments (cmd/astro-node -fault) arm the same
// behaviors the in-process matrix runs; scenario code needing custom
// victim sets or collusion builds the Behavior literal itself.
func NewBehavior(kind FaultKind, self types.ReplicaID, auth *crypto.LinkAuthenticator, members []types.ReplicaID) (Behavior, error) {
	var peers []transport.NodeID
	for _, m := range members {
		if m != self {
			peers = append(peers, transport.ReplicaNode(m))
		}
	}
	switch kind {
	case FaultEquivocate:
		victims := map[transport.NodeID]bool{}
		if len(peers) > 0 {
			victims[peers[len(peers)-1]] = true
		}
		return &Equivocate{
			Self:    self,
			Auth:    auth,
			Quorum:  brb.CertQuorum(len(members), types.MaxFaults(len(members))),
			Victims: victims,
		}, nil
	case FaultWithholdCommits:
		return &WithholdCommits{}, nil
	case FaultForgeRefs:
		return &ForgeChainRefs{Salt: 0x5a}, nil
	case FaultStaleView:
		return &StaleViewReconfig{
			Self:  self,
			Peers: peers,
			View:  reconfig.View{Num: 1, Members: members},
		}, nil
	default:
		return nil, fmt.Errorf("sim: %q is not a Byzantine fault kind", kind)
	}
}

// WrapBehavior interposes a Byzantine behavior on an endpoint — the
// standalone form of the cluster's always-present wrapper, for real
// deployments stacking tcpnet → chaos → behavior → Mux. A nil behavior
// returns a wrapper that is inert until armed through the cluster APIs;
// standalone callers pass the behavior they want.
func WrapBehavior(inner transport.Endpoint, b Behavior) transport.Endpoint {
	bz := newByzEndpoint(inner)
	bz.Set(b)
	return bz
}

// ArmFault arms the canonical behavior for a Byzantine FaultKind on the
// given replica (see NewBehavior).
func (c *AstroCluster) ArmFault(id types.ReplicaID, kind FaultKind) error {
	members := c.Topology.Replicas(c.Topology.ReplicaShard(id))
	b, err := NewBehavior(kind, id, c.Auth(id), members)
	if err != nil {
		return err
	}
	return c.SetBehavior(id, b)
}
