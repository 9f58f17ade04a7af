package brb

// Tests for chain-by-digest references: the CHAINDEF/COMMITREF/CHAINNACK
// codecs, the once-per-destination chain transmission, the NACK -> COMMITTAB
// retransmit fallback (never-seen and evicted chains), and the rejection
// of forged references.

import (
	"fmt"
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
	"astro/internal/wire"
)

func TestChainRefCodecRoundTrip(t *testing.T) {
	chain := []ChainEntry{
		{Origin: 2, Slot: 5, Digest: types.HashBytes([]byte("a"))},
		{Origin: 2, Slot: 6, Digest: types.HashBytes([]byte("b"))},
	}

	def := EncodeChainDef(chain)
	if len(def) != chainDefSize(chain) {
		t.Fatalf("chaindef size %d, want exact %d", len(def), chainDefSize(chain))
	}
	r := wire.NewReader(def)
	if k := r.U8(); k != kindChainDef {
		t.Fatalf("kind = %d", k)
	}
	back, err := decodeChainDef(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != chain[0] || back[1] != chain[1] {
		t.Fatalf("chaindef round trip mangled: %+v", back)
	}
	// Empty and over-cap definitions are rejected.
	if _, err := decodeChainDef(wire.NewReader(EncodeChainDef(nil)[1:])); err == nil {
		t.Fatal("empty chaindef accepted")
	}
	long := make([]ChainEntry, maxSignBatch+1)
	if _, err := decodeChainDef(wire.NewReader(EncodeChainDef(long)[1:])); err == nil {
		t.Fatal("over-cap chaindef accepted")
	}

	cd := AckChainDigest(chain)
	sigs := []refSig{
		{Replica: 0, Sig: []byte("plain")},
		{Replica: 3, Sig: []byte("chained"), HasRef: true, Ref: cd, Idx: 1},
	}
	msg := EncodeCommitRef(2, 6, []byte("payload"), sigs)
	if len(msg) != commitRefSize([]byte("payload"), sigs) {
		t.Fatalf("commitref size %d, want exact %d", len(msg), commitRefSize([]byte("payload"), sigs))
	}
	r = wire.NewReader(msg)
	if k := r.U8(); k != kindCommitRef {
		t.Fatalf("kind = %d", k)
	}
	if types.ReplicaID(r.U32()) != 2 || r.U64() != 6 {
		t.Fatal("commitref header mangled")
	}
	if string(r.Chunk()) != "payload" {
		t.Fatal("commitref payload mangled")
	}
	gotSigs, err := decodeCommitRef(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSigs) != 2 || gotSigs[0].HasRef || gotSigs[1].Ref != cd || gotSigs[1].Idx != 1 {
		t.Fatalf("commitref sigs mangled: %+v", gotSigs)
	}

	nack := EncodeChainNack(2, 6, []types.Digest{cd})
	if len(nack) != chainNackSize([]types.Digest{cd}) {
		t.Fatalf("nack size %d, want exact %d", len(nack), chainNackSize([]types.Digest{cd}))
	}
	r = wire.NewReader(nack)
	if k := r.U8(); k != kindChainNack {
		t.Fatalf("kind = %d", k)
	}
	if types.ReplicaID(r.U32()) != 2 || r.U64() != 6 {
		t.Fatal("nack header mangled")
	}
	missing, err := decodeChainNack(r)
	if err != nil || len(missing) != 1 || missing[0] != cd {
		t.Fatalf("nack digests mangled: %v %v", missing, err)
	}
}

// TestSignedLazyChainDefsDeliverAndSave is the wire-amortization
// acceptance test at the protocol level: a burst of k broadcasts whose
// acks batch into chains must commit through COMMITREFs with no definition
// sent ahead of a reference, so receivers missing a chain demand it (one
// NACK, answered with the definitions plus the reference — never the
// self-contained full form), while the origin itself and each acker's own
// chain resolve without any round trip (ACKBATCH learning and sign-time
// self-priming). Every delivery still completes in FIFO order, and the
// deferred-minus-demanded gap is the definition traffic nobody needed.
func TestSignedLazyChainDefsDeliverAndSave(t *testing.T) {
	pool := verifier.New(1)
	defer pool.Close()
	h := newHarness(t, protoSigned, 4, func(c *Config) { c.Verifier = pool })

	gate := make(chan struct{})
	entered := make(chan struct{})
	go pool.Async(func() {
		close(entered)
		<-gate
	})
	<-entered

	const k = 6
	for i := 1; i <= k; i++ {
		if _, err := h.bcs[0].Broadcast([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, bc := range h.bcs {
		s := bc.(*Signed)
		deadline := time.Now().Add(5 * time.Second)
		for s.ackSigner.Pending() != k {
			if time.Now().After(deadline) {
				t.Fatalf("pending acks = %d, want %d", s.ackSigner.Pending(), k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)

	want := 4 * k
	if got := h.waitDeliveries(want, 15*time.Second); got != want {
		t.Fatalf("deliveries = %d, want %d", got, want)
	}

	st := h.bcs[0].(*Signed).ChainRefStats()
	if st.FullSends != 0 {
		t.Fatalf("fell back to the self-contained full form: %+v", st)
	}
	if st.DefsDemanded >= st.RefsSent {
		t.Fatalf("lazy definitions saved nothing: %d references sent, %d definitions demanded", st.RefsSent, st.DefsDemanded)
	}
	// FIFO preserved through parking, NACK answers, and re-sent references.
	for r := 0; r < 4; r++ {
		d := h.deliveriesAt(types.ReplicaID(r))
		for i, dv := range d {
			if dv.slot != uint64(i+1) {
				t.Fatalf("replica %d delivery %d = slot %d", r, i, dv.slot)
			}
		}
	}
}

// refFixture is a lone Signed replica (id 1 of a 4-group) with a delivery
// channel, plus a raw endpoint at node 0 capturing the replica's BRB
// traffic — the stage for forged reference streams.
type refFixture struct {
	net      *memnet.Network
	registry *crypto.Registry
	keys     []*crypto.KeyPair
	replica  *Signed
	origin   *transport.Mux
	brbMsgs  chan []byte
	dlv      chan delivery
}

func newRefFixture(t *testing.T) *refFixture {
	t.Helper()
	fx := &refFixture{
		registry: crypto.NewRegistry(),
		brbMsgs:  make(chan []byte, 64),
		dlv:      make(chan delivery, 64),
	}
	net := memnet.New()
	fx.net = net
	t.Cleanup(net.Close)
	pool := verifier.New(2)
	t.Cleanup(pool.Close)
	var peers []types.ReplicaID
	for i := 0; i < 4; i++ {
		kp := crypto.MustGenerateKeyPair()
		fx.keys = append(fx.keys, kp)
		fx.registry.Add(types.ReplicaID(i), kp.Public())
		peers = append(peers, types.ReplicaID(i))
	}
	mux := transport.NewMux(net.Node(transport.ReplicaNode(1)))
	t.Cleanup(mux.Close)
	var err error
	fx.replica, err = NewSigned(Config{
		Mux:   mux,
		Self:  1,
		Peers: peers,
		F:     1,
		Deliver: func(origin types.ReplicaID, slot uint64, payload []byte) {
			fx.dlv <- delivery{origin: origin, slot: slot, payload: payload}
		},
		Keys:     fx.keys[1],
		Registry: fx.registry,
		Verifier: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.origin = transport.NewMux(net.Node(transport.ReplicaNode(0)))
	t.Cleanup(fx.origin.Close)
	fx.origin.Register(transport.ChanBRB, func(_ transport.NodeID, p []byte) {
		buf := make([]byte, len(p))
		copy(buf, p)
		fx.brbMsgs <- buf
	})
	return fx
}

// chainCert builds a quorum certificate of chain signatures by the given
// replicas over chain.
func (fx *refFixture) chainCert(t *testing.T, chain []ChainEntry, signers ...int) AckCert {
	t.Helper()
	cd := AckChainDigest(chain)
	var cert AckCert
	for _, i := range signers {
		sig, err := fx.keys[i].Sign(cd)
		if err != nil {
			t.Fatal(err)
		}
		cert.Sigs = append(cert.Sigs, AckSig{Replica: types.ReplicaID(i), Sig: sig, Chain: chain, ChainDigest: cd})
	}
	return cert
}

// refSigsFor converts a chain certificate into the reference form for the
// instance at chain index idx.
func refSigsFor(cert AckCert, idx uint32) []refSig {
	var sigs []refSig
	for _, a := range cert.Sigs {
		sigs = append(sigs, refSig{Replica: a.Replica, Sig: a.Sig, HasRef: true, Ref: a.ChainDigest, Idx: idx})
	}
	return sigs
}

func (fx *refFixture) expectNack(t *testing.T, slot uint64, want types.Digest) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-fx.brbMsgs:
			r := wire.NewReader(m)
			if r.U8() != kindChainNack {
				continue // acks etc. from the replica's own protocol
			}
			if types.ReplicaID(r.U32()) != 0 || r.U64() != slot {
				t.Fatal("NACK for wrong instance")
			}
			missing, err := decodeChainNack(r)
			if err != nil || len(missing) != 1 || missing[0] != want {
				t.Fatalf("NACK digests = %v, %v", missing, err)
			}
			return
		case <-deadline:
			t.Fatal("no CHAINNACK for unresolvable COMMITREF")
		}
	}
}

func (fx *refFixture) expectDelivery(t *testing.T, slot uint64, payload string) {
	t.Helper()
	select {
	case d := <-fx.dlv:
		if d.origin != 0 || d.slot != slot || string(d.payload) != payload {
			t.Fatalf("delivered %+v, want slot %d %q", d, slot, payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("slot %d never delivered", slot)
	}
}

// TestCommitRefUnknownChainNacksAndRecovers: a COMMITREF naming a chain
// the receiver has never seen must trigger a CHAINNACK naming the digest,
// the self-contained COMMITTAB retransmit must deliver AND re-prime the
// chain cache — so the next COMMITREF over the same chain resolves with no
// further round trip.
func TestCommitRefUnknownChainNacksAndRecovers(t *testing.T) {
	fx := newRefFixture(t)
	p1, p2 := []byte("wave-slot-1"), []byte("wave-slot-2")
	chain := []ChainEntry{
		{Origin: 0, Slot: 1, Digest: SignedDigest(0, 1, p1)},
		{Origin: 0, Slot: 2, Digest: SignedDigest(0, 2, p2)},
	}
	cert := fx.chainCert(t, chain, 0, 2, 3)
	cd := AckChainDigest(chain)

	// Reference without definition: NACK, no delivery.
	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, EncodeCommitRef(0, 1, p1, refSigsFor(cert, 0))); err != nil {
		t.Fatal(err)
	}
	fx.expectNack(t, 1, cd)
	select {
	case d := <-fx.dlv:
		t.Fatalf("unresolvable commit delivered: %+v", d)
	default:
	}

	// The origin's fallback: the self-contained COMMITTAB. It delivers and
	// re-primes the cache with the tabled chain.
	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, EncodeCommitTab(0, 1, p1, cert)); err != nil {
		t.Fatal(err)
	}
	fx.expectDelivery(t, 1, string(p1))

	// Slot 2 through the reference alone — the cache now knows the chain.
	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, EncodeCommitRef(0, 2, p2, refSigsFor(cert, 1))); err != nil {
		t.Fatal(err)
	}
	fx.expectDelivery(t, 2, string(p2))
	if st := fx.replica.ChainRefStats(); st.RefHits == 0 || st.NacksSent != 1 {
		t.Fatalf("stats after recovery: %+v", st)
	}
}

// TestCommitRefParkedBehindDeadOriginNacksOwnSender: two origins' commits
// reference one chain the receiver lacks. The first origin's NACK is never
// answered (it crashed after sending its commit), so the second origin's
// reference must demand the definition from its own sender rather than
// wait on the first NACK; the answer then delivers both commits.
func TestCommitRefParkedBehindDeadOriginNacksOwnSender(t *testing.T) {
	fx := newRefFixture(t)
	origin2 := transport.NewMux(fx.net.Node(transport.ReplicaNode(2)))
	t.Cleanup(origin2.Close)
	nacks2 := make(chan []byte, 64)
	origin2.Register(transport.ChanBRB, func(_ transport.NodeID, p []byte) {
		if len(p) > 0 && p[0] == kindChainNack {
			nacks2 <- append([]byte(nil), p...)
		}
	})
	p0, p2 := []byte("origin-0-slot-1"), []byte("origin-2-slot-1")
	chain := []ChainEntry{
		{Origin: 0, Slot: 1, Digest: SignedDigest(0, 1, p0)},
		{Origin: 2, Slot: 1, Digest: SignedDigest(2, 1, p2)},
	}
	cert := fx.chainCert(t, chain, 0, 2, 3)
	cd := AckChainDigest(chain)

	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, EncodeCommitRef(0, 1, p0, refSigsFor(cert, 0))); err != nil {
		t.Fatal(err)
	}
	fx.expectNack(t, 1, cd) // origin 0 never answers
	ref2 := EncodeCommitRef(2, 1, p2, refSigsFor(cert, 1))
	if err := origin2.Send(transport.ReplicaNode(1), transport.ChanBRB, ref2); err != nil {
		t.Fatal(err)
	}
	select {
	case <-nacks2:
	case <-time.After(5 * time.Second):
		t.Fatal("reference parked behind another origin's unanswered NACK")
	}
	for _, m := range [][]byte{EncodeChainDef(chain), ref2} {
		if err := origin2.Send(transport.ReplicaNode(1), transport.ChanBRB, m); err != nil {
			t.Fatal(err)
		}
	}
	got := map[types.ReplicaID]bool{}
	for len(got) < 2 {
		select {
		case d := <-fx.dlv:
			got[d.origin] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered origins %v, want 0 and 2", got)
		}
	}
}

// TestCommitRefEvictionDegradesToFull: with the per-peer cache shrunk to
// one chain, defining a second chain evicts the first, and a reference to
// the evicted chain must NACK — the explicit eviction leg of the fallback.
func TestCommitRefEvictionDegradesToFull(t *testing.T) {
	fx := newRefFixture(t)
	fx.replica.chainsKnown.SetCapacity(1) // before any traffic: per-peer LRUs build lazily

	p1 := []byte("evicted-slot")
	chainA := []ChainEntry{{Origin: 0, Slot: 1, Digest: SignedDigest(0, 1, p1)}}
	chainB := []ChainEntry{{Origin: 0, Slot: 9, Digest: types.HashBytes([]byte("other"))}}
	certA := fx.chainCert(t, chainA, 0, 2, 3)

	for _, def := range [][]byte{EncodeChainDef(chainA), EncodeChainDef(chainB)} {
		if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, def); err != nil {
			t.Fatal(err)
		}
	}
	// chainB's definition evicted chainA (capacity 1): the reference to
	// chainA must NACK, and the COMMITTAB resend must still deliver.
	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, EncodeCommitRef(0, 1, p1, refSigsFor(certA, 0))); err != nil {
		t.Fatal(err)
	}
	fx.expectNack(t, 1, AckChainDigest(chainA))
	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, EncodeCommitTab(0, 1, p1, certA)); err != nil {
		t.Fatal(err)
	}
	fx.expectDelivery(t, 1, string(p1))
}

// TestCommitRefForgeries: references that resolve but do not endorse the
// instance must not deliver — a chain whose indexed entry names a
// different payload digest, and an index beyond the chain's length.
func TestCommitRefForgeries(t *testing.T) {
	fx := newRefFixture(t)
	real := []byte("real-payload")
	chain := []ChainEntry{{Origin: 0, Slot: 1, Digest: SignedDigest(0, 1, []byte("other-payload"))}}
	cert := fx.chainCert(t, chain, 0, 2, 3)
	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, EncodeChainDef(chain)); err != nil {
		t.Fatal(err)
	}

	// Entry digest does not match the committed payload.
	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, EncodeCommitRef(0, 1, real, refSigsFor(cert, 0))); err != nil {
		t.Fatal(err)
	}
	// Index out of the chain's range.
	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, EncodeCommitRef(0, 1, real, refSigsFor(cert, 7))); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-fx.dlv:
		t.Fatalf("forged reference delivered: %+v", d)
	case <-time.After(300 * time.Millisecond):
	}
}
