package brb

// Tests for ack signing: the pool-side signer (no ECDSA on a dispatch
// goroutine, a lone ack signed as a chain of one, chains amortizing one
// signature over many instances), the chain and tabled-commit codecs, and
// the commit verification rules for chain signatures.

import (
	"bytes"
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

func TestAckChainCodecRoundTrip(t *testing.T) {
	chain := []ChainEntry{
		{Origin: 3, Slot: 17, Digest: types.HashBytes([]byte("a"))},
		{Origin: 0, Slot: 1, Digest: types.HashBytes([]byte("b"))},
	}
	sig := []byte("not-a-real-signature")
	msg := EncodeAckBatch(chain, sig)
	if len(msg) != ackBatchSize(chain, sig) {
		t.Fatalf("encoded size %d, want exact %d", len(msg), ackBatchSize(chain, sig))
	}
	r := wire.NewReader(msg)
	if k := r.U8(); k != kindAckBatch {
		t.Fatalf("kind = %d", k)
	}
	got, err := decodeChain(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(chain) {
		t.Fatalf("chain length %d, want %d", len(got), len(chain))
	}
	for i := range chain {
		if got[i] != chain[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], chain[i])
		}
	}
	if !bytes.Equal(r.Chunk(), sig) || r.Finish() != nil {
		t.Fatal("signature round trip failed")
	}

	lone := []ChainEntry{{Origin: 3, Slot: 17, Digest: types.HashBytes([]byte("a"))}}
	cert := AckCert{Sigs: []AckSig{
		{Replica: 1, Sig: []byte("s1"), Chain: lone},  // a lone ack: a chain of one
		{Replica: 2, Sig: []byte("s2"), Chain: chain}, // two acks under one signature
		{Replica: 3, Sig: []byte("s3"), Chain: chain}, // same chain: one table entry
	}}
	payload := []byte("payload")
	commit := EncodeCommitTab(3, 17, payload, cert)
	if table, _ := commitChainTable(cert); len(table) != 2 || len(commit) != commitTabSize(payload, table, cert) {
		t.Fatalf("commit size %d with a table of %d chains", len(commit), len(table))
	}
	rc := wire.NewReader(commit[headerSize:])
	if string(rc.Chunk()) != string(payload) {
		t.Fatal("commit payload mangled")
	}
	back, err := decodeCommitTab(rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sigs) != 3 || len(back.Sigs[0].Chain) != 1 || back.Sigs[0].Chain[0] != lone[0] || len(back.Sigs[1].Chain) != 2 || &back.Sigs[1].Chain[0] != &back.Sigs[2].Chain[0] {
		t.Fatalf("cert round trip: %+v", back)
	}
	if cd := AckChainDigest(chain); back.Sigs[1].ChainDigest != cd || back.Sigs[2].ChainDigest != cd || back.Sigs[0].ChainDigest != AckChainDigest(lone) {
		t.Fatal("chain digest changed across codec round trip")
	}
}

func TestAckChainDigestDomainSeparation(t *testing.T) {
	// A chain of one entry must not collide with the entry's own ack
	// digest, or a signature over the bare ack digest could be replayed
	// as an ack.
	d := SignedDigest(1, 1, []byte("payload"))
	chain := []ChainEntry{{Origin: 1, Slot: 1, Digest: d}}
	if AckChainDigest(chain) == d {
		t.Fatal("chain digest equals the entry's ack digest")
	}
}

// asyncSignFixture is a lone Signed replica (id 1 of a 4-group) on a real
// mux, with a dedicated 1-worker pool the test can wedge, and a raw
// endpoint at the origin's address (id 0) capturing what the replica
// sends back.
type asyncSignFixture struct {
	net      *memnet.Network
	pool     *verifier.Verifier
	registry *crypto.Registry
	keys     []*crypto.KeyPair
	replica  *Signed
	mux      *transport.Mux // the replica's mux
	origin   *transport.Mux // endpoint 0, capturing acks
	brbMsgs  chan []byte    // raw ChanBRB traffic arriving at the origin
}

func newAsyncSignFixture(t *testing.T) *asyncSignFixture {
	t.Helper()
	fx := &asyncSignFixture{
		net:      memnet.New(),
		pool:     verifier.New(1),
		registry: crypto.NewRegistry(),
		brbMsgs:  make(chan []byte, 64),
	}
	t.Cleanup(fx.net.Close)
	t.Cleanup(fx.pool.Close)
	var peers []types.ReplicaID
	for i := 0; i < 4; i++ {
		kp := testKeys(types.ReplicaID(i))
		fx.keys = append(fx.keys, kp)
		fx.registry.Add(types.ReplicaID(i), kp.Public())
		peers = append(peers, types.ReplicaID(i))
	}
	fx.mux = transport.NewMux(fx.net.Node(transport.ReplicaNode(1)))
	t.Cleanup(fx.mux.Close)
	var err error
	fx.replica, err = NewSigned(Config{
		Mux:      fx.mux,
		Self:     1,
		Peers:    peers,
		F:        1,
		Deliver:  func(types.ReplicaID, uint64, []byte) {},
		Keys:     fx.keys[1],
		Registry: fx.registry,
		Verifier: fx.pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.origin = transport.NewMux(fx.net.Node(transport.ReplicaNode(0)))
	t.Cleanup(fx.origin.Close)
	fx.origin.Register(transport.ChanBRB, func(_ transport.NodeID, p []byte) {
		buf := make([]byte, len(p))
		copy(buf, p)
		fx.brbMsgs <- buf
	})
	return fx
}

// wedgePool occupies the fixture's single worker until the returned
// release function is called.
func (fx *asyncSignFixture) wedgePool() (release func()) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	go fx.pool.Async(func() {
		close(entered)
		<-gate
	})
	<-entered
	return func() { close(gate) }
}

// TestSignedNoAckSignOnDispatchGoroutine is the acceptance test for the
// async sign path: with the sign pool wedged, a PREPARE must not produce
// an ack (nobody can sign), yet delivery on OTHER channels of the same
// endpoint proceeds — proving the dispatch goroutines neither sign nor
// wait on the signer. The ack appears once the pool frees up: an
// ACKBATCH whose chain of one is correctly signed.
func TestSignedNoAckSignOnDispatchGoroutine(t *testing.T) {
	fx := newAsyncSignFixture(t)
	release := fx.wedgePool()

	payload := []byte("batch-1")
	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, signedPrepare(0, 1, 1, payload)); err != nil {
		t.Fatal(err)
	}

	// Payment traffic to the same endpoint keeps flowing while the BRB
	// sign path is wedged.
	pay := make(chan struct{}, 1)
	fx.mux.Register(transport.ChanPayment, func(transport.NodeID, []byte) { pay <- struct{}{} })
	if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanPayment, []byte("submit")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pay:
	case <-time.After(2 * time.Second):
		t.Fatal("payment delivery blocked while the sign pool was wedged")
	}

	// No ack can have been produced: the only worker is wedged and
	// dispatch goroutines never sign.
	select {
	case m := <-fx.brbMsgs:
		t.Fatalf("ack emitted while the sign pool was wedged (kind %d)", m[0])
	case <-time.After(100 * time.Millisecond):
	}

	release()
	select {
	case m := <-fx.brbMsgs:
		chain, sig, ok := DecodeAckBatch(m)
		if !ok {
			t.Fatalf("kind = %d, want an ack batch", m[0])
		}
		want := ChainEntry{Origin: 0, Slot: 1, Digest: SignedDigest(0, 1, payload)}
		if len(chain) != 1 || chain[0] != want {
			t.Fatalf("chain = %+v, want the one entry %+v", chain, want)
		}
		if !fx.registry.VerifySig(1, AckChainDigest(chain), sig) {
			t.Fatal("ack signature does not verify against replica 1's key")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ack never arrived after the pool was released")
	}
}

// TestSignedChainSignsPendingAcks wedges the pool, delivers several
// prepares, and releases: everything pending must go out under ONE
// signature — a kindAckBatch whose chain covers every instance — and the
// signer stats must show the amortization.
func TestSignedChainSignsPendingAcks(t *testing.T) {
	fx := newAsyncSignFixture(t)
	release := fx.wedgePool()

	const k = 5
	payloads := make([][]byte, k)
	for i := 0; i < k; i++ {
		payloads[i] = []byte(fmt.Sprintf("batch-%d", i+1))
		if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, signedPrepare(0, 1, uint64(i+1), payloads[i])); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until all k acks are queued at the signer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		pending := fx.replica.ackSigner.Pending()
		if pending == k {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending acks = %d, want %d", pending, k)
		}
		time.Sleep(time.Millisecond)
	}

	release()
	select {
	case m := <-fx.brbMsgs:
		r := wire.NewReader(m)
		if kind := r.U8(); kind != kindAckBatch {
			t.Fatalf("kind = %d, want ack batch", kind)
		}
		chain, err := decodeChain(r)
		if err != nil {
			t.Fatal(err)
		}
		sig := r.Chunk()
		if r.Finish() != nil {
			t.Fatal("trailing bytes in ack batch")
		}
		if len(chain) != k {
			t.Fatalf("chain covers %d instances, want %d", len(chain), k)
		}
		for i, e := range chain {
			want := ChainEntry{Origin: 0, Slot: uint64(i + 1), Digest: SignedDigest(0, uint64(i+1), payloads[i])}
			if e != want {
				t.Fatalf("chain[%d] = %+v, want %+v", i, e, want)
			}
		}
		if !fx.registry.VerifySig(1, AckChainDigest(chain), sig) {
			t.Fatal("chain signature does not verify")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ack batch after release")
	}
	if ops, acks := fx.replica.AckSignStats(); ops != 1 || acks != k {
		t.Fatalf("sign stats ops=%d acks=%d, want 1 ECDSA covering %d acks", ops, acks, k)
	}
}

// TestSignedOverlongAckChainRefused: an ACKBATCH whose chain is longer
// than any correct signer's (maxSignBatch) endorses nothing at the
// origin. Were it counted, the origin's COMMITTAB would carry a chain
// every receiver refuses: the origin alone would deliver, and the others
// would stall on its FIFO for good. Replica 1 plays the Byzantine member:
// its own acks are held back, and it acks origin 0's slot inside a chain
// of n entries before replica 2's honest ack arrives, and before replica
// 3's. At maxSignBatch the forged ack completes the certificate with
// replica 2's; one entry more, replica 3's ack completes it instead.
// Either way every replica delivers.
func TestSignedOverlongAckChainRefused(t *testing.T) {
	for _, n := range []int{maxSignBatch, maxSignBatch + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			g := newAckGate()
			h := newHarnessOn(t, protoSigned, 4, g.wrap)
			payload := []byte("overlong")
			slot, err := h.bcs[0].Broadcast(payload)
			if err != nil {
				t.Fatal(err)
			}
			g.waitHeld(t, 2)
			g.waitHeld(t, 3)

			chain := make([]ChainEntry, n)
			chain[0] = ChainEntry{Origin: 0, Slot: slot, Digest: SignedDigest(0, slot, payload)}
			for i := 1; i < n; i++ {
				chain[i] = ChainEntry{Origin: 2, Slot: uint64(i), Digest: types.HashBytes([]byte{byte(i)})}
			}
			sig, err := h.keys[1].Sign(AckChainDigest(chain))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.inject(1, 0, EncodeAckBatch(chain, sig)); err != nil {
				t.Fatal(err)
			}
			g.release(2)
			// Time for the origin to count both acks and commit if it will.
			h.waitDeliveries(1, time.Second)
			g.release(3)

			if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
				t.Fatalf("deliveries = %d, want 4", got)
			}
			for r := 0; r < 4; r++ {
				d := h.deliveriesAt(types.ReplicaID(r))
				if len(d) != 1 || d[0].origin != 0 || d[0].slot != slot || string(d[0].payload) != string(payload) {
					t.Fatalf("replica %d delivered %+v", r, d)
				}
			}
		})
	}
}

// chainCommitFor builds a commit whose certificate consists of chain
// signatures by replicas 0, 1, 2 over the given chain.
func chainCommitFor(t *testing.T, h *harness, origin types.ReplicaID, slot uint64, payload []byte, chain []ChainEntry) []byte {
	t.Helper()
	cd := AckChainDigest(chain)
	var cert AckCert
	for _, r := range []types.ReplicaID{0, 1, 2} {
		sig, err := h.keys[r].Sign(cd)
		if err != nil {
			t.Fatal(err)
		}
		cert.Sigs = append(cert.Sigs, AckSig{Replica: r, Sig: sig, Chain: chain})
	}
	return EncodeCommitTab(origin, slot, payload, cert)
}

// TestSignedCommitBatchDelivers: a commit whose quorum consists of chain
// signatures covering the instance delivers, extra entries and all.
func TestSignedCommitBatchDelivers(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	payload := []byte("chained")
	chain := []ChainEntry{
		{Origin: 3, Slot: 1, Digest: SignedDigest(3, 1, payload)},
		{Origin: 2, Slot: 9, Digest: types.HashBytes([]byte("unrelated"))}, // extra entries are fine
	}
	commit := chainCommitFor(t, h, 3, 1, payload, chain)
	if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, commit); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(1, 5*time.Second); got != 1 {
		t.Fatalf("deliveries = %d, want 1", got)
	}
	d := h.deliveriesAt(0)
	if len(d) != 1 || string(d[0].payload) != "chained" || d[0].origin != 3 || d[0].slot != 1 {
		t.Fatalf("delivery = %+v", d)
	}
}

// TestSignedCommitBatchRejectsChainMissingInstance: chain signatures are
// endorsements of exactly the instances the chain lists — a quorum of
// perfectly valid chain signatures whose chain does NOT carry the
// committed instance must be rejected.
func TestSignedCommitBatchRejectsChainMissingInstance(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	payload := []byte("stolen")
	chain := []ChainEntry{
		// Valid-looking entries, none of them for (origin 3, slot 1, payload).
		{Origin: 3, Slot: 2, Digest: SignedDigest(3, 2, payload)},
		{Origin: 1, Slot: 1, Digest: SignedDigest(1, 1, payload)},
	}
	commit := chainCommitFor(t, h, 3, 1, payload, chain)
	if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, commit); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(1, 300*time.Millisecond); got != 0 {
		t.Fatalf("commit with non-covering chain delivered: %d", got)
	}
}

// TestSignedCommitBatchRejectsWrongDigestEntry: the chain carries an entry
// for the right instance but over a different payload digest — the
// signature endorses *that* payload, not the committed one.
func TestSignedCommitBatchRejectsWrongDigestEntry(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	payload := []byte("real")
	chain := []ChainEntry{
		{Origin: 3, Slot: 1, Digest: SignedDigest(3, 1, []byte("forged"))},
	}
	commit := chainCommitFor(t, h, 3, 1, payload, chain)
	if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, commit); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(1, 300*time.Millisecond); got != 0 {
		t.Fatalf("commit with wrong-digest chain entry delivered: %d", got)
	}
}

// TestSignedCommitBatchDuplicateSignersDontCount: three copies of one
// replica's chain signature are one endorsement, not a quorum.
func TestSignedCommitBatchDuplicateSignersDontCount(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	payload := []byte("dups")
	chain := []ChainEntry{{Origin: 3, Slot: 1, Digest: SignedDigest(3, 1, payload)}}
	sig, err := h.keys[0].Sign(AckChainDigest(chain))
	if err != nil {
		t.Fatal(err)
	}
	var cert AckCert
	for i := 0; i < 3; i++ {
		cert.Sigs = append(cert.Sigs, AckSig{Replica: 0, Sig: sig, Chain: chain})
	}
	commit := EncodeCommitTab(3, 1, payload, cert)
	if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, commit); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(1, 300*time.Millisecond); got != 0 {
		t.Fatalf("duplicate-signer certificate delivered: %d", got)
	}
}

// TestSignedBatchedSettlementEndToEnd wedges a shared 1-worker pool while
// a burst of broadcasts goes out, then releases it: every replica's
// pending acks leave as chains, the origin assembles chain certificates,
// commits verify (one signature check per signer per chain, memoized
// across the whole burst), and every replica delivers the full burst in
// FIFO order. The sim leg runs the same path with the simulation
// harness's cheap authenticators: what a key costs changes nothing about
// how acks are signed.
func TestSignedBatchedSettlementEndToEnd(t *testing.T) {
	master := []byte("batched-settlement-sim")
	simReg := crypto.NewRegistry()
	simReg.EnableSim(master)
	for i := 0; i < 4; i++ {
		simReg.AddSim(types.ReplicaID(i))
	}
	for _, leg := range []struct {
		name string
		keys func(*Config)
	}{
		{"ecdsa", func(*Config) {}},
		{"sim", func(c *Config) {
			c.Keys = crypto.NewSimKeyPair(c.Self, master)
			c.Registry = simReg
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			pool := verifier.New(1)
			defer pool.Close()
			h := newHarness(t, protoSigned, 4, func(c *Config) {
				c.Verifier = pool
				leg.keys(c)
			})
			checkBatchedSettlement(t, h, pool)
		})
	}
}

func checkBatchedSettlement(t *testing.T, h *harness, pool *verifier.Verifier) {
	t.Helper()
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
	// Let the prepares land at every replica while the signer is wedged,
	// so the release finds full pending queues.
	waitPending := func(s *Signed) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := s.ackSigner.Pending()
			if n == k {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("pending acks = %d, want %d", n, k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The origin acks nothing of its own: its tagged PREPARE endorses.
	for _, bc := range h.bcs[1:] {
		waitPending(bc.(*Signed))
	}
	close(gate)

	want := 4 * k
	if got := h.waitDeliveries(want, 15*time.Second); got != want {
		t.Fatalf("deliveries = %d, want %d", got, want)
	}
	for r := 0; r < 4; r++ {
		d := h.deliveriesAt(types.ReplicaID(r))
		for i, dv := range d {
			if dv.slot != uint64(i+1) || string(dv.payload) != fmt.Sprintf("m%d", i+1) {
				t.Fatalf("replica %d delivery %d = slot %d %q", r, i, dv.slot, dv.payload)
			}
		}
	}
	// Amortization: every other replica signed its k acks with one
	// signature; the origin signed none.
	for i, bc := range h.bcs {
		ops, acks := bc.(*Signed).AckSignStats()
		wantOps, wantAcks := uint64(1), uint64(k)
		if i == 0 {
			wantOps, wantAcks = 0, 0
		}
		if acks != wantAcks || ops != wantOps {
			t.Fatalf("replica %d sign stats ops=%d acks=%d, want ops=%d acks=%d", i, ops, acks, wantOps, wantAcks)
		}
	}
}
