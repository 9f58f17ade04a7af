package brb

// Tests for batch-level ack signing: the pool-side signer (no ECDSA on a
// dispatch goroutine, chains amortizing one signature over many
// instances), the chain and tabled-commit codecs, and the commit
// verification rules for chain signatures.

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

	cert := AckCert{Sigs: []AckSig{
		{Replica: 1, Sig: []byte("s1")},               // single-slot
		{Replica: 2, Sig: []byte("s2"), Chain: chain}, // chain-signed
		{Replica: 3, Sig: []byte("s3"), Chain: chain}, // same chain: one table entry
	}}
	payload := []byte("payload")
	commit := EncodeCommitTab(3, 17, payload, cert)
	if table, _ := commitChainTable(cert); len(table) != 1 || len(commit) != commitTabSize(payload, table, cert) {
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
	if len(back.Sigs) != 3 || back.Sigs[0].Chain != nil || len(back.Sigs[1].Chain) != 2 || &back.Sigs[1].Chain[0] != &back.Sigs[2].Chain[0] {
		t.Fatalf("cert round trip: %+v", back)
	}
	if cd := AckChainDigest(chain); back.Sigs[1].ChainDigest != cd || back.Sigs[2].ChainDigest != cd {
		t.Fatal("chain digest changed across codec round trip")
	}
}

func TestAckChainDigestDomainSeparation(t *testing.T) {
	// A chain of one entry must not collide with the entry's own ack
	// digest, or a single-slot signature could be replayed as a chain
	// signature (and vice versa).
	d := SignedDigest(1, 1, []byte("payload"))
	chain := []ChainEntry{{Origin: 1, Slot: 1, Digest: d}}
	if AckChainDigest(chain) == d {
		t.Fatal("chain digest equals single-slot ack digest")
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
// wait on the signer. The ack appears, correctly signed, once the pool
// frees up.
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
		r := wire.NewReader(m)
		if k := r.U8(); k != kindAck {
			t.Fatalf("kind = %d, want single-slot ack", k)
		}
		if types.ReplicaID(r.U32()) != 0 || r.U64() != 1 {
			t.Fatal("ack for wrong instance")
		}
		digest := r.Bytes32()
		sig := r.Chunk()
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		want := SignedDigest(0, 1, payload)
		if digest != want {
			t.Fatal("ack digest mismatch")
		}
		if !fx.registry.VerifySig(1, want, sig) {
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
// signatures covering the instance delivers like a plain one.
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
