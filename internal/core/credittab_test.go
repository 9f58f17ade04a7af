package core

// Tests for the chain-signed credit form: the CREDITTAB codec, dependency
// formation from self-contained CREDITTABs (on a jittered network too),
// the one-frame-per-destination-per-wave send shape, hostile CREDITTABs
// and retired kinds, and the chain-table dependency-certificate wire form.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/sched"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
	"astro/internal/wire"
)

func TestCreditTabCodecRoundTrip(t *testing.T) {
	chain := []types.Digest{types.HashBytes([]byte("g1")), types.HashBytes([]byte("g2")), types.HashBytes([]byte("g3"))}
	m := creditTabMsg{
		Signer: 3,
		Chain:  chain,
		Sig:    []byte("chain-sig"),
		Groups: []creditTabGroup{
			{ChainIdx: 0, Group: []types.Payment{pay(7, 3, 8, 2)}},
			{ChainIdx: 2, Group: []types.Payment{pay(9, 1, 8, 4), pay(9, 2, 12, 1)}},
		},
	}
	enc := encodeCreditTab(m)
	if enc[0] != msgCreditTab || len(enc) != creditTabSize(m) {
		t.Fatalf("kind/size wrong: %d/%d want %d", enc[0], len(enc), creditTabSize(m))
	}
	got, err := decodeCreditTab(enc[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Signer != 3 || string(got.Sig) != "chain-sig" || len(got.Chain) != 3 || got.Chain[2] != chain[2] {
		t.Fatalf("header mangled: %+v", got)
	}
	if len(got.Groups) != 2 || got.Groups[1].ChainIdx != 2 || got.Groups[1].Group[1] != m.Groups[1].Group[1] {
		t.Fatalf("groups mangled: %+v", got.Groups)
	}
	if !bytes.Equal(encodeCreditTab(got), enc) {
		t.Fatal("decode → encode does not reproduce the bytes")
	}

	// Every non-canonical variant is refused.
	long := make([]types.Digest, creditChainCap+1)
	bad := map[string]creditTabMsg{
		"index past the chain": {Signer: 3, Chain: chain, Groups: []creditTabGroup{{ChainIdx: 3, Group: m.Groups[0].Group}}},
		"descending indices":   {Signer: 3, Chain: chain, Groups: []creditTabGroup{m.Groups[1], m.Groups[0]}},
		"repeated index":       {Signer: 3, Chain: chain, Groups: []creditTabGroup{m.Groups[0], m.Groups[0]}},
		"no groups":            {Signer: 3, Chain: chain},
		"empty chain":          {Signer: 3, Groups: []creditTabGroup{m.Groups[0]}},
		"chain past the cap":   {Signer: 3, Chain: long, Groups: []creditTabGroup{m.Groups[0]}},
	}
	for name, b := range bad {
		if _, err := decodeCreditTab(encodeCreditTab(b)[1:]); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// creditTabFrom signs chain as signer and returns the CREDITTAB the signer
// would send for the given groups.
func (c *cluster) creditTabFrom(t *testing.T, signer int, chain []types.Digest, groups []creditTabGroup) []byte {
	t.Helper()
	sig, err := c.keys[signer].Sign(CreditChainDigest(chain))
	if err != nil {
		t.Fatal(err)
	}
	return encodeCreditTab(creditTabMsg{Signer: types.ReplicaID(signer), Chain: chain, Sig: sig, Groups: groups})
}

// sendCredit sends frame on the credit channel from replica from to to.
func (c *cluster) sendCredit(t *testing.T, from int, to types.ReplicaID, frame []byte) {
	t.Helper()
	if err := c.replicas[from].cfg.Mux.Send(transport.ReplicaNode(to), transport.ChanCredit, frame); err != nil {
		t.Fatal(err)
	}
}

// waitBalance waits until r reports balance want for client cl.
func waitBalance(t *testing.T, r *Replica, cl types.ClientID, want types.Amount) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.Balance(cl) != want {
		if time.Now().After(deadline) {
			t.Fatalf("balance(%d) = %d, want %d", cl, r.Balance(cl), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCreditTabFormsDependency: CREDITTABs over one chain from f+1 signers
// form a dependency, and the beneficiary can spend through it, which
// round-trips the certificate through a broadcast batch's chain table and
// every replica's screening.
func TestCreditTabFormsDependency(t *testing.T) {
	gen := func(c types.ClientID) types.Amount {
		if c == 1 {
			return 100
		}
		return 0
	}
	c := newCluster(t, AstroII, 4, gen)
	repBob := c.replicas[int(c.repOf(2))] // client 2 -> replica 2

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	otherGroup := []types.Payment{pay(5, 1, 6, 7)}
	chain := []types.Digest{CreditGroupDigest(otherGroup), CreditGroupDigest(bobGroup)}
	for _, signer := range []int{0, 1} {
		c.sendCredit(t, signer, c.repOf(2), c.creditTabFrom(t, signer, chain, []creditTabGroup{{ChainIdx: 1, Group: bobGroup}}))
	}
	waitBalance(t, repBob, 2, 40)

	// Bob spends through the chain-signed dependency: both signers signed
	// the same chain, so the batch's table holds it once, and the
	// certificate must verify at every screen.
	bob := c.client(2)
	c.payAndWait(bob, 3, 25)
	c.waitSettledEverywhere(1, 5*time.Second)
	for i, r := range c.replicas {
		if bal := r.Balance(2); bal != 15 {
			t.Errorf("replica %d: settled balance(2) = %d, want 15", i, bal)
		}
	}
}

// creditTap attaches a raw endpoint at an unused replica NodeID —
// registered in the shared key registry, since onCredit drops traffic
// from unknown replicas — and returns its inbound ChanCredit stream.
func (c *cluster) creditTap(t *testing.T, id types.ReplicaID) (*transport.Mux, chan []byte) {
	t.Helper()
	c.replicas[0].cfg.Registry.Add(id, crypto.MustGenerateKeyPair().Public())
	mux := transport.NewMux(c.net.Node(transport.ReplicaNode(id)))
	t.Cleanup(mux.Close)
	msgs := make(chan []byte, 64)
	mux.Register(transport.ChanCredit, func(_ transport.NodeID, p []byte) {
		buf := make([]byte, len(p))
		copy(buf, p)
		msgs <- buf
	})
	return mux, msgs
}

// creditStates is how many credit-certificate accumulators r holds.
func creditStates(r *Replica) int {
	r.creditMu.Lock()
	defer r.creditMu.Unlock()
	n := 0
	for _, b := range r.creditAccum {
		n += len(b)
	}
	return n
}

// expectSilence fails if the tap receives anything within a short window.
func expectSilence(t *testing.T, msgs chan []byte) {
	t.Helper()
	select {
	case m := <-msgs:
		t.Fatalf("unexpected reply (kind %d)", m[0])
	case <-time.After(200 * time.Millisecond):
	}
}

// TestCreditChannelDropsUnknownSenders: credit frames from a sender
// outside the key registry are ignored, however valid the signature they
// carry — an unknown node gets no reply and creates no state.
func TestCreditChannelDropsUnknownSenders(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 0 })
	// A raw endpoint at a replica-space NodeID with NO registry entry.
	mux := transport.NewMux(c.net.Node(transport.ReplicaNode(17)))
	t.Cleanup(mux.Close)
	msgs := make(chan []byte, 8)
	mux.Register(transport.ChanCredit, func(_ transport.NodeID, p []byte) { msgs <- p })

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	tab := c.creditTabFrom(t, 0, []types.Digest{CreditGroupDigest(bobGroup)}, []creditTabGroup{{ChainIdx: 0, Group: bobGroup}})
	sig, err := c.keys[0].Sign(CreditGroupDigest(bobGroup))
	if err != nil {
		t.Fatal(err)
	}
	single := encodeCredit(creditMsg{Signer: 0, Group: bobGroup, Sig: sig})
	r := c.replicas[2]
	for _, msg := range [][]byte{tab, single} {
		if err := mux.Send(transport.ReplicaNode(2), transport.ChanCredit, msg); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.EdgeStats().CreditOutsider != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("unknown sender's frames not counted: %+v", r.EdgeStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	expectSilence(t, msgs)
	if n := creditStates(r); n != 0 {
		t.Fatalf("unknown sender created %d credit accumulators", n)
	}
}

// TestCreditTabCompleteCertDropsSilently: a CREDITTAB whose every group's
// certificate is already complete is dropped before its chain is hashed or
// its signature looked at, and nothing is sent back.
func TestCreditTabCompleteCertDropsSilently(t *testing.T) {
	gen := func(c types.ClientID) types.Amount {
		if c == 1 {
			return 100
		}
		return 0
	}
	v := verifier.New(1, verifier.WithRuntime(sched.Default()))
	t.Cleanup(v.Close)
	c := newCluster(t, AstroII, 4, gen, func(cfg *Config) { cfg.Verifier = v })
	repBob := c.replicas[int(c.repOf(2))]

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	chain := []types.Digest{CreditGroupDigest(bobGroup)}
	for _, signer := range []int{0, 1} {
		c.sendCredit(t, signer, c.repOf(2), c.creditTabFrom(t, signer, chain, []creditTabGroup{{ChainIdx: 0, Group: bobGroup}}))
	}
	waitBalance(t, repBob, 2, 40)

	// A late CREDITTAB from a third signer over a different chain, carrying
	// only the completed group, handled on the test's own stack.
	_, msgs := c.creditTap(t, 9)
	lateChain := []types.Digest{types.HashBytes([]byte("padding")), CreditGroupDigest(bobGroup)}
	late := c.creditTabFrom(t, 2, lateChain, []creditTabGroup{{ChainIdx: 1, Group: bobGroup}})
	states := creditStates(repBob)
	hits, misses := v.MemoStats()
	repBob.onCredit(transport.ReplicaNode(9), late)
	if h, m := v.MemoStats(); h != hits || m != misses {
		t.Fatalf("completed-certificate CREDITTAB reached verification (memo %d/%d -> %d/%d)", hits, misses, h, m)
	}
	if n := creditStates(repBob); n != states {
		t.Fatalf("completed-certificate CREDITTAB created state: %d -> %d accumulators", states, n)
	}
	expectSilence(t, msgs)
}

// sentCredit is one credit-channel frame a replica put on the wire.
type sentCredit struct {
	from, to transport.NodeID
	body     []byte // after the channel byte, kind first
}

// creditWire records the credit-channel frames its endpoints send.
type creditWire struct {
	mu     sync.Mutex
	frames []sentCredit
}

func (w *creditWire) wrap(ep transport.Endpoint) transport.Endpoint {
	return creditWireEndpoint{Endpoint: ep, w: w}
}

func (w *creditWire) sent() []sentCredit {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]sentCredit(nil), w.frames...)
}

type creditWireEndpoint struct {
	transport.Endpoint
	w *creditWire
}

func (e creditWireEndpoint) Send(to transport.NodeID, p []byte) error {
	if len(p) > 1 && transport.Channel(p[0]) == transport.ChanCredit {
		e.w.mu.Lock()
		e.w.frames = append(e.w.frames, sentCredit{from: e.ID(), to: to, body: append([]byte(nil), p[1:]...)})
		e.w.mu.Unlock()
	}
	return e.Endpoint.Send(to, p)
}

// TestCreditOneFramePerWaveDestination: on a 4-replica group, 64
// concurrent credited batches put only CREDITs and CREDITTABs on the
// credit channel, and each signer sends each destination exactly one
// frame per signed wave: the CREDITTABs of one (signer, chain) go to
// distinct destinations, each carrying only groups for its own clients,
// and together they carry every group of the wave once.
func TestCreditOneFramePerWaveDestination(t *testing.T) {
	const (
		nClients  = 16
		perClient = 16 // 256 payments in batches of 4: 64 batches
	)
	var cw creditWire
	c := newClusterOn(t, memnet.New(memnet.WithSeed(7)), cw.wrap, AstroII, 4,
		func(types.ClientID) types.Amount { return 1 << 20 })

	var wg sync.WaitGroup
	errc := make(chan error, nClients)
	for i := 1; i <= nClients; i++ {
		cl := c.client(types.ClientID(i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				// Beneficiaries at every other representative.
				ben := types.ClientID((i+k%3)%nClients + 1)
				id, err := cl.Pay(ben, 1)
				if err == nil {
					err = cl.WaitConfirm(id, 10*time.Second)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	c.waitSettledEverywhere(nClients*perClient, 10*time.Second)
	time.Sleep(100 * time.Millisecond) // let the last waves' credits go out

	type wave struct {
		signer transport.NodeID
		chain  types.Digest
	}
	dests := make(map[wave]map[transport.NodeID]bool)
	named := make(map[wave][]int)
	tabs := 0
	for _, f := range cw.sent() {
		switch f.body[0] {
		case msgCreditSingle:
		case msgCreditTab:
			tabs++
			m, err := decodeCreditTab(f.body[1:])
			if err != nil {
				t.Fatalf("undecodable CREDITTAB from %d: %v", f.from, err)
			}
			k := wave{f.from, CreditChainDigest(m.Chain)}
			if dests[k] == nil {
				dests[k] = make(map[transport.NodeID]bool)
				named[k] = make([]int, len(m.Chain))
			}
			if dests[k][f.to] {
				t.Fatalf("replica %d sent replica %d two frames for one wave", f.from, f.to)
			}
			dests[k][f.to] = true
			for _, g := range m.Groups {
				named[k][g.ChainIdx]++
				for _, p := range g.Group {
					if transport.ReplicaNode(c.repOf(p.Beneficiary)) != f.to {
						t.Fatalf("CREDITTAB to %d carries a credit for client %d", f.to, p.Beneficiary)
					}
				}
			}
		default:
			t.Fatalf("credit channel carried kind %d from %d to %d", f.body[0], f.from, f.to)
		}
	}
	if tabs == 0 {
		t.Fatal("no chain-signed wave observed: the CREDITTAB path never engaged")
	}
	for k, counts := range named {
		for i, n := range counts {
			if n != 1 {
				t.Fatalf("wave of replica %d: chain entry %d carried by %d frames, want 1", k.signer, i, n)
			}
		}
	}
}

// TestCreditTabFormsDependencyOnJitteredLinks: on links whose every frame
// draws its own delay, two CREDITTABs form the dependency by themselves —
// no other credit frame crosses the wire, in either direction.
func TestCreditTabFormsDependencyOnJitteredLinks(t *testing.T) {
	var cw creditWire
	net := memnet.New(memnet.WithSeed(11), memnet.WithLatency(memnet.Uniform(0, 3*time.Millisecond)))
	c := newClusterOn(t, net, cw.wrap, AstroII, 4, func(types.ClientID) types.Amount { return 0 })
	repBob := c.replicas[int(c.repOf(2))]

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	chains := [][]types.Digest{
		{CreditGroupDigest([]types.Payment{pay(5, 1, 7, 1)}), CreditGroupDigest(bobGroup)},
		{CreditGroupDigest(bobGroup)},
	}
	idx := []uint32{1, 0}
	for signer := range chains {
		c.sendCredit(t, signer, c.repOf(2), c.creditTabFrom(t, signer, chains[signer], []creditTabGroup{{ChainIdx: idx[signer], Group: bobGroup}}))
	}
	waitBalance(t, repBob, 2, 40)
	time.Sleep(50 * time.Millisecond) // anything the dependency provoked is on the wire by now
	sent := cw.sent()
	if len(sent) != 2 {
		for _, f := range sent {
			t.Logf("credit frame kind %d: %d -> %d", f.body[0], f.from, f.to)
		}
		t.Fatalf("%d credit frames on the wire, want the 2 CREDITTABs", len(sent))
	}
}

// TestHostileCreditTabForgedChain: a CREDITTAB whose inline chain is not
// the one its signature covers (core.CorruptCreditTab, the forge-refs
// behavior) endorses nothing, and the other signers still complete the
// certificate without the forger.
func TestHostileCreditTabForgedChain(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 0 })
	repBob := c.replicas[int(c.repOf(2))]

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	chain := []types.Digest{CreditGroupDigest([]types.Payment{pay(5, 1, 7, 1)}), CreditGroupDigest(bobGroup)}
	groups := []creditTabGroup{{ChainIdx: 1, Group: bobGroup}}
	forged, ok := CorruptCreditTab(c.creditTabFrom(t, 0, chain, groups), 0x5a)
	if !ok {
		t.Fatal("CorruptCreditTab refused a CREDITTAB")
	}
	m, err := decodeCreditTab(forged[1:])
	if err != nil || m.Chain[1] != chain[1] || m.Chain[0] == chain[0] {
		t.Fatalf("forgery should keep the named entry and change the other: %v", err)
	}
	// The forger and one honest signer: f+1 = 2 only if the forgery counts.
	c.sendCredit(t, 0, c.repOf(2), forged)
	c.sendCredit(t, 1, c.repOf(2), c.creditTabFrom(t, 1, chain, groups))
	time.Sleep(200 * time.Millisecond)
	if bal := repBob.Balance(2); bal != 0 {
		t.Fatalf("forged chain counted: balance(2) = %d", bal)
	}
	// A second honest signer completes it.
	c.sendCredit(t, 3, c.repOf(2), c.creditTabFrom(t, 3, chain, groups))
	waitBalance(t, repBob, 2, 40)
	repBob.repMu.Lock()
	deps := repBob.repDeps[2]
	repBob.repMu.Unlock()
	if len(deps) != 1 || deps[0].Cert.Has(0) {
		t.Fatalf("certificate %+v, want one without the forger", deps)
	}
}

// TestHostileCreditTabRetiredKinds: the retired reference kinds — a chain
// definition (3), a validly signed reference to it naming a group (4) and
// a NACK (5) — from a registered replica get no reply and create no state.
func TestHostileCreditTabRetiredKinds(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 0 })
	tap, msgs := c.creditTap(t, 9)
	r := c.replicas[2]

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	chain := []types.Digest{CreditGroupDigest(bobGroup)}
	cd := CreditChainDigest(chain)
	sig, err := c.keys[0].Sign(cd)
	if err != nil {
		t.Fatal(err)
	}
	def := wire.NewWriter(64)
	def.U8(3)
	wire.AppendDigestList(def, chain)
	ref := wire.NewWriter(256)
	ref.U8(4)
	ref.U32(0)
	ref.Bytes32(cd)
	ref.Chunk(sig)
	ref.U32(1)
	ref.U32(0)
	appendPaymentGroup(ref, bobGroup)
	nack := wire.NewWriter(33)
	nack.U8(5)
	nack.Bytes32(cd)
	for _, frame := range [][]byte{def.Bytes(), ref.Bytes(), nack.Bytes()} {
		if err := tap.Send(transport.ReplicaNode(2), transport.ChanCredit, frame); err != nil {
			t.Fatal(err)
		}
	}
	expectSilence(t, msgs)
	if n := creditStates(r); n != 0 {
		t.Fatalf("retired kinds created %d credit accumulators", n)
	}
}

// TestDepCertInterning: a dependency stored on its own writes each
// distinct chain once in its table — k signers over one chain cost one
// table entry — and the round trip preserves every signature's chain
// content (shared backing on decode) while single-group signatures stay
// chain-less.
func TestDepCertInterning(t *testing.T) {
	chainShared := []types.Digest{types.HashBytes([]byte("g1")), types.HashBytes([]byte("g2"))}
	chainOther := []types.Digest{types.HashBytes([]byte("g3"))}
	d := Dependency{
		Group: []types.Payment{pay(9, 1, 3, 5)},
		Cert: DepCert{Sigs: []DepSig{
			{Replica: 0, Sig: []byte("s0"), Chain: chainShared},
			{Replica: 1, Sig: []byte("s1"), Chain: chainShared},
			{Replica: 2, Sig: []byte("s2"), Chain: chainOther},
			{Replica: 3, Sig: []byte("s3")},
		}},
	}

	w := wire.NewWriter(dependencyRecordSize(d))
	appendDependencyRecord(w, d)
	if w.Len() != dependencyRecordSize(d) {
		t.Fatalf("encoded %d bytes, size function says %d", w.Len(), dependencyRecordSize(d))
	}
	// The two copies of chainShared are encoded once: table(2 digests + 1
	// digest), the group, then 4 signature records.
	want := 4 + wire.DigestListSize(2) + wire.DigestListSize(1) +
		4 + len(d.Group)*types.PaymentWireSize + 4 + 4*(4+4+2+4)
	if w.Len() != want {
		t.Fatalf("record = %d bytes, want %d", w.Len(), want)
	}

	r := wire.NewReader(w.Bytes())
	back, err := readDependencyRecord(r)
	if err != nil || r.Finish() != nil {
		t.Fatal(err)
	}
	sigs := back.Cert.Sigs
	if len(sigs) != 4 {
		t.Fatalf("cert has %d sigs", len(sigs))
	}
	if len(sigs[0].Chain) != 2 || sigs[0].Chain[0] != chainShared[0] || len(sigs[2].Chain) != 1 || sigs[3].Chain != nil {
		t.Fatalf("chains mangled: %+v", sigs)
	}
	// The table interns: the two shared-chain signatures alias one
	// backing array after decode.
	if &sigs[0].Chain[0] != &sigs[1].Chain[0] {
		t.Fatal("decoded shared chains do not alias one table entry")
	}
}
