package core

// Tests for credit-channel chain-by-digest references: the
// CREDITCHAINDEF/CREDITREF/CREDITNACK codecs, dependency formation through
// references, the NACK demand path (never-seen and evicted chains), and
// the chain-table dependency-certificate wire form.

import (
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

func TestCreditRefCodecRoundTrip(t *testing.T) {
	chain := []types.Digest{types.HashBytes([]byte("g1")), types.HashBytes([]byte("g2"))}

	def := encodeCreditChainDef(chain)
	if def[0] != msgCreditChainDef || len(def) != creditChainDefSize(chain) {
		t.Fatalf("chaindef kind/size wrong: %d/%d", def[0], len(def))
	}
	back, err := decodeCreditChainDef(def[1:])
	if err != nil || len(back) != 2 || back[0] != chain[0] || back[1] != chain[1] {
		t.Fatalf("chaindef round trip: %v %v", back, err)
	}
	if _, err := decodeCreditChainDef(encodeCreditChainDef(nil)[1:]); err == nil {
		t.Fatal("empty chaindef accepted")
	}

	m := creditRefMsg{
		Signer:      3,
		ChainDigest: CreditChainDigest(chain),
		Sig:         []byte("chain-sig"),
		Groups:      []creditRefGroup{{ChainIdx: 1, Group: []types.Payment{pay(7, 3, 8, 2)}}},
	}
	enc := encodeCreditRef(m)
	if enc[0] != msgCreditRef || len(enc) != creditRefSize(m) {
		t.Fatalf("ref kind/size wrong: %d/%d want %d", enc[0], len(enc), creditRefSize(m))
	}
	got, err := decodeCreditRef(enc[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Signer != 3 || got.ChainDigest != m.ChainDigest || string(got.Sig) != "chain-sig" {
		t.Fatalf("ref header mangled: %+v", got)
	}
	if len(got.Groups) != 1 || got.Groups[0].ChainIdx != 1 || got.Groups[0].Group[0] != m.Groups[0].Group[0] {
		t.Fatalf("ref groups mangled: %+v", got.Groups)
	}
	oob := m
	oob.Groups = []creditRefGroup{{ChainIdx: creditChainCap, Group: m.Groups[0].Group}}
	if _, err := decodeCreditRef(encodeCreditRef(oob)[1:]); err == nil {
		t.Fatal("over-cap chain index accepted")
	}

	nack := encodeCreditNack(m.ChainDigest)
	if nack[0] != msgCreditNack || len(nack) != creditNackSize {
		t.Fatalf("nack kind/size wrong")
	}
	d, err := decodeCreditNack(nack[1:])
	if err != nil || d != m.ChainDigest {
		t.Fatalf("nack round trip: %v %v", d, err)
	}
}

// creditRefFrom signs a chain and returns the (CHAINDEF, CREDITREF) pair a
// signer would emit for the given groups.
func (c *cluster) creditRefFrom(t *testing.T, signer int, chain []types.Digest, groups []creditRefGroup) (def, ref []byte) {
	t.Helper()
	sig, err := c.keys[signer].Sign(CreditChainDigest(chain))
	if err != nil {
		t.Fatal(err)
	}
	return encodeCreditChainDef(chain), encodeCreditRef(creditRefMsg{
		Signer:      types.ReplicaID(signer),
		ChainDigest: CreditChainDigest(chain),
		Sig:         sig,
		Groups:      groups,
	})
}

// TestCreditRefFormsDependency: the reference pair (CHAINDEF, then
// CREDITREF naming it) from f+1 signers must form a dependency — and the
// beneficiary must be able to spend through it, which round-trips the
// certificate through a broadcast batch's chain table and every replica's
// screening.
func TestCreditRefFormsDependency(t *testing.T) {
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
	groups := []creditRefGroup{{ChainIdx: 1, Group: bobGroup}}

	for _, signer := range []int{0, 1} {
		def, ref := c.creditRefFrom(t, signer, chain, groups)
		for _, msg := range [][]byte{def, ref} {
			if err := c.replicas[signer].cfg.Mux.Send(transport.ReplicaNode(c.repOf(2)), transport.ChanCredit, msg); err != nil {
				t.Fatal(err)
			}
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for repBob.Balance(2) != 40 {
		if time.Now().After(deadline) {
			t.Fatalf("dependency never formed from CREDITREF; balance = %d", repBob.Balance(2))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := repBob.CreditRefStats(); st.RefHits != 2 || st.NacksSent != 0 {
		t.Fatalf("receiver stats = %+v, want 2 resolved references and no NACK", st)
	}

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

// TestCreditRefUnknownChainNacks: a CREDITREF naming a chain the receiver
// has never seen must be answered with a CREDITNACK naming the digest —
// and after the chain is defined, the same reference must resolve.
func TestCreditRefUnknownChainNacks(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 0 })
	tap, msgs := c.creditTap(t, 9)

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	chain := []types.Digest{CreditGroupDigest(bobGroup)}
	_, ref := c.creditRefFrom(t, 0, chain, []creditRefGroup{{ChainIdx: 0, Group: bobGroup}})

	if err := tap.Send(transport.ReplicaNode(2), transport.ChanCredit, ref); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		if m[0] != msgCreditNack {
			t.Fatalf("kind = %d, want CREDITNACK", m[0])
		}
		d, err := decodeCreditNack(m[1:])
		if err != nil || d != CreditChainDigest(chain) {
			t.Fatalf("NACK digest = %x, %v", d[:6], err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no CREDITNACK for unresolvable CREDITREF")
	}
	if st := c.replicas[2].CreditRefStats(); st.RefMisses != 1 || st.NacksSent != 1 {
		t.Fatalf("receiver stats = %+v", st)
	}
}

// TestCreditChannelDropsUnknownSenders: chain definitions and references
// from a sender outside the key registry must be ignored — an unknown
// node must not be able to allocate a chain cache (or receive a NACK).
func TestCreditChannelDropsUnknownSenders(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 0 })
	// A raw endpoint at a replica-space NodeID with NO registry entry.
	mux := transport.NewMux(c.net.Node(transport.ReplicaNode(17)))
	t.Cleanup(mux.Close)
	msgs := make(chan []byte, 8)
	mux.Register(transport.ChanCredit, func(_ transport.NodeID, p []byte) { msgs <- p })

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	chain := []types.Digest{CreditGroupDigest(bobGroup)}
	_, ref := c.creditRefFrom(t, 0, chain, []creditRefGroup{{ChainIdx: 0, Group: bobGroup}})
	for _, msg := range [][]byte{encodeCreditChainDef(chain), ref} {
		if err := mux.Send(transport.ReplicaNode(2), transport.ChanCredit, msg); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case m := <-msgs:
		t.Fatalf("unknown sender got a reply (kind %d)", m[0])
	case <-time.After(200 * time.Millisecond):
	}
	r := c.replicas[2]
	r.chainMu.Lock()
	cached := r.creditChains.HasPeer(17)
	r.chainMu.Unlock()
	if cached {
		t.Fatal("unknown sender allocated a chain cache")
	}
	if st := r.CreditRefStats(); st.RefMisses != 0 || st.NacksSent != 0 {
		t.Fatalf("unknown sender's reference was processed: %+v", st)
	}
}

// TestCreditRefEvictionNacks: with the per-peer cache shrunk to one chain,
// a second definition evicts the first and a reference to the evicted
// chain NACKs — the eviction leg of the fallback.
func TestCreditRefEvictionNacks(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 0 })
	c.replicas[2].creditChains.SetCapacity(1) // before any credit traffic
	tap, msgs := c.creditTap(t, 9)

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	chainA := []types.Digest{CreditGroupDigest(bobGroup)}
	chainB := []types.Digest{types.HashBytes([]byte("other"))}
	_, ref := c.creditRefFrom(t, 0, chainA, []creditRefGroup{{ChainIdx: 0, Group: bobGroup}})

	for _, chain := range [][]types.Digest{chainA, chainB} {
		if err := tap.Send(transport.ReplicaNode(2), transport.ChanCredit, encodeCreditChainDef(chain)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tap.Send(transport.ReplicaNode(2), transport.ChanCredit, ref); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		if m[0] != msgCreditNack {
			t.Fatalf("kind = %d, want CREDITNACK", m[0])
		}
		if d, _ := decodeCreditNack(m[1:]); d != CreditChainDigest(chainA) {
			t.Fatal("NACK names the wrong chain")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no CREDITNACK after eviction")
	}
}

// TestCreditNackAnsweredWithDefAndRef: a CREDITNACK is the demand path —
// the signer answers with the chain's CREDITCHAINDEF followed by the
// CREDITREF for the requester's groups (FIFO keeps them ordered), and the
// demand is counted against the deferred definitions. A NACK for an unretained (evicted) wave is
// silently dropped.
func TestCreditNackAnsweredWithDefAndRef(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 0 })
	tap, msgs := c.creditTap(t, 9)

	group := []types.Payment{pay(1, 1, 2, 40)}
	chain := []types.Digest{CreditGroupDigest(group)}
	cd := CreditChainDigest(chain)
	sig, err := c.keys[0].Sign(cd)
	if err != nil {
		t.Fatal(err)
	}
	c.replicas[0].retainCreditWave(cd, retainedWave{chain: chain, sig: sig, jobs: []creditJob{{rep: 9, group: group}}})
	if err := tap.Send(transport.ReplicaNode(0), transport.ChanCredit, encodeCreditNack(cd)); err != nil {
		t.Fatal(err)
	}

	expect := func(kind byte) []byte {
		t.Helper()
		select {
		case m := <-msgs:
			if m[0] != kind {
				t.Fatalf("kind = %d, want %d", m[0], kind)
			}
			return m
		case <-time.After(5 * time.Second):
			t.Fatalf("no kind-%d answer to the CREDITNACK", kind)
			return nil
		}
	}
	def := expect(msgCreditChainDef)
	back, err := decodeCreditChainDef(def[1:])
	if err != nil || len(back) != 1 || back[0] != chain[0] {
		t.Fatalf("demanded definition mangled: %v %v", back, err)
	}
	ref := expect(msgCreditRef)
	m, err := decodeCreditRef(ref[1:])
	if err != nil || m.Signer != 0 || m.ChainDigest != cd || len(m.Groups) != 1 || m.Groups[0].Group[0] != group[0] {
		t.Fatalf("re-sent reference mangled: %+v %v", m, err)
	}
	st := c.replicas[0].CreditRefStats()
	if st.DefsDemanded != 1 {
		t.Fatalf("demand not counted: %+v", st)
	}
	if err := tap.Send(transport.ReplicaNode(0), transport.ChanCredit, encodeCreditNack(types.HashBytes([]byte("gone")))); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		t.Fatalf("unexpected reply to unknown NACK: kind %d", m[0])
	case <-time.After(200 * time.Millisecond):
	}
}

// TestCreditNackTrailingByHundredsOfWaves: definitions are lazy, so a
// signer whose chain the destination cannot resolve must still hold the
// wave when the NACK comes — however many waves it has signed meanwhile.
// Two signers with differently cut waves (neither chain resolves the
// other's reference) each sign 500 more waves before the destination's
// credit channel lets their references through; both NACKs must be
// answered with CREDITCHAINDEF + CREDITREF and the f+1 certificate must
// complete. With retention counted in waves (64) both answers were gone
// and the credit was lost for good.
func TestCreditNackTrailingByHundredsOfWaves(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(cl types.ClientID) types.Amount {
		if cl == 1 {
			return 100
		}
		return 0
	})
	repBob := c.replicas[int(c.repOf(2))]
	bobGroup := []types.Payment{pay(1, 1, 2, 40)}

	var refs [][]byte
	for _, signer := range []int{0, 1} {
		// Job i of a wave signs chain entry i; the padding group differs
		// per signer, so the two chains do.
		jobs := []creditJob{
			{rep: 3, group: []types.Payment{pay(5, types.Seq(signer+1), 7, 1)}},
			{rep: c.repOf(2), group: bobGroup},
		}
		chain := []types.Digest{CreditGroupDigest(jobs[0].group), CreditGroupDigest(jobs[1].group)}
		_, ref := c.creditRefFrom(t, signer, chain, []creditRefGroup{{ChainIdx: 1, Group: bobGroup}})
		m, err := decodeCreditRef(ref[1:])
		if err != nil {
			t.Fatal(err)
		}
		r := c.replicas[signer]
		r.retainCreditWave(m.ChainDigest, retainedWave{chain: chain, sig: m.Sig, jobs: jobs})
		for i := 0; i < 500; i++ {
			later := []types.Digest{types.HashBytes([]byte{byte(signer), byte(i), byte(i >> 8)})}
			r.retainCreditWave(CreditChainDigest(later), retainedWave{chain: later, sig: m.Sig})
		}
		refs = append(refs, ref)
	}
	for signer, ref := range refs {
		if err := c.replicas[signer].cfg.Mux.Send(transport.ReplicaNode(c.repOf(2)), transport.ChanCredit, ref); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for repBob.Balance(2) != 40 {
		if time.Now().After(deadline) {
			t.Fatalf("certificate never completed after late NACKs; balance = %d, receiver %+v, signer 0 %+v",
				repBob.Balance(2), repBob.CreditRefStats(), c.replicas[0].CreditRefStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := repBob.CreditRefStats(); st.NacksSent != 2 {
		t.Fatalf("receiver stats = %+v, want one NACK per signer", st)
	}
	for _, signer := range []int{0, 1} {
		if st := c.replicas[signer].CreditRefStats(); st.DefsDemanded != 1 || st.RefsSent != 1 {
			t.Fatalf("signer %d stats = %+v, want the demanded definition and the reference again", signer, st)
		}
	}
}

// TestCreditWaveRetentionIsAByteBudget: over 10 000 signed waves the
// buffer never holds more than creditWaveRetainBytes, never fewer than
// creditChainCacheEntries waves, retires oldest first, and its byte count
// is exactly the sum of what it holds.
func TestCreditWaveRetentionIsAByteBudget(t *testing.T) {
	// A full wave: creditChainCap groups of 8 payments, ~9 KiB — 10 000 of
	// them are several budgets' worth.
	w := retainedWave{chain: make([]types.Digest, creditChainCap), sig: make([]byte, 72)}
	for i := 0; i < creditChainCap; i++ {
		w.jobs = append(w.jobs, creditJob{rep: 1, group: make([]types.Payment, 8)})
	}
	key := func(i int) types.Digest { return types.HashBytes([]byte{byte(i), byte(i >> 8), byte(i >> 16)}) }

	b := newWaveBuffer()
	const waves = 10000
	if waves*w.size() < 4*creditWaveRetainBytes {
		t.Fatalf("test waves too small to exercise the budget: %d B each", w.size())
	}
	for i := 0; i < waves; i++ {
		b.put(key(i), w)
		if b.bytes > creditWaveRetainBytes {
			t.Fatalf("after %d waves: %d B retained, budget %d", i+1, b.bytes, creditWaveRetainBytes)
		}
		if want := min(i+1, creditChainCacheEntries); len(b.order) < want {
			t.Fatalf("after %d waves: only %d retained", i+1, len(b.order))
		}
	}
	if len(b.order) != len(b.waves) || b.bytes != len(b.order)*w.size() {
		t.Fatalf("accounting drifted: %d ordered, %d mapped, %d B", len(b.order), len(b.waves), b.bytes)
	}
	if kept := creditWaveRetainBytes / w.size(); len(b.order) != kept {
		t.Fatalf("%d waves retained, budget holds %d", len(b.order), kept)
	}
	for i, d := range b.order {
		if d != key(waves-len(b.order)+i) {
			t.Fatalf("retained wave %d is not among the newest", i)
		}
	}
	b.put(key(waves-1), w) // a repeated digest is not counted twice
	if b.bytes != len(b.order)*w.size() {
		t.Fatal("repeated wave counted twice")
	}

	// Waves too large for the budget: the newest creditChainCacheEntries
	// are kept regardless.
	big := retainedWave{jobs: []creditJob{{group: make([]types.Payment, creditWaveRetainBytes/types.PaymentWireSize/8)}}}
	b = newWaveBuffer()
	for i := 0; i < 3*creditChainCacheEntries; i++ {
		b.put(key(i), big)
	}
	if len(b.order) != creditChainCacheEntries {
		t.Fatalf("%d oversized waves retained, want %d", len(b.order), creditChainCacheEntries)
	}
}

// TestCreditRefCompleteCertDropsSilently: a reference that cannot resolve
// but whose every group's certificate is already complete must be dropped
// without a NACK — the chain would only be used to discard the groups, so
// demanding it wastes the round trip.
func TestCreditRefCompleteCertDropsSilently(t *testing.T) {
	gen := func(c types.ClientID) types.Amount {
		if c == 1 {
			return 100
		}
		return 0
	}
	c := newCluster(t, AstroII, 4, gen)
	repBob := c.replicas[int(c.repOf(2))]

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	chain := []types.Digest{CreditGroupDigest(bobGroup)}
	groups := []creditRefGroup{{ChainIdx: 0, Group: bobGroup}}

	// Form the dependency from f+1 signers through definitions and
	// references (which prime only those peers' cache sections).
	for _, signer := range []int{0, 1} {
		def, ref := c.creditRefFrom(t, signer, chain, groups)
		for _, msg := range [][]byte{def, ref} {
			if err := c.replicas[signer].cfg.Mux.Send(transport.ReplicaNode(c.repOf(2)), transport.ChanCredit, msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for repBob.Balance(2) != 40 {
		if time.Now().After(deadline) {
			t.Fatalf("dependency never formed; balance = %d", repBob.Balance(2))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A late reference from a third signer to a DIFFERENT chain (unknown at
	// the receiver) carrying only the completed group: silent drop.
	tap, msgs := c.creditTap(t, 9)
	lateChain := []types.Digest{types.HashBytes([]byte("padding")), CreditGroupDigest(bobGroup)}
	_, ref := c.creditRefFrom(t, 2, lateChain, []creditRefGroup{{ChainIdx: 1, Group: bobGroup}})
	pre := repBob.CreditRefStats()
	if err := tap.Send(transport.ReplicaNode(c.repOf(2)), transport.ChanCredit, ref); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for repBob.CreditRefStats().RefMisses != pre.RefMisses+1 {
		if time.Now().After(deadline) {
			t.Fatalf("late reference never processed: %+v", repBob.CreditRefStats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := repBob.CreditRefStats(); st.NacksSent != pre.NacksSent {
		t.Fatalf("completed-certificate reference was NACKed: %+v", st)
	}
	select {
	case m := <-msgs:
		t.Fatalf("unexpected reply kind %d", m[0])
	case <-time.After(200 * time.Millisecond):
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
	// Interning survives decode: the two shared-chain signatures alias one
	// backing array.
	if &sigs[0].Chain[0] != &sigs[1].Chain[0] {
		t.Fatal("decoded shared chains do not alias one table entry")
	}
}
