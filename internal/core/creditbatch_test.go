package core

// Tests for settlement-wave CREDIT signing: chain-signed CREDITREFs from
// signers whose waves differ, the chain-capable dependency certificates
// they accumulate into, and the rejection of forged chains.

import (
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// TestCreditBatchFormsDependency: two signers (f+1 for n=4) whose
// settlement waves were cut differently credit the same group, each with a
// CREDITCHAINDEF and a CREDITREF to its own chain; the beneficiary's
// representative must assemble a dependency certificate naming two
// distinct chains, and the beneficiary must be able to spend the funds —
// which carries both chains in the batch's table and exercises
// VerifyDependency's chain path end to end (attachment, screening at
// every replica, settlement).
func TestCreditBatchFormsDependency(t *testing.T) {
	gen := func(c types.ClientID) types.Amount {
		if c == 1 {
			return 100
		}
		return 0
	}
	c := newCluster(t, AstroII, 4, gen)
	repBob := c.replicas[int(c.repOf(2))] // client 2 -> replica 2

	// Bob's group sits at chain index 1 of each signer's wave, behind a
	// group that differs per signer.
	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	groups := []creditRefGroup{{ChainIdx: 1, Group: bobGroup}}
	for _, signer := range []int{0, 1} {
		other := []types.Payment{pay(5, types.Seq(signer+1), 6, 7)}
		chain := []types.Digest{CreditGroupDigest(other), CreditGroupDigest(bobGroup)}
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
			t.Fatalf("dependency never formed from two waves; balance = %d", repBob.Balance(2))
		}
		time.Sleep(2 * time.Millisecond)
	}
	repBob.repMu.Lock()
	deps := repBob.repDeps[2]
	repBob.repMu.Unlock()
	var table chainTable
	for _, d := range deps {
		table.add(d.Cert)
	}
	if len(deps) != 1 || len(table) != 2 {
		t.Fatalf("held %d dependencies naming %d chains, want one naming two", len(deps), len(table))
	}

	// Bob spends through the chain-signed dependency: the attached
	// certificate carries DepSig.Chain entries and must verify at every
	// replica's screen.
	bob := c.client(2)
	c.payAndWait(bob, 3, 25)
	c.waitSettledEverywhere(1, 5*time.Second)
	for i, r := range c.replicas {
		if bal := r.Balance(2); bal != 15 {
			t.Errorf("replica %d: settled balance(2) = %d, want 15", i, bal)
		}
	}
}

// TestCreditBatchRejectsForgeries: a CREDITREF whose group does not match
// the digest at its claimed chain index — or whose signature does not
// cover the chain — must not contribute to a dependency certificate, and
// neither does a frame of the retired kind that carried the chain inline,
// however valid its signature.
func TestCreditBatchRejectsForgeries(t *testing.T) {
	gen := func(c types.ClientID) types.Amount { return 0 }
	c := newCluster(t, AstroII, 4, gen)
	repBob := c.replicas[int(c.repOf(2))]

	bobGroup := []types.Payment{pay(1, 1, 2, 40)}
	good := CreditGroupDigest(bobGroup)
	wrong := CreditGroupDigest([]types.Payment{pay(1, 1, 2, 9999)})

	// Forgery 1: chain signed correctly, but the claimed index holds a
	// different group's digest.
	chain1 := []types.Digest{wrong, good}
	def1, ref1 := c.creditRefFrom(t, 0, chain1, []creditRefGroup{{ChainIdx: 0, Group: bobGroup}})
	// Forgery 2: index and digest match, but the signature covers some
	// other chain.
	chain2 := []types.Digest{good}
	sig, err := c.keys[1].Sign(CreditChainDigest([]types.Digest{wrong}))
	if err != nil {
		t.Fatal(err)
	}
	ref2 := encodeCreditRef(creditRefMsg{Signer: 1, ChainDigest: CreditChainDigest(chain2), Sig: sig, Groups: []creditRefGroup{{ChainIdx: 0, Group: bobGroup}}})

	for signer, msgs := range map[int][][]byte{0: {def1, ref1}, 1: {encodeCreditChainDef(chain2), ref2}} {
		for _, msg := range msgs {
			if err := c.replicas[signer].cfg.Mux.Send(transport.ReplicaNode(c.repOf(2)), transport.ChanCredit, msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The retired kind 2, validly signed by signers 2 and 3: kind, signer,
	// chain, signature, then (chain index, group) per group.
	for _, signer := range []int{2, 3} {
		sig, err := c.keys[signer].Sign(CreditChainDigest(chain2))
		if err != nil {
			t.Fatal(err)
		}
		w := wire.NewWriter(256)
		w.U8(2)
		w.U32(uint32(signer))
		wire.AppendDigestList(w, chain2)
		w.Chunk(sig)
		w.U32(1)
		w.U32(0)
		appendPaymentGroup(w, bobGroup)
		if err := c.replicas[signer].cfg.Mux.Send(transport.ReplicaNode(c.repOf(2)), transport.ChanCredit, w.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	if bal := repBob.Balance(2); bal != 0 {
		t.Fatalf("forged credits credited %d", bal)
	}
}

// TestVerifyDependencyChainSigs checks the certificate verifier directly:
// chain signatures endorse a group only when its digest appears in the
// chain, and mixed plain/chain certificates count distinct signers.
func TestVerifyDependencyChainSigs(t *testing.T) {
	reg := crypto.NewRegistry()
	keys := make([]*crypto.KeyPair, 3)
	for i := range keys {
		keys[i] = crypto.MustGenerateKeyPair()
		reg.Add(types.ReplicaID(i), keys[i].Public())
	}
	oneShard := func(types.ClientID) types.ShardID { return 0 }
	repShard := func(types.ReplicaID) types.ShardID { return 0 }

	group := []types.Payment{pay(1, 1, 2, 10)}
	digest := CreditGroupDigest(group)
	other := CreditGroupDigest([]types.Payment{pay(3, 1, 4, 5)})
	chain := []types.Digest{other, digest}

	chainSig := func(i int, ch []types.Digest) DepSig {
		sig, err := keys[i].Sign(CreditChainDigest(ch))
		if err != nil {
			t.Fatal(err)
		}
		return DepSig{Replica: types.ReplicaID(i), Sig: sig, Chain: ch}
	}
	plainSig := func(i int) DepSig {
		sig, err := keys[i].Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		return DepSig{Replica: types.ReplicaID(i), Sig: sig}
	}

	// Mixed certificate: one plain, one chain signature — both endorse.
	d := Dependency{Group: group, Cert: DepCert{Sigs: []DepSig{plainSig(0), chainSig(1, chain)}}}
	if err := VerifyDependency(d, nil, reg, 1, oneShard, repShard); err != nil {
		t.Fatalf("mixed plain/chain certificate rejected: %v", err)
	}

	// A chain that does not contain the group's digest endorses nothing.
	bad := Dependency{Group: group, Cert: DepCert{Sigs: []DepSig{plainSig(0), chainSig(1, []types.Digest{other})}}}
	if err := VerifyDependency(bad, nil, reg, 1, oneShard, repShard); err == nil {
		t.Fatal("chain not containing the group digest accepted as endorsement")
	}

	// A chain signature replayed as a plain signature must fail (domain
	// separation).
	replay := chainSig(1, chain)
	replay.Chain = nil
	rd := Dependency{Group: group, Cert: DepCert{Sigs: []DepSig{plainSig(0), replay}}}
	if err := VerifyDependency(rd, nil, reg, 1, oneShard, repShard); err == nil {
		t.Fatal("chain signature replayed as single-group signature accepted")
	}
}

// TestBatchCodecChainCertRoundTrip: batch entries carrying dependencies
// with mixed single-group and chain signatures survive the wire.
func TestBatchCodecChainCertRoundTrip(t *testing.T) {
	chain := []types.Digest{types.HashBytes([]byte("g1")), types.HashBytes([]byte("g2"))}
	entries := []BatchEntry{
		{Payment: pay(3, 7, 4, 20), Deps: []Dependency{
			{
				Group: []types.Payment{pay(9, 1, 3, 5)},
				Cert: DepCert{Sigs: []DepSig{
					{Replica: 0, Sig: []byte("s0")},
					{Replica: 2, Sig: []byte("s2"), Chain: chain},
				}},
			},
		}},
	}
	got, err := DecodeBatch(EncodeBatch(entries))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	dep := got[0].Deps[0]
	if len(dep.Cert.Sigs) != 2 {
		t.Fatalf("cert has %d sigs", len(dep.Cert.Sigs))
	}
	if dep.Cert.Sigs[0].Chain != nil || string(dep.Cert.Sigs[0].Sig) != "s0" {
		t.Fatal("plain signature mangled")
	}
	cs := dep.Cert.Sigs[1]
	if cs.Replica != 2 || len(cs.Chain) != 2 || cs.Chain[0] != chain[0] || cs.Chain[1] != chain[1] {
		t.Fatal("chain signature mangled")
	}
}

// TestCreditCodecRoundTrip covers the single-group CREDIT.
func TestCreditCodecRoundTrip(t *testing.T) {
	single := creditMsg{Signer: 3, Group: []types.Payment{pay(1, 1, 2, 10), pay(4, 2, 2, 5)}, Sig: []byte("sig")}
	enc := encodeCredit(single)
	if enc[0] != msgCreditSingle {
		t.Fatal("single kind byte wrong")
	}
	gotS, err := decodeCredit(enc[1:])
	if err != nil {
		t.Fatal(err)
	}
	if gotS.Signer != 3 || len(gotS.Group) != 2 || gotS.Group[1] != single.Group[1] || string(gotS.Sig) != "sig" {
		t.Fatalf("single round trip mangled: %+v", gotS)
	}
}
