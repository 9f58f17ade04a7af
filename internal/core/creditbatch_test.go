package core

// Tests for settlement-wave CREDIT signing: chain-signed CREDITTABs from
// signers whose waves differ, the chain-capable dependency certificates
// they accumulate into, and the rejection of forged chains.

import (
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/types"
	"astro/internal/wire"
)

// TestCreditBatchFormsDependency: two signers (f+1 for n=4) whose
// settlement waves were cut differently credit the same group, each with a
// CREDITTAB over its own chain; the beneficiary's
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
	groups := []creditTabGroup{{ChainIdx: 1, Group: bobGroup}}
	for _, signer := range []int{0, 1} {
		other := []types.Payment{pay(5, types.Seq(signer+1), 6, 7)}
		chain := []types.Digest{CreditGroupDigest(other), CreditGroupDigest(bobGroup)}
		c.sendCredit(t, signer, c.repOf(2), c.creditTabFrom(t, signer, chain, groups))
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

// TestCreditBatchRejectsForgeries: a CREDITTAB whose group does not match
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
	c.sendCredit(t, 0, c.repOf(2), c.creditTabFrom(t, 0, chain1, []creditTabGroup{{ChainIdx: 0, Group: bobGroup}}))
	// Forgery 2: index and digest match, but the signature covers some
	// other chain.
	chain2 := []types.Digest{good}
	sig, err := c.keys[1].Sign(CreditChainDigest([]types.Digest{wrong}))
	if err != nil {
		t.Fatal(err)
	}
	c.sendCredit(t, 1, c.repOf(2), encodeCreditTab(creditTabMsg{Signer: 1, Chain: chain2, Sig: sig, Groups: []creditTabGroup{{ChainIdx: 0, Group: bobGroup}}}))
	// The retired kind 2, validly signed by signers 0 and 3: kind, signer,
	// chain, signature, then (chain index, group) per group.
	for _, signer := range []int{0, 3} {
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
		c.sendCredit(t, signer, c.repOf(2), w.Bytes())
	}
	time.Sleep(200 * time.Millisecond)
	if bal := repBob.Balance(2); bal != 0 {
		t.Fatalf("forged credits credited %d", bal)
	}
}

// loneDepSig is signer's CREDIT signature of group as a correct replica
// signs a lone credit group: over a chain of the group's one digest.
func loneDepSig(t testing.TB, kp *crypto.KeyPair, signer int, group []types.Payment) DepSig {
	t.Helper()
	chain := []types.Digest{CreditGroupDigest(group)}
	sig, err := kp.Sign(CreditChainDigest(chain))
	if err != nil {
		t.Fatal(err)
	}
	return DepSig{Replica: types.ReplicaID(signer), Sig: sig, Chain: chain}
}

// TestVerifyDependencyChainSigs checks the certificate verifier directly:
// chain signatures endorse a group only when its digest appears in the
// chain, a lone group's chain of one and a wave's longer chain count
// alike, and a signature over the bare group digest — the retired
// single-group form — endorses nothing. The batch origin sits in another
// shard, so every endorsement is a signature.
func TestVerifyDependencyChainSigs(t *testing.T) {
	reg := crypto.NewRegistry()
	keys := make([]*crypto.KeyPair, 3)
	for i := range keys {
		keys[i] = crypto.MustGenerateKeyPair()
		reg.Add(types.ReplicaID(i), keys[i].Public())
	}
	oneShard := func(types.ClientID) types.ShardID { return 0 }
	const origin = types.ReplicaID(9)
	repShard := func(r types.ReplicaID) types.ShardID {
		if r == origin {
			return 1
		}
		return 0
	}

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
	lone := loneDepSig(t, keys[0], 0, group)

	// A chain of one and a longer chain: both endorse.
	d := Dependency{Group: group, Cert: DepCert{Sigs: []DepSig{lone, chainSig(1, chain)}}}
	if err := VerifyDependency(d, origin, nil, reg, 1, oneShard, repShard); err != nil {
		t.Fatalf("lone-group and wave chains rejected: %v", err)
	}

	// A chain that does not contain the group's digest endorses nothing.
	bad := Dependency{Group: group, Cert: DepCert{Sigs: []DepSig{lone, chainSig(1, []types.Digest{other})}}}
	if err := VerifyDependency(bad, origin, nil, reg, 1, oneShard, repShard); err == nil {
		t.Fatal("chain not containing the group digest accepted as endorsement")
	}

	// A signature over the bare group digest endorses nothing, named with
	// the group's chain of one or with no chain (domain separation).
	sig, err := keys[1].Sign(digest)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range [][]types.Digest{{digest}, nil} {
		rd := Dependency{Group: group, Cert: DepCert{Sigs: []DepSig{lone, {Replica: 1, Sig: sig, Chain: ch}}}}
		if err := VerifyDependency(rd, origin, nil, reg, 1, oneShard, repShard); err == nil {
			t.Fatalf("signature over the bare group digest accepted with chain %v", ch)
		}
	}
}

// TestBatchCodecChainCertRoundTrip: batch entries carrying dependencies
// with a lone group's chain of one and a wave's longer chain survive the
// wire.
func TestBatchCodecChainCertRoundTrip(t *testing.T) {
	chain := []types.Digest{types.HashBytes([]byte("g1")), types.HashBytes([]byte("g2"))}
	lone := []types.Digest{CreditGroupDigest([]types.Payment{pay(9, 1, 3, 5)})}
	entries := []BatchEntry{
		{Payment: pay(3, 7, 4, 20), Deps: []Dependency{
			{
				Group: []types.Payment{pay(9, 1, 3, 5)},
				Cert: DepCert{Sigs: []DepSig{
					{Replica: 0, Sig: []byte("s0"), Chain: lone},
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
	if ls := dep.Cert.Sigs[0]; len(ls.Chain) != 1 || ls.Chain[0] != lone[0] || string(ls.Sig) != "s0" {
		t.Fatal("lone-group signature mangled")
	}
	cs := dep.Cert.Sigs[1]
	if cs.Replica != 2 || len(cs.Chain) != 2 || cs.Chain[0] != chain[0] || cs.Chain[1] != chain[1] {
		t.Fatal("chain signature mangled")
	}
}
