package brb

// Table-driven tests of commit-certificate verification
// (verifyAckCertDetached), each case run over single-slot and chain
// signatures: quorum semantics, membership, forged
// signatures, and certificates that cannot endorse the instance.

import (
	"fmt"
	"testing"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/types"
)

// certFixture is a verifying replica of an n-member group (replicas
// 0..n-1) whose registry also holds the keys of nonMembers more replicas
// (n..n+nonMembers-1). It has no transport: verification only reads the
// group, the registry and the verifier.
type certFixture struct {
	s    *Signed
	keys []*crypto.KeyPair
	id   instanceID
}

func newCertFixture(t *testing.T, n, nonMembers int) *certFixture {
	t.Helper()
	reg := crypto.NewRegistry()
	fx := &certFixture{id: instanceID{origin: 2, slot: 9}}
	var peers []types.ReplicaID
	for i := 0; i < n+nonMembers; i++ {
		kp := crypto.MustGenerateKeyPair()
		fx.keys = append(fx.keys, kp)
		reg.Add(types.ReplicaID(i), kp.Public())
		if i < n {
			peers = append(peers, types.ReplicaID(i))
		}
	}
	v := verifier.New(4)
	t.Cleanup(v.Close)
	fx.s = &Signed{cfg: Config{Peers: peers, F: types.MaxFaults(n), Registry: reg}, ver: v}
	return fx
}

// sigMode builds replica r's endorsement of digest d for the fixture's
// instance, as a single-slot or as a chain signature.
type sigMode struct {
	name string
	sign func(t *testing.T, fx *certFixture, r int, d types.Digest) AckSig
}

var sigModes = []sigMode{
	{"plain", func(t *testing.T, fx *certFixture, r int, d types.Digest) AckSig {
		sig, err := fx.keys[r].Sign(d)
		if err != nil {
			t.Fatal(err)
		}
		return AckSig{Replica: types.ReplicaID(r), Sig: sig}
	}},
	{"chain", func(t *testing.T, fx *certFixture, r int, d types.Digest) AckSig {
		chain := []ChainEntry{
			{Origin: 0, Slot: uint64(r) + 1, Digest: types.HashBytes([]byte{byte(r)})},
			{Origin: fx.id.origin, Slot: fx.id.slot, Digest: d},
		}
		cd := AckChainDigest(chain)
		sig, err := fx.keys[r].Sign(cd)
		if err != nil {
			t.Fatal(err)
		}
		return AckSig{Replica: types.ReplicaID(r), Sig: sig, Chain: chain, ChainDigest: cd}
	}},
}

// cert builds a certificate over d signed by the given replicas.
func (fx *certFixture) cert(t *testing.T, m sigMode, d types.Digest, signers ...int) AckCert {
	var c AckCert
	for _, r := range signers {
		c.Sigs = append(c.Sigs, m.sign(t, fx, r, d))
	}
	return c
}

// forge flips a byte of signature i.
func forge(c AckCert, i int) AckCert {
	sigs := append([]AckSig(nil), c.Sigs...)
	sigs[i].Sig = append([]byte(nil), sigs[i].Sig...)
	sigs[i].Sig[4] ^= 0xaa
	return AckCert{Sigs: sigs}
}

// verdict runs the certificate through verifyAckCertDetached on s and
// waits for the callback.
func (fx *certFixture) verdict(s *Signed, d types.Digest, c AckCert) bool {
	done := make(chan bool, 1)
	s.verifyAckCertDetached(fx.id, d, c, func(ok bool) { done <- ok })
	return <-done
}

// checkVerdict verifies the certificate twice: on the fixture's memoizing
// verifier, and on a memo-less one, so the second run fans every signature
// out instead of answering from the verdicts the first run cached.
func (fx *certFixture) checkVerdict(t *testing.T, what string, d types.Digest, c AckCert, want bool) {
	t.Helper()
	if got := fx.verdict(fx.s, d, c); got != want {
		t.Fatalf("%s: memoized verdict %v, want %v", what, got, want)
	}
	fan := verifier.New(fx.s.ver.Workers(), verifier.WithMemoSize(0))
	defer fan.Close()
	if got := fx.verdict(&Signed{cfg: fx.s.cfg, ver: fan}, d, c); got != want {
		t.Fatalf("%s: memo-less verdict %v, want %v", what, got, want)
	}
}

func TestVerifyAckCertParallel(t *testing.T) {
	for _, m := range sigModes {
		t.Run(m.name, func(t *testing.T) {
			fx := newCertFixture(t, 10, 0) // quorum 2f+1 = 7
			d := SignedDigest(fx.id.origin, fx.id.slot, []byte("batch"))
			all := fx.cert(t, m, d, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
			fx.checkVerdict(t, "full certificate", d, all, true)
			fx.checkVerdict(t, "exact quorum", d, AckCert{Sigs: all.Sigs[:7]}, true)
			fx.checkVerdict(t, "one short of the quorum", d, AckCert{Sigs: all.Sigs[:6]}, false)
			other := SignedDigest(fx.id.origin, fx.id.slot, []byte("other"))
			fx.checkVerdict(t, "wrong payload digest", other, all, false)
		})
	}
}

func TestVerifyAckCertForgedEarlyExit(t *testing.T) {
	for _, m := range sigModes {
		t.Run(m.name, func(t *testing.T) {
			// Exactly a quorum of signatures with one forged can never reach
			// the quorum.
			fx := newCertFixture(t, 10, 0)
			d := SignedDigest(fx.id.origin, fx.id.slot, []byte("batch"))
			c := forge(fx.cert(t, m, d, 0, 1, 2, 3, 4, 5, 6), 3)
			fx.checkVerdict(t, "forged certificate", d, c, false)
			// The verdicts are memoized: a redelivery fails from the memo
			// without re-running ECDSA on the forged signature.
			h0, _ := fx.s.ver.MemoStats()
			if fx.verdict(fx.s, d, c) {
				t.Fatal("redelivered forged certificate accepted")
			}
			if h1, _ := fx.s.ver.MemoStats(); h1 == h0 {
				t.Fatal("redelivered certificate produced no memo hits")
			}
		})
	}
}

// TestVerifyAckCertQuorumSemantics: a quorum of valid endorsements is
// exactly what the protocol needs. Extra invalid signatures beyond it do
// not invalidate the certificate; a repeated signer counts once and a
// member without a registered key is one invalid vote — neither refuses
// the whole certificate.
func TestVerifyAckCertQuorumSemantics(t *testing.T) {
	for _, m := range sigModes {
		t.Run(m.name, func(t *testing.T) {
			fx := newCertFixture(t, 10, 0)
			d := SignedDigest(fx.id.origin, fx.id.slot, []byte("batch"))
			quorum := fx.cert(t, m, d, 0, 1, 2, 3, 4, 5, 6)
			garbage := AckCert{Sigs: append(append([]AckSig(nil), quorum.Sigs...), AckSig{Replica: 7, Sig: []byte("garbage")})}
			fx.checkVerdict(t, "quorum plus a garbage signature", d, garbage, true)

			dup := fx.cert(t, m, d, 0, 0, 0, 1, 2, 3, 4, 5)
			fx.checkVerdict(t, "quorum counted with a repeated signer", d, dup, false)
			fx.checkVerdict(t, "quorum plus a repeated signer", d, AckCert{Sigs: append(dup.Sigs, m.sign(t, fx, 6, d))}, true)

			// Replica 3 stays a member but its key leaves the registry.
			reg := crypto.NewRegistry()
			for i, kp := range fx.keys {
				if i != 3 {
					reg.Add(types.ReplicaID(i), kp.Public())
				}
			}
			fx.s.cfg.Registry = reg
			fx.s.ver = verifier.New(4) // the old memo vouches for replica 3's signature
			t.Cleanup(fx.s.ver.Close)
			fx.checkVerdict(t, "quorum counting a member without a key", d, quorum, false)
			fx.checkVerdict(t, "quorum plus a member without a key", d, fx.cert(t, m, d, 0, 1, 2, 3, 4, 5, 6, 7), true)
		})
	}
}

func TestVerifyAckCertMembership(t *testing.T) {
	for _, m := range sigModes {
		t.Run(m.name, func(t *testing.T) {
			// A group of 4 (quorum 3) whose registry also knows replicas 4-6:
			// their valid signatures endorse nothing here.
			fx := newCertFixture(t, 4, 3)
			d := SignedDigest(fx.id.origin, fx.id.slot, []byte("batch"))
			fx.checkVerdict(t, "two members and three outsiders", d, fx.cert(t, m, d, 0, 4, 1, 5, 6), false)
			fx.checkVerdict(t, "three members among outsiders", d, fx.cert(t, m, d, 4, 0, 5, 1, 6, 2), true)
		})
	}
}

// TestVerifyAckCertChainMustEndorse: a chain signature endorses the
// instance only through an entry naming it with the committed payload's
// ack digest.
func TestVerifyAckCertChainMustEndorse(t *testing.T) {
	fx := newCertFixture(t, 4, 0)
	d := SignedDigest(fx.id.origin, fx.id.slot, []byte("batch"))
	sign := func(r int, chain []ChainEntry) AckSig {
		sig, err := fx.keys[r].Sign(AckChainDigest(chain))
		if err != nil {
			t.Fatal(err)
		}
		return AckSig{Replica: types.ReplicaID(r), Sig: sig, Chain: chain}
	}
	for i, chain := range [][]ChainEntry{
		{{Origin: fx.id.origin, Slot: fx.id.slot + 1, Digest: d}},
		{{Origin: fx.id.origin + 1, Slot: fx.id.slot, Digest: d}},
		{{Origin: fx.id.origin, Slot: fx.id.slot, Digest: types.HashBytes([]byte("other"))}},
	} {
		c := AckCert{Sigs: []AckSig{sign(0, chain), sign(1, chain), sign(2, chain)}}
		fx.checkVerdict(t, fmt.Sprintf("wrong chain %d", i), d, c, false)
	}
}
