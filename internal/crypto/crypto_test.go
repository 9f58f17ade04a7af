package crypto

import (
	"errors"
	"testing"
	"testing/quick"

	"astro/internal/types"
	"astro/internal/wire"
)

func TestSignVerify(t *testing.T) {
	kp := MustGenerateKeyPair()
	d := types.HashBytes([]byte("payment"))
	sig, err := kp.Sign(d)
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	if !Verify(kp.Public(), d, sig) {
		t.Error("valid signature rejected")
	}
	d2 := types.HashBytes([]byte("other"))
	if Verify(kp.Public(), d2, sig) {
		t.Error("signature accepted for wrong digest")
	}
	other := MustGenerateKeyPair()
	if Verify(other.Public(), d, sig) {
		t.Error("signature accepted under wrong key")
	}
}

func TestPublicKeySerialization(t *testing.T) {
	kp := MustGenerateKeyPair()
	der := kp.PublicBytes()
	pub, err := ParsePublicKey(der)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d := types.HashBytes([]byte("x"))
	sig, err := kp.Sign(d)
	if err != nil {
		t.Fatalf("sign: %v", err)
	}
	if !Verify(pub, d, sig) {
		t.Error("parsed key does not verify")
	}
	if _, err := ParsePublicKey([]byte("garbage")); err == nil {
		t.Error("parse garbage: want error")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if reg.Lookup(1) != nil {
		t.Error("lookup on empty registry should be nil")
	}
	kp := MustGenerateKeyPair()
	reg.Add(1, kp.Public())
	if reg.Lookup(1) != kp.Public() {
		t.Error("lookup returned wrong key")
	}
	if reg.Len() != 1 {
		t.Errorf("Len = %d", reg.Len())
	}
}

func buildCert(t *testing.T, reg *Registry, d types.Digest, ids []types.ReplicaID) Certificate {
	t.Helper()
	var cert Certificate
	for _, id := range ids {
		kp := MustGenerateKeyPair()
		reg.Add(id, kp.Public())
		sig, err := kp.Sign(d)
		if err != nil {
			t.Fatalf("sign: %v", err)
		}
		cert.Add(PartialSig{Replica: id, Sig: sig})
	}
	return cert
}

func TestCertificateVerify(t *testing.T) {
	reg := NewRegistry()
	d := types.HashBytes([]byte("batch"))
	cert := buildCert(t, reg, d, []types.ReplicaID{0, 1, 2})

	if err := VerifyCertificate(reg, cert, d, 3, nil); err != nil {
		t.Errorf("valid cert rejected: %v", err)
	}
	if err := VerifyCertificate(reg, cert, d, 4, nil); !errors.Is(err, ErrCertTooSmall) {
		t.Errorf("under-threshold cert: err = %v", err)
	}
	wrong := types.HashBytes([]byte("tampered"))
	if err := VerifyCertificate(reg, cert, wrong, 3, nil); !errors.Is(err, ErrCertBadSig) {
		t.Errorf("wrong-digest cert: err = %v", err)
	}
}

func TestCertificateDuplicateSigner(t *testing.T) {
	reg := NewRegistry()
	d := types.HashBytes([]byte("dup"))
	kp := MustGenerateKeyPair()
	reg.Add(5, kp.Public())
	sig, err := kp.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	// Certificate.Add dedups, so construct duplicates directly.
	cert := Certificate{Sigs: []PartialSig{{Replica: 5, Sig: sig}, {Replica: 5, Sig: sig}}}
	if err := VerifyCertificate(reg, cert, d, 2, nil); !errors.Is(err, ErrCertDuplicate) {
		t.Errorf("duplicate signer: err = %v", err)
	}
}

func TestCertificateUnknownSigner(t *testing.T) {
	reg := NewRegistry()
	d := types.HashBytes([]byte("unk"))
	kp := MustGenerateKeyPair()
	sig, err := kp.Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	cert := Certificate{Sigs: []PartialSig{{Replica: 99, Sig: sig}}}
	if err := VerifyCertificate(reg, cert, d, 1, nil); !errors.Is(err, ErrCertUnknownKey) {
		t.Errorf("unknown signer: err = %v", err)
	}
}

func TestCertificateMembership(t *testing.T) {
	reg := NewRegistry()
	d := types.HashBytes([]byte("shard"))
	cert := buildCert(t, reg, d, []types.ReplicaID{0, 1, 2, 3})
	inShard := func(id types.ReplicaID) bool { return id < 2 }
	// Only replicas 0,1 count toward the threshold.
	if err := VerifyCertificate(reg, cert, d, 2, inShard); err != nil {
		t.Errorf("cert with 2 in-shard sigs rejected at threshold 2: %v", err)
	}
	if err := VerifyCertificate(reg, cert, d, 3, inShard); !errors.Is(err, ErrCertTooSmall) {
		t.Errorf("cert with 2 in-shard sigs at threshold 3: err = %v", err)
	}
}

func TestCertificateAddKeepsSorted(t *testing.T) {
	var cert Certificate
	for _, id := range []types.ReplicaID{5, 1, 3, 1, 2, 5} {
		cert.Add(PartialSig{Replica: id, Sig: []byte{byte(id)}})
	}
	if cert.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (dedup)", cert.Len())
	}
	for i := 1; i < len(cert.Sigs); i++ {
		if cert.Sigs[i-1].Replica >= cert.Sigs[i].Replica {
			t.Fatalf("not sorted at %d: %v", i, cert.Sigs)
		}
	}
}

func TestCertificateCodec(t *testing.T) {
	reg := NewRegistry()
	d := types.HashBytes([]byte("enc"))
	cert := buildCert(t, reg, d, []types.ReplicaID{2, 7, 9})

	w := wire.NewWriter(0)
	EncodeCertificate(w, cert)
	r := wire.NewReader(w.Bytes())
	got, err := DecodeCertificate(r)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if err := VerifyCertificate(reg, got, d, 3, nil); err != nil {
		t.Errorf("round-tripped cert invalid: %v", err)
	}
}

func TestCertificateCodecCorrupt(t *testing.T) {
	r := wire.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := DecodeCertificate(r); err == nil {
		t.Error("decode absurd count: want error")
	}
}

func TestLinkAuthenticator(t *testing.T) {
	master := []byte("shared-master-secret")
	a := NewLinkAuthenticator(1, master)
	b := NewLinkAuthenticator(2, master)
	c := NewLinkAuthenticator(3, master)

	msg := []byte("echo (s,n)")
	tag := a.Tag(2, msg)
	if !b.VerifyTag(1, msg, tag) {
		t.Error("peer rejects valid tag")
	}
	if b.VerifyTag(1, []byte("tampered"), tag) {
		t.Error("tampered message accepted")
	}
	if c.VerifyTag(1, msg, tag) {
		t.Error("third party verified tag for foreign link")
	}
	if len(tag) != TagSize {
		t.Errorf("tag size = %d, want %d", len(tag), TagSize)
	}
}

func TestLinkAuthenticatorSymmetry(t *testing.T) {
	master := []byte("m")
	f := func(x, y uint32, msg []byte) bool {
		a := NewLinkAuthenticator(types.ReplicaID(x), master)
		b := NewLinkAuthenticator(types.ReplicaID(y), master)
		return b.VerifyTag(types.ReplicaID(x), msg, a.Tag(types.ReplicaID(y), msg))
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestKeyedLinkAuthenticator: a link key derived by ECDH from two
// replicas' registered key pairs is shared by exactly those two. A third
// replica claiming one end's id with its own key pair, or a shared-master
// authenticator, makes tags the other end refuses; a peer without a
// registered key has no link key; a re-registered key re-derives it.
func TestKeyedLinkAuthenticator(t *testing.T) {
	reg := NewRegistry()
	keys := make([]*KeyPair, 4)
	for i := range keys {
		keys[i] = MustGenerateKeyPair()
		reg.Add(types.ReplicaID(i), keys[i].Public())
	}
	a := NewKeyedLinkAuthenticator(1, keys[1], reg)
	b := NewKeyedLinkAuthenticator(2, keys[2], reg)
	msg := []byte("prepare (o,s,d)")
	tag := a.Tag(2, msg)
	if len(tag) != TagSize || !b.VerifyTag(1, msg, tag) {
		t.Fatal("peer rejects a valid keyed tag")
	}
	if b.VerifyTag(1, []byte("tampered"), tag) {
		t.Error("tampered message accepted")
	}
	if posing := NewKeyedLinkAuthenticator(1, keys[3], reg); b.VerifyTag(1, msg, posing.Tag(2, msg)) {
		t.Error("replica 3's key pair made replica 1's tag")
	}
	if shared := NewLinkAuthenticator(1, []byte("m")); b.VerifyTag(1, msg, shared.Tag(2, msg)) {
		t.Error("a shared-master tag verified on a keyed link")
	}
	if a.Tag(9, msg) != nil || a.VerifyTag(9, msg, make([]byte, TagSize)) {
		t.Error("a link to an unregistered peer has a key")
	}
	reg.Add(1, MustGenerateKeyPair().Public())
	if b.VerifyTag(1, msg, tag) {
		t.Error("a tag under replica 1's replaced key still verifies")
	}
}

// TestKeyedLinkAuthenticatorSimulated: simulated key pairs derive their
// link keys from the simulation master, symmetrically; a real key pair
// has no link with a simulated peer.
func TestKeyedLinkAuthenticatorSimulated(t *testing.T) {
	master := []byte("sim-master")
	reg := NewRegistry()
	reg.EnableSim(master)
	reg.AddSim(1)
	reg.AddSim(2)
	real := MustGenerateKeyPair()
	reg.Add(3, real.Public())
	a := NewKeyedLinkAuthenticator(1, NewSimKeyPair(1, master), reg)
	b := NewKeyedLinkAuthenticator(2, NewSimKeyPair(2, master), reg)
	msg := []byte("m")
	if !b.VerifyTag(1, msg, a.Tag(2, msg)) {
		t.Fatal("simulated link keys differ at the two ends")
	}
	if a.Tag(3, msg) != nil || NewKeyedLinkAuthenticator(3, real, reg).Tag(1, msg) != nil {
		t.Error("a link between a simulated and a real key pair has a key")
	}
}
