package core

import (
	"testing"
	"time"

	"astro/internal/brb"
	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/types"
)

// withClientAuth equips a cluster with end-to-end client signatures for
// the given client ids, returning the registry and per-client keys.
func withClientAuth(ids ...types.ClientID) (*crypto.ClientKeys, map[types.ClientID]*crypto.KeyPair, func(*Config)) {
	reg := crypto.NewClientKeys()
	keys := make(map[types.ClientID]*crypto.KeyPair)
	for _, id := range ids {
		kp := crypto.MustGenerateKeyPair()
		keys[id] = kp
		reg.Add(id, kp.Public())
	}
	return reg, keys, func(cfg *Config) { cfg.ClientKeys = reg }
}

func TestClientAuthEndToEnd(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		_, keys, opt := withClientAuth(1, 2)
		c := newCluster(t, v, 4, genesis100, opt)

		mux := transport.NewMux(c.net.Node(transport.ClientNode(1)))
		alice := NewAuthClient(1, c.repOf, mux, keys[1])

		id, err := alice.Pay(2, 30)
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
			t.Fatalf("signed payment never settled: %v", err)
		}
		c.waitSettledEverywhere(1, 5*time.Second)
	})
}

func TestClientAuthRejectsUnsigned(t *testing.T) {
	_, _, opt := withClientAuth(1)
	c := newCluster(t, AstroII, 4, genesis100, opt)

	// A plain (unsigned) client: its submissions must be dropped by the
	// representative.
	alice := c.client(1)
	if _, err := alice.Pay(2, 30); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	for i, r := range c.replicas {
		if r.SettledCount() != 0 {
			t.Fatalf("replica %d settled an unsigned payment", i)
		}
	}
}

func TestClientAuthRejectsWrongKey(t *testing.T) {
	_, _, opt := withClientAuth(1)
	c := newCluster(t, AstroII, 4, genesis100, opt)

	// Mallory signs with her own key, not the registered one.
	mux := transport.NewMux(c.net.Node(transport.ClientNode(1)))
	mallory := NewAuthClient(1, c.repOf, mux, crypto.MustGenerateKeyPair())
	if _, err := mallory.Pay(2, 30); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	for i, r := range c.replicas {
		if r.SettledCount() != 0 {
			t.Fatalf("replica %d settled a mis-signed payment", i)
		}
	}
}

func TestClientAuthBlocksForgingRepresentative(t *testing.T) {
	// The attack end-to-end signatures exist for: a malicious
	// representative fabricates a payment for its client. Without the
	// client's signature no other replica endorses the batch, so it
	// never reaches a quorum.
	reg, _, opt := withClientAuth(1)
	c := newCluster(t, AstroII, 4, genesis100, opt)
	_ = reg

	forged := types.Payment{Spender: 1, Seq: 1, Beneficiary: 5, Amount: 99}
	origin := c.repOf(1)
	batch := EncodeBatch([]BatchEntry{{Payment: forged}}) // no signature
	// The malicious representative broadcasts directly through its BRB
	// endpoint: PREPARE to every other replica.
	adv := c.replicas[int(origin)].cfg
	for i := range c.replicas {
		to := types.ReplicaID(i)
		if to == origin {
			continue
		}
		_ = adv.Mux.Send(transport.ReplicaNode(to), transport.ChanBRB, brb.EncodeSignedPrepare(crypto.NewKeyedLinkAuthenticator(origin, adv.Keys, adv.Registry), to, origin, 1, batch))
	}
	time.Sleep(300 * time.Millisecond)
	for i, r := range c.replicas {
		if r.SettledCount() != 0 {
			t.Fatalf("replica %d settled a representative-forged payment", i)
		}
	}
}

func TestPaymentDigestDomainSeparated(t *testing.T) {
	p := pay(1, 1, 2, 3)
	if PaymentDigest(p) == types.HashPayment(p) {
		t.Error("client-signature digest must be domain-separated from the raw payment hash")
	}
	q := p
	q.Amount = 4
	if PaymentDigest(p) == PaymentDigest(q) {
		t.Error("distinct payments share a digest")
	}
}

func TestBatchCodecCarriesSignatures(t *testing.T) {
	entries := []BatchEntry{
		{Payment: pay(1, 1, 2, 3), Sig: []byte("sig-bytes")},
		{Payment: pay(4, 1, 5, 6)}, // unsigned entry
	}
	got, err := DecodeBatch(EncodeBatch(entries))
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0].Sig) != "sig-bytes" {
		t.Errorf("sig = %q", got[0].Sig)
	}
	if got[1].Sig != nil {
		t.Errorf("unsigned entry decoded with sig %q", got[1].Sig)
	}
}
