package core

import (
	"testing"
	"time"

	"astro/internal/brb"
	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/types"
)

// TestPartialPaymentsAttackBlocked reproduces the attack of paper §IV:
// without totality, a malicious representative can make only a subset of
// replicas settle a payment crediting Bob. The dependency mechanism must
// ensure Bob cannot spend unless at least f+1 replicas (one correct)
// actually approved the credit.
//
// Construction: Alice's representative broadcasts her payment but delivers
// the COMMIT to a single replica (as in brb's no-totality test). That
// replica settles and emits one CREDIT — below the f+1 threshold, so no
// dependency certificate forms and Bob's spend stays held/unfunded.
func TestPartialPaymentsAttackBlocked(t *testing.T) {
	gen := func(c types.ClientID) types.Amount {
		if c == 1 {
			return 100 // Alice
		}
		return 0 // Bob and everyone else start broke
	}
	c := newCluster(t, AstroII, 4, gen)

	// Alice's representative is replica 1 (RepOf(1) = 1); the adversary
	// controls it. Craft the partial broadcast by hand: an honest-looking
	// batch with Alice's payment, PREPAREd to all (gathering ACKs needs
	// real signatures, so sign with the harness keys), COMMITted only to
	// replica 2 — Bob's representative (RepOf(2) = 2).
	payment := types.Payment{Spender: 1, Seq: 1, Beneficiary: 2, Amount: 50}
	batch := EncodeBatch([]BatchEntry{{Payment: payment}})
	origin := c.repOf(1)
	d := brb.SignedDigest(origin, 1, batch)

	// PREPARE to everyone so honest replicas record their ACK state (the
	// adversary needs their payload endorsement to be plausible); the
	// ACKs themselves flow back to replica 1, which we simply ignore.
	adv := c.replicas[int(origin)].cfg
	for i := 0; i < 4; i++ {
		to := types.ReplicaID(i)
		if to == origin {
			continue
		}
		_ = adv.Mux.Send(transport.ReplicaNode(to), transport.ChanBRB, brb.EncodeSignedPrepare(crypto.NewKeyedLinkAuthenticator(origin, adv.Keys, adv.Registry), to, origin, 1, batch))
	}

	// Build a valid certificate of 2f non-origin acks with keys the
	// adversary could have gathered, and COMMIT only to Bob's
	// representative.
	var cert = c.certFor(t, origin, 1, d, 0, 3)
	commit := brb.EncodeCommitTab(origin, 1, batch, cert)
	_ = c.replicas[int(origin)].cfg.Mux.Send(transport.ReplicaNode(c.repOf(2)), transport.ChanBRB, commit)

	// Bob's representative settles Alice's payment (it delivered), but
	// only ONE replica emits a CREDIT: no f+1 dependency certificate can
	// form, so Bob's spendable balance stays 0 and his spend is held.
	repBob := c.replicas[int(c.repOf(2))]
	deadline := time.Now().Add(3 * time.Second)
	for repBob.SettledCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Bob's representative never settled the partial payment")
		}
		time.Sleep(2 * time.Millisecond)
	}

	bob := c.client(2)
	if _, err := bob.Pay(3, 40); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if held := repBob.PendingSubmits(2); held != 1 {
		t.Fatalf("Bob's spend not held: pending = %d (partial payment became spendable!)", held)
	}
	if bal := repBob.Balance(2); bal != 50 {
		// The settled credit is visible at the one replica that settled,
		// but it is not *spendable* without the certificate. Balance here
		// reports settled state only for non-represented views; for the
		// representative it includes deps (none formed).
		t.Logf("note: balance at Bob's rep = %d (settled locally, no certificate)", bal)
	}
	// No replica other than Bob's representative settled anything.
	for i, r := range c.replicas {
		if types.ReplicaID(i) == c.repOf(2) {
			continue
		}
		if r.SettledCount() != 0 {
			t.Errorf("replica %d settled %d payments (commit was sent only to Bob's rep)", i, r.SettledCount())
		}
	}
}

// certFor builds a certificate of the given replicas' lone acks of
// (origin, slot) with ack digest d.
func (c *cluster) certFor(t *testing.T, origin types.ReplicaID, slot uint64, d types.Digest, ids ...int) (cert brb.AckCert) {
	t.Helper()
	for _, id := range ids {
		a, err := brb.SignAck(c.keys[id], types.ReplicaID(id), origin, slot, d)
		if err != nil {
			t.Fatal(err)
		}
		cert.Sigs = append(cert.Sigs, a)
	}
	return cert
}

// TestValidatorRejectsForeignSpender: a replica must refuse to endorse a
// batch containing a payment whose spender it does not represent.
func TestValidatorRejectsForeignSpender(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis100)
	r := c.replicas[0]
	// Replica 2 (origin) broadcasting a payment of client 1 (represented
	// by replica 1): invalid.
	batch := EncodeBatch([]BatchEntry{{Payment: pay(1, 1, 2, 5)}})
	if r.validateBatch(2, 1, batch) {
		t.Error("batch with foreign spender endorsed")
	}
	// The correct origin passes.
	if !r.validateBatch(1, 1, batch) {
		t.Error("legitimate batch rejected")
	}
}

// TestValidatorRejectsConflict: having endorsed payment (s,n), a replica
// must not endorse a different payment with the same identifier.
func TestValidatorRejectsConflict(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis100)
	r := c.replicas[0]
	a := EncodeBatch([]BatchEntry{{Payment: pay(1, 1, 2, 5)}})
	b := EncodeBatch([]BatchEntry{{Payment: pay(1, 1, 3, 99)}})
	if !r.validateBatch(1, 1, a) {
		t.Fatal("first batch rejected")
	}
	if r.validateBatch(1, 2, b) {
		t.Error("conflicting payment endorsed for the same identifier")
	}
	// Re-endorsing the same payment (e.g. a retransmission) stays fine.
	if !r.validateBatch(1, 3, a) {
		t.Error("idempotent re-endorsement rejected")
	}
}

// TestValidatorRejectsMalformedBatch: undecodable payloads are never
// endorsed.
func TestValidatorRejectsMalformedBatch(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis100)
	if c.replicas[0].validateBatch(1, 1, []byte{0xFF, 0xFF, 0xFF, 0xFF}) {
		t.Error("garbage endorsed")
	}
}
