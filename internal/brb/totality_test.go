package brb

import (
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// certOf builds a certificate of single-slot signatures from alternating
// (replica, sig) pairs.
func certOf(r1 types.ReplicaID, s1 []byte, r2 types.ReplicaID, s2 []byte, r3 types.ReplicaID, s3 []byte) AckCert {
	return AckCert{Sigs: []AckSig{{Replica: r1, Sig: s1}, {Replica: r2, Sig: s2}, {Replica: r3, Sig: s3}}}
}

// TestBrachaTotalityPartialPrepare: a Byzantine origin sends PREPARE to
// only three of four replicas — just enough for an echo quorum among
// them. Bracha's totality must deliver the payload at the fourth replica
// too, through echo/ready amplification (paper §IV: without totality the
// partial payments attack would apply; Astro I relies on it).
func TestBrachaTotalityPartialPrepare(t *testing.T) {
	h := newHarness(t, protoBracha, 4)
	// Forge a partial PREPARE from replica 3's identity (it is the
	// "Byzantine" origin; we drive its mux directly). Replica 0 is left
	// out entirely.
	msg := EncodePrepare(3, 1, []byte("partial"))
	for _, target := range []types.ReplicaID{1, 2, 3} {
		if err := h.muxes[3].Send(transport.ReplicaNode(target), transport.ChanBRB, msg); err != nil {
			t.Fatal(err)
		}
	}
	// Replicas 1,2,3 echo to everyone (2f+1 echoes), send READY; replica
	// 0 learns the payload from the echoes/readys and delivers as well.
	if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
		t.Fatalf("deliveries = %d, want 4 (totality)", got)
	}
	checkAgreement(t, h)
	if d := h.deliveriesAt(0); len(d) != 1 || string(d[0].payload) != "partial" {
		t.Fatalf("excluded replica delivered %+v", d)
	}
}

// TestBrachaNoDeliveryBelowEchoQuorum: with PREPAREs reaching fewer than
// a Byzantine quorum of replicas, nobody delivers — also consistent with
// BRB (reliability only binds correct broadcasters).
func TestBrachaNoDeliveryBelowEchoQuorum(t *testing.T) {
	h := newHarness(t, protoBracha, 4)
	msg := EncodePrepare(3, 1, []byte("too-partial"))
	for _, target := range []types.ReplicaID{0, 1} {
		if err := h.muxes[3].Send(transport.ReplicaNode(target), transport.ChanBRB, msg); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	if got := h.waitDeliveries(1, 100*time.Millisecond); got != 0 {
		t.Fatalf("deliveries = %d, want 0", got)
	}
}

// TestSignedNoTotality: the signature-based protocol does not guarantee
// totality — a Byzantine origin that sends COMMIT to a single replica
// makes only that replica deliver. This is exactly the gap the payment
// layer's CREDIT dependency mechanism compensates for.
func TestSignedNoTotality(t *testing.T) {
	h := newHarness(t, protoSigned, 4)

	// The Byzantine origin (replica 3) runs the honest protocol far
	// enough to gather a valid certificate: we use its real broadcaster
	// to collect ACKs, but intercept before COMMIT by crafting the
	// commit ourselves. Simpler: run a full honest broadcast to harvest
	// a valid commit message, then replay a *fresh* instance partially.
	//
	// Craft instance (3, slot 1): send PREPARE to all, collect ACK sigs
	// by observing... instead, easiest faithful construction: sign ACKs
	// ourselves using the harness keys (the adversary controls replica 3
	// plus knows the protocol), building a certificate for a payload the
	// other replicas did acknowledge.
	payload := []byte("selective")
	d := SignedDigest(3, 1, payload)

	// Replicas 0,1,2 will ACK an honest PREPARE; replica 3 (adversary)
	// gathers them but sends COMMIT only to replica 0.
	prep := EncodePrepare(3, 1, payload)
	for _, target := range []types.ReplicaID{0, 1, 2} {
		_ = h.muxes[3].Send(transport.ReplicaNode(target), transport.ChanBRB, prep)
	}
	// The adversary's own signature plus two honest ACKs form the
	// quorum. Build the certificate directly with the harness keys.
	sig3, err := h.keys[3].Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	sig0, err := h.keys[0].Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	sig1, err := h.keys[1].Sign(d)
	if err != nil {
		t.Fatal(err)
	}
	var c = certOf(3, sig3, 0, sig0, 1, sig1)
	commit := EncodeCommitTab(3, 1, payload, c)
	if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, commit); err != nil {
		t.Fatal(err)
	}

	// Replica 0 delivers; nobody else ever does.
	if got := h.waitDeliveries(1, 5*time.Second); got != 1 {
		t.Fatalf("deliveries = %d, want 1", got)
	}
	time.Sleep(300 * time.Millisecond)
	if got := h.waitDeliveries(2, 100*time.Millisecond); got != 1 {
		t.Fatalf("unexpected extra deliveries: %d", got)
	}
	if d := h.deliveriesAt(0); len(d) != 1 || string(d[0].payload) != "selective" {
		t.Fatalf("replica 0 deliveries: %+v", d)
	}
}
