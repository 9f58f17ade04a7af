package brb

import (
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// TestBrachaTotalityPartialPrepare: a Byzantine origin sends PREPARE to
// only three of four replicas — just enough for an echo quorum among
// them. Bracha's totality must deliver the payload at the fourth replica
// too, through echo/ready amplification (paper §IV: without totality the
// partial payments attack would apply; Astro I relies on it).
func TestBrachaTotalityPartialPrepare(t *testing.T) {
	h := newHarness(t, protoBracha, 4)
	// Forge a partial PREPARE from replica 3's identity (it is the
	// "Byzantine" origin; we drive its mux directly, and open its own
	// instance by direct call, as Broadcast does). Replica 0 is left out
	// entirely.
	msg := EncodePrepare(3, 1, []byte("partial"))
	for _, target := range []types.ReplicaID{1, 2} {
		if err := h.muxes[3].Send(transport.ReplicaNode(target), transport.ChanBRB, msg); err != nil {
			t.Fatal(err)
		}
	}
	h.bcs[3].(*Bracha).handlePrepare(instanceID{origin: 3, slot: 1}, []byte("partial"))
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
	for _, target := range []types.ReplicaID{0, 1, 2} {
		_ = h.muxes[3].Send(transport.ReplicaNode(target), transport.ChanBRB, signedPrepare(3, target, 1, payload))
	}
	// Two honest ACKs form the quorum of 2f non-origin acks; the
	// adversary's own signature rides along and counts for nothing.
	// Build the certificate directly with the harness keys.
	var c AckCert
	for _, r := range []types.ReplicaID{3, 0, 1} {
		a, err := SignAck(h.keys[r], r, 3, 1, d)
		if err != nil {
			t.Fatal(err)
		}
		c.Sigs = append(c.Sigs, a)
	}
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
