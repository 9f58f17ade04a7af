package brb

// Tests of the origin's authenticated PREPARE: a replica acks only a
// PREPARE carrying the origin's link tag for it, so a PREPARE in another
// origin's name — the transport's sender id is not authenticated — is
// endorsed by no signature.

import (
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/types"
)

// endorsedInstances lists the instances an ACKBATCH frame signs.
func endorsedInstances(t *testing.T, frame []byte) []instanceID {
	t.Helper()
	if chain, _, ok := DecodeAckBatch(frame); ok {
		var ids []instanceID
		for _, e := range chain {
			ids = append(ids, instanceID{origin: e.Origin, slot: e.Slot})
		}
		return ids
	}
	t.Fatalf("unexpected frame kind %d at the origin", FrameKind(frame))
	return nil
}

// TestPrepareWithoutOriginTagGetsNoAck: PREPAREs sent from the origin's
// own address but carrying no tag, another link's tag, the origin's tag
// for a different receiver, a tag under a master every replica shares, or
// a tag replica 3 keys with its own key pair in the origin's name draw no
// ack signature; a PREPARE tagged by the origin for this receiver does.
func TestPrepareWithoutOriginTagGetsNoAck(t *testing.T) {
	fx := newAsyncSignFixture(t)
	p := []byte("batch")
	for _, frame := range [][]byte{
		EncodePrepare(0, 1, p),                                    // no tag
		signedPrepare(3, 1, 2, p),                                 // the 3-1 link's tag
		EncodeSignedPrepare(originTags()[0], 2, 0, 3, p),          // the origin's tag for replica 2
		EncodeSignedPrepare(testAuth(0), 1, 0, 5, p),              // a shared-master link key
		EncodeSignedPrepare(testTags(0, testKeys(3)), 1, 0, 6, p), // 3's key pair posing as 0
		signedPrepare(0, 1, 4, p),
	} {
		if err := fx.origin.Send(transport.ReplicaNode(1), transport.ChanBRB, frame); err != nil {
			t.Fatal(err)
		}
	}
	want := instanceID{origin: 0, slot: 4}
	got := false
	for deadline := time.After(500 * time.Millisecond); ; {
		select {
		case m := <-fx.brbMsgs:
			for _, id := range endorsedInstances(t, m) {
				if id != want {
					t.Fatalf("replica 1 endorsed %+v, whose PREPARE lacked the origin's tag", id)
				}
				got = true
			}
			continue
		case <-deadline:
		}
		break
	}
	if !got {
		t.Fatal("the PREPARE tagged by the origin drew no ack")
	}
}

// TestSpoofedOriginPrepareEndorsesNothing: on a 4-replica group, replica 3
// injects PREPAREs in origin 0's name — sent from 0's address, tagged with
// everything 3 can compute in 0's name: a link key derived from a master
// secret all replicas share, and a keyed authenticator claiming to be 0
// but holding 3's key pair — while broadcasting its own instance, so that
// any ack would ride a chain signature back to it. No replica acks the
// forged payloads, and origin 0's own broadcasts for the slots then
// deliver everywhere.
func TestSpoofedOriginPrepareEndorsesNothing(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	spoof := h.net.Node(transport.ReplicaNode(0)) // 0's address, 3's hand
	forged := []byte("forged")
	forgers := []*crypto.LinkAuthenticator{testAuth(0), testTags(0, h.keys[3])}
	for i, auth := range forgers {
		for _, to := range []types.ReplicaID{1, 2} {
			frame := EncodeSignedPrepare(auth, to, 0, uint64(i+1), forged)
			if err := spoof.Send(transport.ReplicaNode(to), append([]byte{byte(transport.ChanBRB)}, frame...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := h.bcs[3].Broadcast([]byte("own")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
		t.Fatalf("replica 3's own broadcast: deliveries = %d, want 4", got)
	}
	for slot := uint64(1); slot <= uint64(len(forgers)); slot++ {
		bad := SignedDigest(0, slot, forged)
		for _, bc := range h.bcs {
			s := bc.(*Signed)
			s.mu.Lock()
			rec := s.acked[instanceID{origin: 0, slot: slot}]
			s.mu.Unlock()
			if rec != nil && rec.digest == bad {
				t.Fatalf("replica %d acked the PREPARE forged in origin 0's name for slot %d", s.cfg.Self, slot)
			}
		}
	}
	for i := range forgers {
		if _, err := h.bcs[0].Broadcast([]byte("honest")); err != nil {
			t.Fatal(err)
		}
		if want := 4 * (i + 2); h.waitDeliveries(want, 5*time.Second) != want {
			t.Fatalf("origin 0's broadcast %d after the forgeries did not deliver everywhere", i+1)
		}
	}
	checkAgreement(t, h)
}

// TestEmptyCertificateRefusedAtFZero: a group of 3 tolerates no fault, yet
// a commit certificate still needs one ack from a member other than the
// origin. A COMMITTAB with no signature, sent from the origin's address or
// from outside the group, delivers nothing; the origin's own broadcast
// then delivers everywhere.
func TestEmptyCertificateRefusedAtFZero(t *testing.T) {
	h := newHarness(t, protoSigned, 3)
	if h.f != 0 {
		t.Fatalf("f = %d, want 0", h.f)
	}
	frame := append([]byte{byte(transport.ChanBRB)}, EncodeCommitTab(0, 1, []byte("forged"), AckCert{})...)
	for _, from := range []transport.NodeID{transport.ReplicaNode(0), transport.ReplicaNode(9)} {
		for _, to := range []types.ReplicaID{1, 2} {
			if err := h.net.Node(from).Send(transport.ReplicaNode(to), frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := h.waitDeliveries(1, 300*time.Millisecond); got != 0 {
		t.Fatalf("an empty certificate delivered %d times", got)
	}
	if _, err := h.bcs[0].Broadcast([]byte("honest")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(3, 5*time.Second); got != 3 {
		t.Fatalf("honest broadcast at f = 0: deliveries = %d, want 3", got)
	}
	checkAgreement(t, h)
}
