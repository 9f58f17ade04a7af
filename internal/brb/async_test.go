package brb

import (
	"fmt"
	"testing"
	"time"

	"astro/internal/crypto/verifier"
	"astro/internal/transport"
	"astro/internal/types"
)

// signCommitFor builds a valid commit message for instance (origin, slot)
// signed by the first three harness replicas — a 2f+1 quorum at n=4.
func signCommitFor(t *testing.T, h *harness, origin types.ReplicaID, slot uint64, payload []byte) []byte {
	t.Helper()
	d := SignedDigest(origin, slot, payload)
	var cert AckCert
	for _, r := range []types.ReplicaID{0, 1, 2} {
		sig, err := h.keys[r].Sign(d)
		if err != nil {
			t.Fatal(err)
		}
		cert.Sigs = append(cert.Sigs, AckSig{Replica: r, Sig: sig})
	}
	return EncodeCommitTab(origin, slot, payload, cert)
}

// TestSignedDeliveryOrderOutOfOrderVerify is the regression test for the
// asynchronous verification pipeline: commits for slots 3, 2, 1 of one
// origin arrive in reverse order, so their certificate verifications
// complete out of slot order, yet replica 0 must deliver 1, 2, 3.
func TestSignedDeliveryOrderOutOfOrderVerify(t *testing.T) {
	for round := 0; round < 5; round++ { // completion order is scheduler-dependent; try repeatedly
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			h := newHarness(t, protoSigned, 4)
			const slots = 3
			for slot := uint64(slots); slot >= 1; slot-- {
				payload := []byte(fmt.Sprintf("m%d", slot))
				commit := signCommitFor(t, h, 3, slot, payload)
				if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, commit); err != nil {
					t.Fatal(err)
				}
			}
			if got := h.waitDeliveries(slots, 5*time.Second); got != slots {
				t.Fatalf("deliveries = %d, want %d", got, slots)
			}
			dlv := h.deliveriesAt(0)
			if len(dlv) != slots {
				t.Fatalf("replica 0 delivered %d, want %d", len(dlv), slots)
			}
			for i, dv := range dlv {
				if dv.origin != 3 || dv.slot != uint64(i+1) {
					t.Fatalf("delivery %d = origin %d slot %d, want origin 3 slot %d", i, dv.origin, dv.slot, i+1)
				}
				if want := fmt.Sprintf("m%d", i+1); string(dv.payload) != want {
					t.Fatalf("delivery %d payload = %q, want %q", i, dv.payload, want)
				}
			}
		})
	}
}

// TestSignedCommitRetryAfterBadCertificate: a commit whose certificate
// fails verification must not poison the instance — a later well-formed
// commit for the same instance still delivers.
func TestSignedCommitRetryAfterBadCertificate(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	payload := []byte("eventually")

	// Certificate of garbage signatures: structurally fine, cryptographically not.
	var bad AckCert
	for _, r := range []types.ReplicaID{0, 1, 2} {
		bad.Sigs = append(bad.Sigs, AckSig{Replica: r, Sig: []byte("garbage")})
	}
	badCommit := EncodeCommitTab(3, 1, payload, bad)
	if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, badCommit); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(1, 200*time.Millisecond); got != 0 {
		t.Fatalf("bad certificate delivered: %d", got)
	}

	good := signCommitFor(t, h, 3, 1, payload)
	if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, good); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(1, 5*time.Second); got != 1 {
		t.Fatalf("deliveries after good commit = %d, want 1", got)
	}
}

// TestSignedRedeliveredCommitDeliversOnce: the same commit replayed many
// times delivers exactly once — replays are shed by the delivered and
// in-flight guards before any signature work is spawned.
func TestSignedRedeliveredCommitDeliversOnce(t *testing.T) {
	h := newHarness(t, protoSigned, 4)

	commit := signCommitFor(t, h, 3, 1, []byte("once"))
	for i := 0; i < 5; i++ {
		if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, commit); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.waitDeliveries(1, 5*time.Second); got != 1 {
		t.Fatalf("deliveries = %d, want 1", got)
	}
	time.Sleep(200 * time.Millisecond)
	if got := h.waitDeliveries(2, 100*time.Millisecond); got != 1 {
		t.Fatalf("replayed commit re-delivered: %d deliveries", got)
	}
}

// TestSignedAckVerificationOffDispatch: an end-to-end broadcast through
// a dedicated pool (so completions demonstrably run there) delivers at
// every replica — the plumbing test for Config.Verifier.
func TestSignedExplicitVerifier(t *testing.T) {
	ver := verifier.New(2)
	defer ver.Close()
	h := newHarness(t, protoSigned, 4, func(c *Config) { c.Verifier = ver })
	if _, err := h.bcs[0].Broadcast([]byte("pooled")); err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
		t.Fatalf("deliveries = %d, want 4", got)
	}
	// All four replicas share ver here, and every signer primes the memo
	// with its own signature (PrimeReplica), so a lookup may never miss:
	// consultation shows as lookups, hit or miss.
	hits, misses := ver.MemoStats()
	if hits+misses == 0 {
		t.Fatal("explicit verifier was never consulted")
	}
	// The origin verified each ack individually, so re-verifying its own
	// aggregated certificate when its COMMIT loops back must hit the memo.
	if hits == 0 {
		t.Fatal("origin's own commit certificate produced no memo hits")
	}
}
