package core

// Regression tests for the two robustness items found while verifying the
// PR 1 pipeline (ROADMAP "Robustness"): a conflicting resubmission for an
// already-settled sequence number must not wedge the representative, and
// a restarted (stateless) client must be able to resynchronize its
// sequence counter.

import (
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// TestConflictingResubmissionDoesNotWedgeRepresentative: client 1 settles
// seq 1, then resubmits a DIFFERENT payment under the same identifier.
// Peers would refuse to endorse any batch containing it (double-spend
// protection), so before the pre-screen the refused batch occupied a BRB
// slot that never delivered and per-origin FIFO blocked every later batch
// from this representative — including other clients' payments. With the
// pre-screen the doomed payment is rejected locally and client 5 (same
// representative) keeps settling.
func TestConflictingResubmissionDoesNotWedgeRepresentative(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		mux := transport.NewMux(c.net.Node(transport.ClientNode(1)))
		cl1 := NewClient(1, c.repOf, mux) // clients 1 and 5 share replica 1
		c.payAndWait(cl1, 2, 10)          // seq 1 settles

		// Conflicting resubmission for the settled seq 1.
		conflict := types.Payment{Spender: 1, Seq: 1, Beneficiary: 3, Amount: 99}
		rep := transport.ReplicaNode(c.repOf(1))
		if err := mux.Send(rep, transport.ChanPayment, encodeSubmit(conflict, nil)); err != nil {
			t.Fatal(err)
		}

		// A different client of the same representative must still settle.
		c.payAndWait(c.client(5), 2, 5)

		// And the conflicting payment must not have rewritten history
		// (payAndWait returns on the representative's confirmation; the
		// other replicas may still be settling).
		c.waitSettledEverywhere(2, 10*time.Second)
		for i, r := range c.replicas {
			log := r.XLogSnapshot(1)
			if len(log) != 1 || log[0].Beneficiary != 2 || log[0].Amount != 10 {
				t.Fatalf("replica %d xlog for client 1 = %v", i, log)
			}
		}
	})
}

// TestIdenticalResubmissionResendsConfirmation: a client retrying a
// payment whose confirmation was lost gets a fresh confirmation straight
// from the representative's xlog — no broadcast slot is spent on it.
func TestIdenticalResubmissionResendsConfirmation(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		mux := transport.NewMux(c.net.Node(transport.ClientNode(1)))
		cl := NewClient(1, c.repOf, mux)

		p := types.Payment{Spender: 1, Seq: 1, Beneficiary: 2, Amount: 10}
		rep := transport.ReplicaNode(c.repOf(1))
		if err := mux.Send(rep, transport.ChanPayment, encodeSubmit(p, nil)); err != nil {
			t.Fatal(err)
		}
		if err := cl.WaitConfirm(p.ID(), 10*time.Second); err != nil {
			t.Fatalf("first submission: %v", err)
		}
		before := c.replicas[int(c.repOf(1))].SettledCount()

		// Identical retry: confirmed again, without new settlement work.
		if err := mux.Send(rep, transport.ChanPayment, encodeSubmit(p, nil)); err != nil {
			t.Fatal(err)
		}
		if err := cl.WaitConfirm(p.ID(), 10*time.Second); err != nil {
			t.Fatalf("retried submission not re-confirmed: %v", err)
		}
		if after := c.replicas[int(c.repOf(1))].SettledCount(); after != before {
			t.Fatalf("retry caused %d new settles", after-before)
		}
	})
}

// TestSeqZeroSubmissionIgnored: a malformed (or malicious) submission
// with sequence number 0 must be dropped, not crash the replica — Seq 0
// used to drive an At(-1) xlog lookup in the pre-screen.
func TestSeqZeroSubmissionIgnored(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		mux := transport.NewMux(c.net.Node(transport.ClientNode(1)))
		cl := NewClient(1, c.repOf, mux)

		bad := types.Payment{Spender: 1, Seq: 0, Beneficiary: 2, Amount: 10}
		rep := transport.ReplicaNode(c.repOf(1))
		if err := mux.Send(rep, transport.ChanPayment, encodeSubmit(bad, nil)); err != nil {
			t.Fatal(err)
		}
		// The replica must survive and keep serving this client.
		c.payAndWait(cl, 2, 5)
		if got := c.replicas[int(c.repOf(1))].SettledCount(); got != 1 {
			t.Fatalf("settled = %d, want 1 (Seq 0 must not settle)", got)
		}
	})
}

// TestHugeSeqSubmissionIgnored: a submission whose sequence number
// exceeds int range must be dropped, not crash the replica — a huge Seq
// converted to int before the bounds check would wrap negative and index
// below the xlog in the pre-screen's SettledAt lookup.
func TestHugeSeqSubmissionIgnored(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		mux := transport.NewMux(c.net.Node(transport.ClientNode(1)))
		cl := NewClient(1, c.repOf, mux)

		bad := types.Payment{Spender: 1, Seq: 1 << 63, Beneficiary: 2, Amount: 10}
		rep := transport.ReplicaNode(c.repOf(1))
		if err := mux.Send(rep, transport.ChanPayment, encodeSubmit(bad, nil)); err != nil {
			t.Fatal(err)
		}
		// The replica must survive and keep serving this client.
		c.payAndWait(cl, 2, 5)
	})
}

// TestSyncSeqCoversHeldSubmissions: a sequence number still in a
// pre-settlement stage (here: held at the representative awaiting funds)
// must not be handed out again by a resync — the restarted client would
// otherwise submit a conflicting payment for it and recreate the wedge.
func TestSyncSeqCoversHeldSubmissions(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 20 })
	cl := c.client(1)
	// Underfunded: held in pendingSubmits indefinitely, never endorsed.
	if _, err := cl.Pay(2, 500); err != nil {
		t.Fatal(err)
	}
	rep := c.replicas[int(c.repOf(1))]
	deadline := time.Now().Add(5 * time.Second)
	for rep.PendingSubmits(1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("submission never reached the held queue")
		}
		time.Sleep(time.Millisecond)
	}

	restarted := NewClient(1, c.repOf, transport.NewMux(c.net.Node(transport.ClientNode(1))))
	next, err := restarted.SyncSeq(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if next != 2 {
		t.Fatalf("SyncSeq = %d, want 2 (seq 1 is held in flight)", next)
	}
}

// TestClientSyncSeqAfterRestart: a fresh client process (sequence counter
// back at 1) adopts the replica's next usable sequence number and can
// settle payments again, instead of silently reusing settled identifiers.
func TestClientSyncSeqAfterRestart(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		cl := c.client(1)
		c.payAndWait(cl, 2, 5)
		c.payAndWait(cl, 3, 5)

		// "Restart": a brand-new client on the same endpoint, nextSeq = 1.
		restarted := NewClient(1, c.repOf, transport.NewMux(c.net.Node(transport.ClientNode(1))))
		next, err := restarted.SyncSeq(5 * time.Second)
		if err != nil {
			t.Fatalf("SyncSeq: %v", err)
		}
		if next != 3 {
			t.Fatalf("SyncSeq = %d, want 3 (two payments settled)", next)
		}
		c.payAndWait(restarted, 2, 7)
		c.waitSettledEverywhere(3, 5*time.Second) // confirm precedes remote settles
		for i, r := range c.replicas {
			if got := r.NextSeq(1); got != 4 {
				t.Fatalf("replica %d NextSeq = %d, want 4", i, got)
			}
		}
	})
}
