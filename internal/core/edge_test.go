package core

// Client-edge hardening tests: every Byzantine-client frame class is
// rejected with its counter incremented, the rejection cost stays bounded
// (seq window, hold-queue cap), and — the wedge regression — a hostile
// client hammering preScreenSubmit with conflicting resubmissions,
// replays, and forged credit-channel frames cannot stall an honest client
// sharing the same representative. Run under -race by `make race`.

import (
	"sync/atomic"
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// rawClientMux returns a bare mux on a client node — the transport
// position a Byzantine client attacks from.
func (c *cluster) rawClientMux(id types.ClientID) *transport.Mux {
	return transport.NewMux(c.net.Node(transport.ClientNode(id)))
}

func genesis1000(types.ClientID) types.Amount { return 1000 }

// TestByzantineClientCannotWedgeBroadcastQueue: while a hostile client
// floods its representative with conflicting resubmissions (double-spends
// of its own settled history), byte-identical replays, far-future and
// zero sequence numbers, and forged CREDITTABs and CREDITs,
// an honest client of the same representative must keep settling
// payments. The explicit -race coverage for preScreenSubmit under
// adversarial concurrency.
func TestByzantineClientCannotWedgeBroadcastQueue(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis1000)
		rep := c.repOf(1) // clients 1 (hostile) and 5 (honest) share rep 1%4
		honestID := types.ClientID(1 + 4)
		if c.repOf(honestID) != rep {
			t.Fatalf("test topology broken: clients must share a representative")
		}

		// Hostile client 1: settle one real payment first so there is
		// history to replay and equivocate against.
		mallory := c.client(1)
		settled := types.Payment{Spender: 1, Seq: 1, Beneficiary: 2, Amount: 5}
		if _, err := mallory.Pay(2, 5); err != nil {
			t.Fatal(err)
		}
		if err := mallory.WaitConfirm(settled.ID(), 10*time.Second); err != nil {
			t.Fatal(err)
		}

		attack := c.rawClientMux(1)
		stop := make(chan struct{})
		var volleys atomic.Uint64
		go func() {
			repNode := transport.ReplicaNode(rep)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Conflicting resubmission of the settled identifier.
				_ = attack.Send(repNode, transport.ChanPayment,
					EncodeSubmit(types.Payment{Spender: 1, Seq: 1, Beneficiary: 3, Amount: 1}, nil))
				// Byte-identical replay of the settled payment.
				_ = attack.Send(repNode, transport.ChanPayment, EncodeSubmit(settled, nil))
				// Sequence races: zero and far beyond the window.
				_ = attack.Send(repNode, transport.ChanPayment,
					EncodeSubmit(types.Payment{Spender: 1, Seq: 0, Beneficiary: 2, Amount: 1}, nil))
				_ = attack.Send(repNode, transport.ChanPayment,
					EncodeSubmit(types.Payment{Spender: 1, Seq: 1 << 40, Beneficiary: 2, Amount: 1}, nil))
				// Hostile CREDITTAB/CREDIT storm from a client node.
				_ = attack.Send(repNode, transport.ChanCredit,
					EncodeCreditTab(rep, []byte("forged"), []types.Payment{settled}))
				_ = attack.Send(repNode, transport.ChanCredit,
					EncodeCreditForged(rep, []types.Payment{settled}, []byte("forged")))
				// Malformed junk.
				_ = attack.Send(repNode, transport.ChanPayment, []byte{0xee, 0x01})
				volleys.Add(1)
			}
		}()

		// The storm must be underway before the honest client starts:
		// wait until the representative has counted every attack class
		// (on two cores the honest payments can otherwise all settle
		// before the attack goroutine is first scheduled).
		stormed := func(es EdgeStats) bool {
			return es.Conflicting > 0 && es.SettledReplay > 0 && es.SeqZero > 0 &&
				es.FutureSeq > 0 && es.Malformed > 0 && (v != AstroII || es.CreditOutsider > 0)
		}
		for deadline := time.Now().Add(10 * time.Second); !stormed(c.replicas[int(rep)].EdgeStats()); {
			if time.Now().After(deadline) {
				close(stop)
				t.Fatalf("attack not counted within 10s: %+v", c.replicas[int(rep)].EdgeStats())
			}
			time.Sleep(time.Millisecond)
		}

		// Honest client on the same representative: must make progress
		// through the storm.
		honest := c.client(honestID)
		for i := 0; i < 10; i++ {
			if _, err := honest.PayReliable(2, 1, RetryPolicy{Timeout: 5 * time.Second}); err != nil {
				close(stop)
				t.Fatalf("honest payment %d starved by hostile client: %v", i, err)
			}
		}
		close(stop)

		if volleys.Load() == 0 {
			t.Fatal("attack goroutine never ran")
		}
		es := c.replicas[int(rep)].EdgeStats()
		if es.Conflicting == 0 || es.SettledReplay == 0 || es.SeqZero == 0 ||
			es.FutureSeq == 0 || es.Malformed == 0 {
			t.Fatalf("attack classes not all counted: %+v", es)
		}
		// ChanCredit only exists on Astro II (Astro I has no dependency
		// certificates); an unregistered channel dies at the mux instead.
		if v == AstroII && es.CreditOutsider == 0 {
			t.Fatalf("hostile credit traffic not counted: %+v", es)
		}
		// The hostile traffic must not have occupied broadcast slots: the
		// representative settled exactly mallory's one payment plus the
		// honest client's ten.
		if got := c.replicas[int(rep)].SettledCount(); got != 11 {
			t.Fatalf("settled %d payments, want 11 (hostile frames took slots)", got)
		}
	})
}

// TestEdgeStatsWireQuery: the counters are queryable over the payment
// channel by a plain client.
func TestEdgeStatsWireQuery(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis100)
	alice := c.client(1)
	rep := c.repOf(1)

	// Provoke one counted rejection: client node 3 submits a payment
	// claiming to be spender 1. (A distinct node: a second mux on alice's
	// node would steal her endpoint handler.)
	_ = c.rawClientMux(3).Send(transport.ReplicaNode(rep), transport.ChanPayment,
		EncodeSubmit(types.Payment{Spender: 1, Seq: 1, Beneficiary: 2, Amount: 1}, nil))

	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := alice.QueryStats(2 * time.Second)
		if err == nil && s.Spoofed > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("spoof never surfaced in wire stats (last: %+v, err=%v)", s, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSeqWindowAllowsDenseResume: the far-future guard must not reject a
// correct client's SyncSeq-resumed traffic — sequence numbers within the
// window settle normally.
func TestSeqWindowAllowsDenseResume(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis100)
	alice := c.client(1)
	c.payAndWait(alice, 2, 10)
	if _, err := alice.SyncSeq(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.payAndWait(alice, 2, 5)
	if es := c.replicas[int(c.repOf(1))].EdgeStats(); es.FutureSeq != 0 {
		t.Fatalf("dense traffic hit the future-seq guard: %+v", es)
	}
}

// TestHeldSubmitCapSheds: an unfunded Astro II submit flood stops growing
// the hold queue at maxHeldSubmits and is counted, instead of growing
// replica memory without bound.
func TestHeldSubmitCapSheds(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 1 })
	rep := c.repOf(1)
	mux := c.rawClientMux(1)
	repl := c.replicas[int(rep)]

	// Seq 2.. with amount > balance: every submission is held (seq 1 gap
	// keeps them unsettleable, amount keeps them unfunded) — within the
	// window, beyond the cap.
	flood := maxHeldSubmits + 64
	for i := 0; i < flood; i++ {
		p := types.Payment{Spender: 1, Seq: types.Seq(2 + i), Beneficiary: 2, Amount: 50}
		if err := mux.Send(transport.ReplicaNode(rep), transport.ChanPayment, EncodeSubmit(p, nil)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for repl.EdgeStats().HeldOverflow == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hold-queue cap never engaged: %+v", repl.EdgeStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	repl.repMu.Lock()
	held := len(repl.pendingSubmits[1])
	repl.repMu.Unlock()
	if held > maxHeldSubmits {
		t.Fatalf("hold queue grew to %d, cap is %d", held, maxHeldSubmits)
	}
}

// TestPayReliableIdempotentRetry: resending the byte-identical frame of a
// settled payment yields a fresh confirmation (the lost-confirmation
// path) and never a second settlement.
func TestPayReliableIdempotentRetry(t *testing.T) {
	c := newCluster(t, AstroII, 4, genesis100)
	alice := c.client(1)
	rep := c.repOf(1)

	id, err := alice.PayReliable(2, 10, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	c.waitSettledEverywhere(1, 5*time.Second)

	// Replay the identical frame (what a retry after a lost confirmation
	// sends): the replica must answer with a confirmation, not rebroadcast.
	p := types.Payment{Spender: 1, Seq: id.Seq, Beneficiary: 2, Amount: 10}
	if err := alice.mux.Send(transport.ReplicaNode(rep), transport.ChanPayment, EncodeSubmit(p, nil)); err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 5*time.Second); err != nil {
		t.Fatalf("replayed settled frame not re-confirmed: %v", err)
	}
	if got := c.replicas[int(rep)].SettledCount(); got != 1 {
		t.Fatalf("settled %d, want 1 (replay settled twice)", got)
	}
	if es := c.replicas[int(rep)].EdgeStats(); es.SettledReplay == 0 {
		t.Fatal("replay not counted")
	}
}
