package core

// Credit-channel NACK hardening: a CREDITNACK storm against a retained
// wave costs at most one CREDITCHAINDEF plus one CREDITREF per NACK, NACKs
// naming unknown digests cost nothing beyond the counter, and senders
// outside the key registry never reach the handler at all. Run under
// -race: the storm hammers the dispatch path of a live replica.

import (
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

func waitNacks(t *testing.T, r *Replica, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.CreditRefStats().NacksReceived >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("NacksReceived = %d, want >= %d", r.CreditRefStats().NacksReceived, want)
}

func TestCreditNackStormBoundedWork(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 0 })
	tap, msgs := c.creditTap(t, 9)

	group := []types.Payment{pay(1, 1, 2, 40)}
	chain := []types.Digest{CreditGroupDigest(group)}
	cd := CreditChainDigest(chain)
	sig, err := c.keys[0].Sign(cd)
	if err != nil {
		t.Fatal(err)
	}
	c.replicas[0].retainCreditWave(cd, retainedWave{chain: chain, sig: sig, jobs: []creditJob{{rep: 9, group: group}}})

	base := c.replicas[0].CreditRefStats()
	const storm = 50
	nack := encodeCreditNack(cd)
	for i := 0; i < storm; i++ {
		if err := tap.Send(transport.ReplicaNode(0), transport.ChanCredit, nack); err != nil {
			t.Fatal(err)
		}
	}
	waitNacks(t, c.replicas[0], base.NacksReceived+storm)
	// Every answer the storm provoked is the bounded pair: the demanded
	// definition and the reference again.
	var defs, refs uint64
	for done := false; !done; {
		select {
		case m := <-msgs:
			switch m[0] {
			case msgCreditChainDef:
				defs++
			case msgCreditRef:
				refs++
			default:
				t.Fatalf("unexpected reply kind %d", m[0])
			}
		case <-time.After(200 * time.Millisecond):
			done = true
		}
	}
	if defs > storm || refs > storm {
		t.Errorf("amplification: %d definitions and %d references for %d NACKs", defs, refs, storm)
	}
	st := c.replicas[0].CreditRefStats()
	if d, r := st.DefsDemanded-base.DefsDemanded, st.RefsSent-base.RefsSent; defs != d || refs != r {
		t.Errorf("observed %d definitions and %d references, counters say %d and %d", defs, refs, d, r)
	}

	// Unknown digests: counter moves, no answer.
	pre := c.replicas[0].CreditRefStats()
	ghost := encodeCreditNack(types.HashBytes([]byte("never-retained")))
	for i := 0; i < storm; i++ {
		if err := tap.Send(transport.ReplicaNode(0), transport.ChanCredit, ghost); err != nil {
			t.Fatal(err)
		}
	}
	waitNacks(t, c.replicas[0], pre.NacksReceived+storm)
	if got := c.replicas[0].CreditRefStats(); got.DefsDemanded != pre.DefsDemanded || got.RefsSent != pre.RefsSent {
		t.Errorf("unknown-digest NACKs triggered %d definitions and %d references",
			got.DefsDemanded-pre.DefsDemanded, got.RefsSent-pre.RefsSent)
	}
	select {
	case m := <-msgs:
		t.Fatalf("unexpected reply to unknown-digest NACK: kind %d", m[0])
	case <-time.After(100 * time.Millisecond):
	}
}

func TestCreditNackUnregisteredSenderIgnored(t *testing.T) {
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return 0 })

	group := []types.Payment{pay(1, 1, 2, 40)}
	chain := []types.Digest{CreditGroupDigest(group)}
	cd := CreditChainDigest(chain)
	sig, err := c.keys[0].Sign(cd)
	if err != nil {
		t.Fatal(err)
	}
	c.replicas[0].retainCreditWave(cd, retainedWave{chain: chain, sig: sig, jobs: []creditJob{{rep: 17, group: group}}})

	// Replica-space node 17 holds a retained job but is NOT in the key
	// registry: its NACKs must be dropped at the channel gate.
	mux := transport.NewMux(c.net.Node(transport.ReplicaNode(17)))
	t.Cleanup(mux.Close)
	base := c.replicas[0].CreditRefStats()
	nack := encodeCreditNack(cd)
	for i := 0; i < 50; i++ {
		if err := mux.Send(transport.ReplicaNode(0), transport.ChanCredit, nack); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	st := c.replicas[0].CreditRefStats()
	if st.NacksReceived != base.NacksReceived || st.RefsSent != base.RefsSent {
		t.Errorf("unregistered sender's NACKs processed: nacks %d->%d, refs sent %d->%d",
			base.NacksReceived, st.NacksReceived, base.RefsSent, st.RefsSent)
	}
}
