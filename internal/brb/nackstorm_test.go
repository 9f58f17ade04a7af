package brb

// NACK-path hardening: a CHAINNACK storm must cost the origin bounded
// work — at most one COMMITTAB resend per NACK, nothing superlinear — and
// NACKs from outside the group must be ignored entirely (no resend, no
// sent-set churn, no counter movement). Run under -race: the storm
// hammers the dispatch goroutine while the origin's own protocol runs.

import (
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/types"
)

// waitStat polls read until it returns want or the deadline passes.
func waitStat(t *testing.T, what string, want uint64, read func() uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if read() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s = %d, want >= %d", what, read(), want)
}

func TestChainNackStormBoundedWork(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	slot, err := h.bcs[0].Broadcast([]byte("stormed-payload"))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
		t.Fatalf("deliveries = %d, want 4", got)
	}
	origin := h.bcs[0].(*Signed)
	base := origin.ChainRefStats()

	const storm = 50
	missing := []types.Digest{types.HashBytes([]byte("claimed-missing"))}
	nack := EncodeChainNack(0, slot, missing)
	for i := 0; i < storm; i++ {
		if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, nack); err != nil {
			t.Fatal(err)
		}
	}
	waitStat(t, "NacksReceived", base.NacksReceived+storm, func() uint64 {
		return origin.ChainRefStats().NacksReceived
	})
	st := origin.ChainRefStats()
	if resends := st.FullSends - base.FullSends; resends > storm {
		t.Errorf("amplification: %d full resends for %d NACKs", resends, storm)
	}

	// NACKs for a slot the origin never committed cost nothing beyond the
	// counter — no resend at all.
	preFull := origin.ChainRefStats().FullSends
	ghost := EncodeChainNack(0, slot+1000, missing)
	for i := 0; i < storm; i++ {
		if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, ghost); err != nil {
			t.Fatal(err)
		}
	}
	waitStat(t, "NacksReceived", st.NacksReceived+storm, func() uint64 {
		return origin.ChainRefStats().NacksReceived
	})
	if got := origin.ChainRefStats().FullSends; got != preFull {
		t.Errorf("uncommitted-slot NACKs triggered %d resends", got-preFull)
	}
}

func TestChainNackNonMemberIgnored(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	slot, err := h.bcs[0].Broadcast([]byte("gated-payload"))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitDeliveries(4, 5*time.Second); got != 4 {
		t.Fatalf("deliveries = %d, want 4", got)
	}
	origin := h.bcs[0].(*Signed)
	base := origin.ChainRefStats()

	// A replica-space node outside the group's peer list.
	outsider := transport.NewMux(h.net.Node(transport.ReplicaNode(50)))
	t.Cleanup(outsider.Close)
	nack := EncodeChainNack(0, slot, []types.Digest{types.HashBytes([]byte("x"))})
	const storm = 50
	for i := 0; i < storm; i++ {
		if err := outsider.Send(transport.ReplicaNode(0), transport.ChanBRB, nack); err != nil {
			t.Fatal(err)
		}
	}
	// The membership gate runs before any counter or resend; give the
	// frames time to drain through dispatch, then check nothing moved.
	time.Sleep(200 * time.Millisecond)
	st := origin.ChainRefStats()
	if st.NacksReceived != base.NacksReceived || st.FullSends != base.FullSends {
		t.Errorf("non-member NACKs processed: nacks %d->%d, fullsends %d->%d",
			base.NacksReceived, st.NacksReceived, base.FullSends, st.FullSends)
	}
}

// TestSignedMineBounded: the origin's table of its own broadcasts holds
// the slots in flight plus the most recent committed ones up to the
// retention budget — it must not grow with the number of slots ever
// broadcast. A CHAINNACK about a slot still held is answered with the
// self-contained resend; one about a retired slot costs nothing. The
// bursts of 256 are the case a count of slots gets wrong: all 256 commit
// before the NACKs for the first of them arrive.
func TestSignedMineBounded(t *testing.T) {
	h := newHarness(t, protoSigned, 4)
	origin := h.bcs[0].(*Signed)
	const (
		slots  = 10_000
		burst  = 256 // broadcasts in flight at once
		retain = 512 // committed slots the budget below holds
	)
	payload := make([]byte, 64)
	origin.retainBytes = retain * len(payload)
	var last uint64
	for i := 0; i < slots; i++ {
		slot, err := origin.Broadcast(payload)
		if err != nil {
			t.Fatal(err)
		}
		last = slot
		if (i+1)%burst != 0 && i+1 != slots {
			continue
		}
		if got := h.waitDeliveries(4*(i+1), 30*time.Second); got < 4*(i+1) {
			t.Fatalf("deliveries = %d, want %d", got, 4*(i+1))
		}
		origin.mu.Lock()
		n := len(origin.mine)
		origin.mu.Unlock()
		if n > retain {
			t.Fatalf("after %d slots, all committed: len(mine) = %d, want <= %d", i+1, n, retain)
		}
	}

	missing := []types.Digest{types.HashBytes([]byte("claimed-missing"))}
	base := origin.ChainRefStats()
	// Slots commit in roughly slot order (out of order only within a
	// burst), so probe well inside and well outside the held range.
	late := EncodeChainNack(0, last-retain/2, missing)
	if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, late); err != nil {
		t.Fatal(err)
	}
	waitStat(t, "FullSends", base.FullSends+1, func() uint64 { return origin.ChainRefStats().FullSends })

	gone := EncodeChainNack(0, last-2*retain, missing)
	if err := h.muxes[3].Send(transport.ReplicaNode(0), transport.ChanBRB, gone); err != nil {
		t.Fatal(err)
	}
	waitStat(t, "NacksReceived", base.NacksReceived+2, func() uint64 { return origin.ChainRefStats().NacksReceived })
	if got := origin.ChainRefStats().FullSends; got != base.FullSends+1 {
		t.Errorf("NACK for a retired slot triggered %d resends", got-base.FullSends-1)
	}
}
