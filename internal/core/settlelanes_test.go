package core

// Ordering-invariant tests for the lane-scheduled settlement fan-out
// (run under -race by the Makefile's race target): with stripes pinned to
// sched flows and work-stealing enabled, per-spender FIFO and
// conservation of money must hold, and the fan-out must produce exactly
// the state that applying the entries one by one does.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

func settleGenesis(types.ClientID) types.Amount { return 1 << 30 }

// newSettleReplica builds a lone Astro I replica for driving
// settleEntries directly (no broadcast traffic involved).
func newSettleReplica(t testing.TB) *Replica {
	t.Helper()
	net := memnet.New()
	t.Cleanup(net.Close)
	ids := []types.ReplicaID{0, 1, 2, 3}
	mux := transport.NewMux(net.Node(transport.ReplicaNode(0)))
	t.Cleanup(mux.Close)
	r, err := NewReplica(Config{
		Version:  AstroI,
		Self:     0,
		Replicas: ids,
		F:        1,
		Mux:      mux,
		Genesis:  settleGenesis,
		Auth:     crypto.NewLinkAuthenticator(0, []byte("settle-test")),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestSettleLanesMatchesSpawnBaseline feeds identical multi-stripe
// batches through the pinned-lane fan-out and through the reference —
// serial State.ApplyEntry in entry order on a fresh State — and asserts
// identical results: same settled list (order included — CREDIT group
// derivation depends on it), same balances, same counters.
func TestSettleLanesMatchesSpawnBaseline(t *testing.T) {
	lanes := newSettleReplica(t)
	serial := NewState(AstroI, settleGenesis, nil)

	const nClients = 40
	const batches = 20
	for b := 0; b < batches; b++ {
		var entries []BatchEntry
		for c := 1; c <= nClients; c++ {
			p := types.Payment{
				Spender:     types.ClientID(c),
				Seq:         types.Seq(b + 1),
				Beneficiary: types.ClientID(c%nClients + 1),
				Amount:      types.Amount(b + c),
			}
			entries = append(entries, BatchEntry{Payment: p})
		}
		a := lanes.settleEntries(entries)
		var bb []types.Payment
		for _, e := range entries {
			bb = append(bb, serial.ApplyEntry(e)...)
		}
		if len(a) != len(bb) {
			t.Fatalf("batch %d: lanes settled %d, serial settled %d", b, len(a), len(bb))
		}
		for i := range a {
			if a[i] != bb[i] {
				t.Fatalf("batch %d: settled[%d] diverges: lanes %+v serial %+v", b, i, a[i], bb[i])
			}
		}
	}
	for c := 1; c <= nClients; c++ {
		id := types.ClientID(c)
		if la, se := lanes.Balance(id), serial.Balance(id); la != se {
			t.Fatalf("client %d: lanes balance %d, serial balance %d", c, la, se)
		}
	}
	cl, cs := lanes.Counters(), serial.Counters()
	if cl != cs {
		t.Fatalf("counters diverge: lanes %+v serial %+v", cl, cs)
	}
	if cl.Settled != nClients*batches {
		t.Fatalf("settled = %d, want %d", cl.Settled, nClients*batches)
	}
}

// TestSettleLanesPerSpenderFIFOUnderStealing runs several concurrent
// "origins", each delivering its own disjoint spenders' batches in
// sequence (the BRB per-origin serialization), against one lanes-mode
// replica. Stripe tasks from different origins contend for the same
// flows and get stolen between lanes; per-spender FIFO (xlog seq order),
// conservation of money, and zero drops must survive.
func TestSettleLanesPerSpenderFIFOUnderStealing(t *testing.T) {
	r := newSettleReplica(t)

	const (
		origins    = 6
		perOrigin  = 8  // spenders per origin
		batchCount = 30 // sequential batches per origin
	)
	spender := func(o, i int) types.ClientID {
		return types.ClientID(o*perOrigin + i + 1)
	}
	// Materialize every account so the expected total is fixed before
	// transfers start crossing stripes.
	total := types.Amount(0)
	for o := 0; o < origins; o++ {
		for i := 0; i < perOrigin; i++ {
			total += r.state.Balance(spender(o, i))
		}
	}

	var wg sync.WaitGroup
	for o := 0; o < origins; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			for b := 1; b <= batchCount; b++ {
				var entries []BatchEntry
				for i := 0; i < perOrigin; i++ {
					sp := spender(o, i)
					// Beneficiaries stay inside this origin's client set so
					// the conserved total is checkable per test run.
					ben := spender(o, (i+b)%perOrigin)
					if ben == sp {
						ben = spender(o, (i+b+1)%perOrigin)
					}
					entries = append(entries, BatchEntry{Payment: types.Payment{
						Spender: sp, Seq: types.Seq(b), Beneficiary: ben, Amount: 1,
					}})
				}
				settled := r.settleEntries(entries)
				if len(settled) != perOrigin {
					panic(fmt.Sprintf("origin %d batch %d: settled %d of %d", o, b, len(settled), perOrigin))
				}
			}
		}(o)
	}
	wg.Wait()

	for o := 0; o < origins; o++ {
		for i := 0; i < perOrigin; i++ {
			sp := spender(o, i)
			xlog := r.XLogSnapshot(sp)
			if len(xlog) != batchCount {
				t.Fatalf("spender %d: xlog holds %d payments, want %d", sp, len(xlog), batchCount)
			}
			for k, p := range xlog {
				if p.Seq != types.Seq(k+1) {
					t.Fatalf("spender %d: xlog position %d holds seq %d — per-spender FIFO violated", sp, k, p.Seq)
				}
			}
		}
	}
	counters := r.Counters()
	if counters.Dropped != 0 || counters.Conflicts != 0 {
		t.Fatalf("dropped/conflicts = %d/%d, want 0/0", counters.Dropped, counters.Conflicts)
	}
	got := types.Amount(0)
	for o := 0; o < origins; o++ {
		for i := 0; i < perOrigin; i++ {
			got += r.state.Balance(spender(o, i))
		}
	}
	if got != total {
		t.Fatalf("conservation violated: total %d, want %d", got, total)
	}
}

// TestSettleLanesSurviveConcurrentCreditResends runs live
// settlement traffic — clients paying through the full broadcast +
// settle + credit pipeline on the lane runtime — while a NACK storm
// forces replica 0 to answer with lazy CREDITCHAINDEF + CREDITREF
// resends the whole time. The resend path shares chainMu and the credit
// channel with the pipeline under test; per-spender FIFO, conservation,
// and full settlement must survive the interleaving. Run under -race.
func TestSettleLanesSurviveConcurrentCreditResends(t *testing.T) {
	const seed = 1 << 20
	c := newCluster(t, AstroII, 4, func(types.ClientID) types.Amount { return seed })
	tap, msgs := c.creditTap(t, 9)

	// A retained wave addressed to the tap: the storm's NACKs name it,
	// so every one provokes a real def+ref answer from replica 0.
	group := []types.Payment{pay(100, 1, 101, 7)}
	chain := []types.Digest{CreditGroupDigest(group)}
	cd := CreditChainDigest(chain)
	sig, err := c.keys[0].Sign(cd)
	if err != nil {
		t.Fatal(err)
	}
	c.replicas[0].retainCreditWave(cd, retainedWave{chain: chain, sig: sig, jobs: []creditJob{{rep: 9, group: group}}})

	stop := make(chan struct{})
	var storm sync.WaitGroup
	storm.Add(2)
	go func() { // drain the tap so its endpoint never backpressures
		defer storm.Done()
		for {
			select {
			case <-stop:
				return
			case <-msgs:
			}
		}
	}()
	go func() {
		defer storm.Done()
		nack := encodeCreditNack(cd)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = tap.Send(transport.ReplicaNode(0), transport.ChanCredit, nack)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const (
		nClients  = 4
		perClient = 25
	)
	cls := make([]*Client, nClients)
	for i := range cls {
		cls[i] = c.client(types.ClientID(i + 1))
	}
	errc := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		go func(i int) {
			cl := cls[i]
			ben := types.ClientID((i+1)%nClients + 1) // stays inside the client set
			for k := 0; k < perClient; k++ {
				id, err := cl.Pay(ben, 1)
				if err != nil {
					errc <- fmt.Errorf("client %d pay %d: %w", i+1, k, err)
					return
				}
				if err := cl.WaitConfirm(id, 10*time.Second); err != nil {
					errc <- fmt.Errorf("client %d confirm %d: %w", i+1, k, err)
					return
				}
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < nClients; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	storm.Wait()
	c.waitSettledEverywhere(nClients*perClient, 15*time.Second)

	for ri, r := range c.replicas {
		for i := 0; i < nClients; i++ {
			cid := types.ClientID(i + 1)
			xlog := r.XLogSnapshot(cid)
			if len(xlog) != perClient {
				t.Fatalf("replica %d: client %d xlog holds %d payments, want %d", ri, cid, len(xlog), perClient)
			}
			for k, p := range xlog {
				if p.Seq != types.Seq(k+1) {
					t.Fatalf("replica %d: client %d xlog position %d holds seq %d — FIFO violated", ri, cid, k, p.Seq)
				}
			}
		}
	}
	// Conservation in Astro II: a settled payment debits the spender, and
	// the beneficiary's share becomes an attachable dependency at its own
	// replica (balance moves only when that dependency rides a later
	// payment — state.go's "no direct beneficiary credit"). Certificates
	// complete asynchronously, so poll each client's balance plus
	// unattached dependency value at its owning replica.
	ownedTotal := func() types.Amount {
		total := types.Amount(0)
		for i := 0; i < nClients; i++ {
			cid := types.ClientID(i + 1)
			r := c.replicas[c.repOf(cid)]
			total += r.state.Balance(cid)
			r.repMu.Lock()
			for _, dep := range r.repDeps[cid] {
				total += dep.Value(cid)
			}
			r.repMu.Unlock()
		}
		return total
	}
	deadline := time.Now().Add(10 * time.Second)
	for ownedTotal() != types.Amount(nClients)*seed {
		if time.Now().After(deadline) {
			t.Fatalf("conservation violated: owned-balance total %d, want %d", ownedTotal(), types.Amount(nClients)*seed)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
