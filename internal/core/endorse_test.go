package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"astro/internal/transport"
	"astro/internal/types"
)

// TestEndorseWindowMatchesMap drives the sequence-indexed window and a
// plain map through the same seeded bind / release / prune / nextFree
// operations — in order, out of order, duplicated — and requires the same
// answer from both every time.
func TestEndorseWindowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	w := make(endorseWindow)
	ref := make(map[types.PaymentID]types.Payment)
	next := map[types.ClientID]types.Seq{}
	for i := 0; i < 50_000; i++ {
		c := types.ClientID(1 + rng.IntN(3))
		switch k := rng.IntN(10); {
		case k < 5: // the common case: the spender's next sequence number
			next[c]++
			p := pay(c, next[c], 9, types.Amount(rng.IntN(3)))
			want, had := ref[p.ID()]
			if !had {
				ref[p.ID()], want = p, p
			}
			if got, inserted := w.bind(p); got != want || inserted == had {
				t.Fatalf("bind %v = %v, %v; want %v, %v", p, got, inserted, want, !had)
			}
		case k < 7: // anywhere: a gap, a duplicate, a twin
			p := pay(c, types.Seq(1+rng.IntN(int(next[c])+8)), 9, types.Amount(rng.IntN(3)))
			want, had := ref[p.ID()]
			if !had {
				ref[p.ID()], want = p, p
			}
			if got, inserted := w.bind(p); got != want || inserted == had {
				t.Fatalf("bind %v = %v, %v; want %v, %v", p, got, inserted, want, !had)
			}
		case k < 8:
			p := pay(c, types.Seq(1+rng.IntN(int(next[c])+8)), 9, types.Amount(rng.IntN(3)))
			if ref[p.ID()] == p {
				delete(ref, p.ID())
			}
			w.release(p)
		case k < 9:
			upTo := types.Seq(rng.IntN(int(next[c]) + 2))
			for id := range ref {
				if id.Spender == c && id.Seq <= upTo {
					delete(ref, id)
				}
			}
			w.prune(c, upTo)
		default:
			from := types.Seq(1 + rng.IntN(int(next[c])+2))
			want := from
			for {
				if _, ok := ref[types.PaymentID{Spender: c, Seq: want}]; !ok {
					break
				}
				want++
			}
			if got := w.nextFree(c, from); got != want {
				t.Fatalf("nextFree(%d, %d) = %d, want %d", c, from, got, want)
			}
		}
		n := 0
		for c, ps := range w {
			if len(ps) == 0 {
				t.Fatalf("spender %d holds an empty entry", c)
			}
			if !slices.IsSortedFunc(ps, func(a, b types.Payment) int { return int(a.Seq) - int(b.Seq) }) {
				t.Fatalf("spender %d out of order: %v", c, ps)
			}
			n += len(ps)
		}
		if n != len(ref) {
			t.Fatalf("window holds %d bindings, map %d", n, len(ref))
		}
	}
}

// ringDriver settles payments at one replica of a silenced cluster by
// calling the BRB hooks directly: four spenders, each paying the next in
// batches, each batch carrying the dependency certificate for the batch
// its spender was last paid with — so every settled payment is also
// credited exactly once, and the xlogs, the used-dependency sets and the
// endorsement memory all see the traffic of a long-running deployment.
type ringDriver struct {
	t    *testing.T
	c    *cluster
	r    *Replica
	seq  map[types.ClientID]types.Seq
	owed map[types.ClientID][]Dependency // certificates waiting for the beneficiary's next batch
	slot uint64
}

func newRingDriver(t *testing.T, c *cluster) *ringDriver {
	for i := range c.replicas {
		c.net.Crash(transport.ReplicaNode(types.ReplicaID(i)))
	}
	return &ringDriver{t: t, c: c, r: c.replicas[0], seq: map[types.ClientID]types.Seq{}, owed: map[types.ClientID][]Dependency{}}
}

// batch builds spender's next n payments to its ring successor.
func (d *ringDriver) batch(spender types.ClientID, n int) []BatchEntry {
	to := spender%4 + 1
	entries := make([]BatchEntry, n)
	group := make([]types.Payment, n)
	for i := range entries {
		d.seq[spender]++
		group[i] = pay(spender, d.seq[spender], to, 1)
		entries[i].Payment = group[i]
	}
	entries[0].Deps, d.owed[spender] = d.owed[spender], nil
	var cert DepCert
	for _, signer := range []int{1, 2} { // f+1
		sig, err := d.c.keys[signer].Sign(CreditGroupDigest(group))
		if err != nil {
			d.t.Fatal(err)
		}
		cert.Sigs = append(cert.Sigs, DepSig{Replica: types.ReplicaID(signer), Sig: sig})
	}
	d.owed[to] = append(d.owed[to], Dependency{Group: group, Cert: cert})
	return entries
}

// settle endorses and delivers total payments, round-robin over the ring.
func (d *ringDriver) settle(total, perBatch int) {
	for done := 0; done < total; {
		for spender := types.ClientID(1); spender <= 4 && done < total; spender++ {
			payload := EncodeBatch(d.batch(spender, perBatch))
			origin := d.c.repOf(spender)
			d.slot++
			if !d.r.validateBatch(origin, d.slot, payload) {
				d.t.Fatalf("batch of spender %d refused", spender)
			}
			d.r.onDeliver(origin, d.slot, payload)
			done += perBatch
		}
	}
}

// TestEndorsementMemoryDoesNotGrow is the growth guard: what a replica
// remembers per settled payment is the xlog entry and the beneficiary's
// used-dependency mark, nothing else. After 20 000 settled payments with
// nothing in flight the endorsement window is empty, the full image costs
// at most 56 bytes per payment (it was 96 with one endorsement triple per
// payment), and a paged replica's manifest is as small as it was after
// the first 2 000.
func TestEndorsementMemoryDoesNotGrow(t *testing.T) {
	c := pagedWalCluster(t, AstroII, 4, t.TempDir(), 64)
	d := newRingDriver(t, c)
	r := d.r
	t.Cleanup(r.Close) // before the data directory is removed
	// manifest builds what a compaction would write now, once the writer's
	// flow (where the scheduled compactions run) is idle.
	manifest := func() []byte {
		r.wal.Barrier()
		return r.walSnapshotBuild()
	}

	d.settle(2_000, 50)
	early := len(manifest())
	d.settle(18_000, 50)
	const settled = 20_000
	if got := r.SettledCount(); got != settled {
		t.Fatalf("settled %d payments, want %d", got, settled)
	}
	if ctr := r.Counters(); ctr.Dropped != 0 || ctr.Conflicts != 0 {
		t.Fatalf("driver traffic was not clean: %+v", ctr)
	}

	r.endorsedMu.Lock()
	inFlight := len(r.endorsed)
	r.endorsedMu.Unlock()
	if inFlight != 0 {
		t.Errorf("%d spenders still hold endorsement entries with nothing in flight", inFlight)
	}
	credited := 0
	for _, ex := range r.AuditExport() {
		credited += len(ex.UsedDeps)
	}
	if want := settled - 50; credited != want { // the last batch's certificate is still owed
		t.Errorf("%d credits materialized, want %d", credited, want)
	}
	if per := float64(len(r.FullSnapshot())) / settled; per > 56 {
		t.Errorf("full image costs %.1f B per settled payment, want <= 56", per)
	}
	if late := len(manifest()); late != early {
		t.Errorf("manifest grew from %d B after 2 000 payments to %d B after 20 000", early, late)
	}
	if err := r.WALErr(); err != nil {
		t.Fatal(err)
	}
	if err := r.PagerErr(); err != nil {
		t.Fatal(err)
	}
}

// TestEndorsementsSurviveKill: a replica killed with endorsements in
// flight — promised, not yet settled — rebuilds the window from its
// recEndorse records and still refuses the conflicting twin, before and
// after the promised payments settle.
func TestEndorsementsSurviveKill(t *testing.T) {
	dir := t.TempDir()
	c := walCluster(t, AstroII, 4, dir)
	d := newRingDriver(t, c)
	d.settle(8, 2) // some settled history below the in-flight range

	promised := []BatchEntry{{Payment: pay(2, 3, 9, 5)}, {Payment: pay(2, 4, 9, 6)}}
	twinOf := func(i int) []byte {
		p := promised[i].Payment
		p.Amount += 100
		return EncodeBatch([]BatchEntry{{Payment: p}})
	}
	if !d.r.validateBatch(2, 100, EncodeBatch(promised)) {
		t.Fatal("fresh batch refused")
	}
	d.r.wal.Barrier() // the promise reached the disk; the process dies right after
	r := c.restart(0, dir, nil)
	c.net.Crash(transport.ReplicaNode(0))
	t.Cleanup(r.Close) // before the data directory is removed

	if got := r.endorsed[2]; len(got) != 2 || got[0] != promised[0].Payment || got[1] != promised[1].Payment {
		t.Fatalf("recovered window for spender 2 = %v, want the two promised payments", got)
	}
	if len(r.endorsed) != 1 {
		t.Errorf("recovered window holds %d spenders; the settled history should have left none behind", len(r.endorsed))
	}
	for i := range promised {
		if r.validateBatch(2, 101, twinOf(i)) {
			t.Errorf("twin of promised payment %d endorsed after restart", i)
		}
	}
	if !r.validateBatch(2, 100, EncodeBatch(promised)) {
		t.Error("re-prepare of the promised batch refused after restart")
	}

	r.onDeliver(2, 100, EncodeBatch(promised))
	if len(r.endorsed) != 0 {
		t.Errorf("window not pruned after settlement: %v", r.endorsed)
	}
	for i := range promised {
		if r.validateBatch(2, 102, twinOf(i)) {
			t.Errorf("twin of settled payment %d endorsed", i)
		}
	}
	if !r.validateBatch(2, 103, EncodeBatch(promised)) {
		t.Error("byte-identical batch of settled payments refused")
	}
}

// FuzzCreditDependencies attaches dependency groups in arbitrary order —
// ascending, out of order, duplicated, overlapping — and checks the
// per-spender sequence slices against a plain set: every credit is
// materialized exactly once, and the export is the set in canonical
// order.
func FuzzCreditDependencies(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2, 1, 3, 1, 4})             // one spender, in order
	f.Add([]byte{1, 4, 1, 3, 1, 2, 1, 1})             // reversed
	f.Add([]byte{1, 2, 2, 2, 1, 2, 2, 2, 1, 1})       // duplicates across spenders
	f.Add([]byte{3, 9, 3, 1, 3, 5, 3, 5, 3, 0, 3, 9}) // gaps, repeats, seq 0
	f.Fuzz(func(t *testing.T, data []byte) {
		const me = types.ClientID(7)
		s := NewState(AstroII, func(types.ClientID) types.Amount { return 0 }, nil)
		st := s.stripeFor(me)
		st.mu.Lock()
		defer st.mu.Unlock()
		acct := st.account(me, s)
		ref := make(map[types.PaymentID]struct{})
		var want types.Amount
		for len(data) >= 2 {
			// Each pair is one credit; a group is up to three of them.
			var group []types.Payment
			for n := 1 + int(data[0])%3; n > 0 && len(data) >= 2; n-- {
				to := me
				if data[0]&0x80 != 0 {
					to = me + 1 // someone else's credit riding the same group
				}
				group = append(group, pay(types.ClientID(data[0]&7), types.Seq(data[1]), to, types.Amount(1+data[1]%5)))
				data = data[2:]
			}
			for _, p := range group {
				if _, used := ref[p.ID()]; p.Beneficiary == me && !used {
					ref[p.ID()] = struct{}{}
					want += p.Amount
				}
			}
			s.creditDependencies(me, acct, []Dependency{{Group: group}})
			if acct.balance != want {
				t.Fatalf("balance %d after group %v, want %d", acct.balance, group, want)
			}
		}
		got := acct.usedDeps.export()
		if len(got) != len(ref) {
			t.Fatalf("%d credits recorded, want %d", len(got), len(ref))
		}
		for i, id := range got {
			if _, ok := ref[id]; !ok || !acct.usedDeps.has(id) {
				t.Fatalf("export lists %v", id)
			}
			if i > 0 && (got[i-1].Spender > id.Spender || got[i-1].Spender == id.Spender && got[i-1].Seq >= id.Seq) {
				t.Fatalf("export out of canonical order at %d: %v", i, got)
			}
		}
	})
}
