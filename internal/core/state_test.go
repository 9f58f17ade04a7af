package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"astro/internal/types"
	"astro/internal/wire"
)

func pay(s types.ClientID, n types.Seq, b types.ClientID, x types.Amount) types.Payment {
	return types.Payment{Spender: s, Seq: n, Beneficiary: b, Amount: x}
}

func genesis100(types.ClientID) types.Amount { return 100 }

func TestXLogInvariants(t *testing.T) {
	x := NewXLog(7)
	if x.Owner() != 7 || x.Len() != 0 {
		t.Fatal("fresh xlog wrong")
	}
	x.Append(pay(7, 1, 8, 5))
	x.Append(pay(7, 2, 9, 3))
	if !x.Verify() {
		t.Error("valid xlog fails Verify")
	}
	if x.At(1).Seq != 2 {
		t.Error("At(1)")
	}
	snap := x.Snapshot()
	snap[0].Amount = 999
	if x.At(0).Amount == 999 {
		t.Error("Snapshot aliases internal storage")
	}

	bad := NewXLog(7)
	bad.Append(pay(8, 1, 9, 1)) // wrong spender
	if bad.Verify() {
		t.Error("wrong-spender xlog passes Verify")
	}
	gap := NewXLog(7)
	gap.Append(pay(7, 2, 9, 1)) // gap at seq 1
	if gap.Verify() {
		t.Error("gapped xlog passes Verify")
	}
}

func TestAstroISettleBasic(t *testing.T) {
	s := NewState(AstroI, genesis100, nil)
	settled := s.ApplyEntry(BatchEntry{Payment: pay(1, 1, 2, 30)})
	if len(settled) != 1 {
		t.Fatalf("settled %d payments", len(settled))
	}
	if s.Balance(1) != 70 || s.Balance(2) != 130 {
		t.Errorf("balances: %d, %d", s.Balance(1), s.Balance(2))
	}
	if s.NextSeq(1) != 2 {
		t.Errorf("NextSeq = %d", s.NextSeq(1))
	}
	if s.XLog(1).Len() != 1 {
		t.Error("xlog not appended")
	}
}

func TestAstroISequenceGap(t *testing.T) {
	s := NewState(AstroI, genesis100, nil)
	// Seq 2 arrives first: approval criterion (1) holds it.
	if settled := s.ApplyEntry(BatchEntry{Payment: pay(1, 2, 2, 10)}); len(settled) != 0 {
		t.Fatal("seq 2 settled before seq 1")
	}
	if s.PendingCount(1) != 1 {
		t.Error("payment not queued")
	}
	// Seq 1 arrives: both settle, in order.
	settled := s.ApplyEntry(BatchEntry{Payment: pay(1, 1, 3, 5)})
	if len(settled) != 2 {
		t.Fatalf("settled %d, want 2", len(settled))
	}
	if settled[0].Seq != 1 || settled[1].Seq != 2 {
		t.Error("settled out of order")
	}
	if s.Balance(1) != 85 {
		t.Errorf("balance = %d", s.Balance(1))
	}
}

func TestAstroIInsufficientFundsQueues(t *testing.T) {
	s := NewState(AstroI, func(c types.ClientID) types.Amount {
		if c == 1 {
			return 0
		}
		return 100
	}, nil)
	// Client 1 has nothing: payment waits (approval criterion 2).
	if settled := s.ApplyEntry(BatchEntry{Payment: pay(1, 1, 3, 10)}); len(settled) != 0 {
		t.Fatal("unfunded payment settled")
	}
	if s.PendingCount(1) != 1 {
		t.Error("unfunded payment not queued")
	}
	// Client 2 credits client 1; the queued payment settles transitively.
	settled := s.ApplyEntry(BatchEntry{Payment: pay(2, 1, 1, 50)})
	if len(settled) != 2 {
		t.Fatalf("settled %d, want 2 (credit + unblocked)", len(settled))
	}
	if s.Balance(1) != 40 || s.Balance(3) != 110 {
		t.Errorf("balances: 1=%d 3=%d", s.Balance(1), s.Balance(3))
	}
}

func TestAstroITransitiveChain(t *testing.T) {
	// 1 pays 2, 2 pays 3, 3 pays 4 — each funded only by the previous
	// credit. Deliver in reverse order; everything settles when the head
	// credit lands.
	zero := func(c types.ClientID) types.Amount {
		if c == 1 {
			return 10
		}
		return 0
	}
	s := NewState(AstroI, zero, nil)
	if n := len(s.ApplyEntry(BatchEntry{Payment: pay(3, 1, 4, 10)})); n != 0 {
		t.Fatal("3->4 settled early")
	}
	if n := len(s.ApplyEntry(BatchEntry{Payment: pay(2, 1, 3, 10)})); n != 0 {
		t.Fatal("2->3 settled early")
	}
	settled := s.ApplyEntry(BatchEntry{Payment: pay(1, 1, 2, 10)})
	if len(settled) != 3 {
		t.Fatalf("settled %d, want 3", len(settled))
	}
	if s.Balance(4) != 10 || s.Balance(1) != 0 || s.Balance(2) != 0 || s.Balance(3) != 0 {
		t.Error("chain balances wrong")
	}
}

func TestDuplicateAndConflictDropped(t *testing.T) {
	s := NewState(AstroI, genesis100, nil)
	s.ApplyEntry(BatchEntry{Payment: pay(1, 1, 2, 10)})
	// Replay of a settled identifier.
	if n := len(s.ApplyEntry(BatchEntry{Payment: pay(1, 1, 2, 10)})); n != 0 {
		t.Error("replay settled")
	}
	// Conflicting payment queued for same identifier.
	s2 := NewState(AstroI, func(types.ClientID) types.Amount { return 0 }, nil)
	s2.ApplyEntry(BatchEntry{Payment: pay(1, 1, 2, 10)}) // queues (unfunded)
	s2.ApplyEntry(BatchEntry{Payment: pay(1, 1, 3, 99)}) // conflict
	c := s2.Counters()
	if c.Conflicts != 1 {
		t.Errorf("conflicts = %d", c.Conflicts)
	}
}

func TestAstroIISettleNoDirectCredit(t *testing.T) {
	s := NewState(AstroII, genesis100, nil)
	settled := s.ApplyEntry(BatchEntry{Payment: pay(1, 1, 2, 30)})
	if len(settled) != 1 {
		t.Fatalf("settled %d", len(settled))
	}
	if s.Balance(1) != 70 {
		t.Errorf("spender balance = %d", s.Balance(1))
	}
	// Astro II: the beneficiary is NOT credited directly — funds flow
	// through the dependency mechanism (paper Listing 9).
	if s.Balance(2) != 100 {
		t.Errorf("beneficiary balance = %d, want 100 (unchanged)", s.Balance(2))
	}
}

func TestAstroIIDependencyCredit(t *testing.T) {
	s := NewState(AstroII, func(c types.ClientID) types.Amount { return 0 }, nil)
	// Client 2 spends 20 it only has via a dependency from client 1.
	dep := Dependency{Group: []types.Payment{pay(1, 1, 2, 25)}}
	settled := s.ApplyEntry(BatchEntry{Payment: pay(2, 1, 3, 20), Deps: []Dependency{dep}})
	if len(settled) != 1 {
		t.Fatalf("settled %d", len(settled))
	}
	if s.Balance(2) != 5 {
		t.Errorf("balance = %d, want 5 (25 credited - 20 spent)", s.Balance(2))
	}
}

func TestAstroIIDependencyReplayRejected(t *testing.T) {
	s := NewState(AstroII, func(c types.ClientID) types.Amount { return 0 }, nil)
	dep := Dependency{Group: []types.Payment{pay(1, 1, 2, 25)}}
	s.ApplyEntry(BatchEntry{Payment: pay(2, 1, 3, 20), Deps: []Dependency{dep}})
	// Replaying the same dependency on the next payment must not credit
	// again: only 5 remain, so a 20 payment wedges the xlog (Byzantine
	// representative behaviour).
	settled := s.ApplyEntry(BatchEntry{Payment: pay(2, 2, 3, 20), Deps: []Dependency{dep}})
	if len(settled) != 0 {
		t.Fatal("double-deposit: replayed dependency credited twice")
	}
	if s.Balance(2) != 5 {
		t.Errorf("balance = %d, want 5", s.Balance(2))
	}
	c := s.Counters()
	if c.Dropped != 1 {
		t.Errorf("dropped = %d", c.Dropped)
	}
}

func TestAstroIIUnfundedWedgesXlog(t *testing.T) {
	s := NewState(AstroII, func(types.ClientID) types.Amount { return 0 }, nil)
	if n := len(s.ApplyEntry(BatchEntry{Payment: pay(1, 1, 2, 10)})); n != 0 {
		t.Fatal("unfunded settled")
	}
	// Listing 9 semantics: seq never advances; later payments dropped.
	if n := len(s.ApplyEntry(BatchEntry{Payment: pay(1, 2, 2, 1)})); n != 0 {
		t.Fatal("payment settled on wedged xlog")
	}
	if s.NextSeq(1) != 1 {
		t.Errorf("NextSeq = %d, want 1", s.NextSeq(1))
	}
}

func TestAstroIIDependencyVerificationHook(t *testing.T) {
	rejectAll := func(Dependency) error { return ErrDepEmpty }
	s := NewState(AstroII, func(types.ClientID) types.Amount { return 0 }, rejectAll)
	dep := Dependency{Group: []types.Payment{pay(1, 1, 2, 25)}}
	if n := len(s.ApplyEntry(BatchEntry{Payment: pay(2, 1, 3, 20), Deps: []Dependency{dep}})); n != 0 {
		t.Fatal("payment settled with unverifiable dependency")
	}
	if s.Balance(2) != 0 {
		t.Error("unverifiable dependency credited")
	}
}

func TestConservationAstroIProperty(t *testing.T) {
	// Under Astro I, total balance is conserved across any sequence of
	// settles (money only moves).
	f := func(ops []struct {
		S, B uint8
		X    uint16
	}) bool {
		s := NewState(AstroI, genesis100, nil)
		seqs := make(map[types.ClientID]types.Seq)
		for _, op := range ops {
			sp := types.ClientID(op.S%8) + 1
			bn := types.ClientID(op.B%8) + 1
			seqs[sp]++
			s.ApplyEntry(BatchEntry{Payment: pay(sp, seqs[sp], bn, types.Amount(op.X%50))})
		}
		// Queued (unsettled) payments have not moved money yet; the total
		// settled balance must equal the genesis total of materialized
		// accounts (money only moves, never appears or vanishes).
		want := types.Amount(100 * len(s.Clients()))
		return s.TotalSettledBalance() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqMonotonicityProperty(t *testing.T) {
	// Whatever order entries arrive in, the xlog's sequence numbers are
	// exactly 1..Len.
	f := func(perm []uint8) bool {
		s := NewState(AstroI, genesis100, nil)
		n := len(perm)%10 + 1
		// Deliver seqs n..1 in reverse: worst-case reordering.
		for i := n; i >= 1; i-- {
			s.ApplyEntry(BatchEntry{Payment: pay(1, types.Seq(i), 2, 1)})
		}
		return s.XLog(1).Verify() && s.XLog(1).Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	entries := []BatchEntry{
		{Payment: pay(1, 1, 2, 10)},
		{Payment: pay(3, 7, 4, 20), Deps: []Dependency{
			{Group: []types.Payment{pay(9, 1, 3, 5), pay(9, 2, 3, 6)}},
		}},
	}
	data := EncodeBatch(entries)
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("entries = %d", len(got))
	}
	if got[0].Payment != entries[0].Payment || len(got[0].Deps) != 0 {
		t.Error("entry 0 mismatch")
	}
	if got[1].Payment != entries[1].Payment || len(got[1].Deps) != 1 {
		t.Fatal("entry 1 mismatch")
	}
	if len(got[1].Deps[0].Group) != 2 || got[1].Deps[0].Group[1] != pay(9, 2, 3, 6) {
		t.Error("dependency group mismatch")
	}
}

func TestBatchV2ChainInterning(t *testing.T) {
	// Two payments whose certificates cite the same two-signer chain: the
	// batch's chain table holds it once, however many certificates cite it.
	chain := []types.Digest{types.HashBytes([]byte("g1")), types.HashBytes([]byte("g2"))}
	dep := func() Dependency {
		return Dependency{
			Group: []types.Payment{pay(9, 1, 3, 5)},
			Cert: DepCert{Sigs: []DepSig{
				{Replica: 0, Sig: []byte("sig-0")},
				{Replica: 2, Sig: []byte("sig-2"), Chain: chain},
				{Replica: 3, Sig: []byte("sig-3"), Chain: chain},
			}},
		}
	}
	entries := []BatchEntry{
		{Payment: pay(1, 1, 2, 10), Deps: []Dependency{dep()}},
		{Payment: pay(4, 2, 5, 20), Deps: []Dependency{dep()}},
	}

	data := EncodeBatch(entries)
	if n := wire.NewReader(data).U32(); n != 1 {
		t.Fatalf("chain table of %d entries, want the shared chain once", n)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatal("round trip mismatch")
	}

	// The decoder hands every certificate citing table entry i the same
	// backing slice — the interning the table exists to transport.
	a := got[0].Deps[0].Cert.Sigs[1].Chain
	b := got[1].Deps[0].Cert.Sigs[2].Chain
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("decoded certificates do not share the table's chain backing")
	}

	// A chain-free batch carries an empty table: nothing to intern.
	plain := EncodeBatch([]BatchEntry{{Payment: pay(1, 1, 2, 3)}})
	if n := wire.NewReader(plain).U32(); n != 0 {
		t.Errorf("chain-free batch has a table of %d", n)
	}
}

func TestBatchV2RejectsMalformed(t *testing.T) {
	w := wire.NewWriter(16)
	w.U32(1) // one table entry ...
	w.U32(0) // ... of no digests
	w.U32(0) // entries
	if _, err := DecodeBatch(w.Bytes()); err == nil {
		t.Error("empty chain in the table accepted")
	}

	// A certificate citing a table index past the end must be rejected.
	chain := []types.Digest{types.HashBytes([]byte("g"))}
	entries := []BatchEntry{{Payment: pay(1, 1, 2, 10), Deps: []Dependency{{
		Group: []types.Payment{pay(9, 1, 3, 5)},
		Cert:  DepCert{Sigs: []DepSig{{Replica: 2, Sig: []byte("s"), Chain: chain}}},
	}}}}
	data := EncodeBatch(entries)
	// The sole chain index is the last u32 before the trailing sig bytes;
	// corrupt it by scanning for its encoding and bumping it out of range.
	idx := []byte{0, 0, 0, 0}
	for i := len(data) - 4; i >= 0; i-- {
		if string(data[i:i+4]) == string(idx) {
			bad := append([]byte(nil), data...)
			bad[i+3] = 7 // index 7 into a 1-entry table
			if _, err := DecodeBatch(bad); err == nil {
				t.Error("out-of-range chain index accepted")
			}
			return
		}
	}
	t.Fatal("chain index not found in encoding")
}

func TestBatchCodecRejectsGarbage(t *testing.T) {
	if _, err := DecodeBatch([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("absurd count accepted")
	}
	if _, err := DecodeBatch([]byte{0, 0, 0, 1, 1, 2}); err == nil {
		t.Error("truncated entry accepted")
	}
	// Trailing bytes rejected.
	data := append(EncodeBatch([]BatchEntry{{Payment: pay(1, 1, 2, 3)}}), 0xEE)
	if _, err := DecodeBatch(data); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestBatchCodecProperty(t *testing.T) {
	f := func(s, b uint64, n, x uint64, count uint8) bool {
		entries := make([]BatchEntry, int(count)%20)
		for i := range entries {
			entries[i] = BatchEntry{Payment: types.Payment{
				Spender: types.ClientID(s + uint64(i)), Seq: types.Seq(n),
				Beneficiary: types.ClientID(b), Amount: types.Amount(x),
			}}
		}
		got, err := DecodeBatch(EncodeBatch(entries))
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range entries {
			if got[i].Payment != entries[i].Payment {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionString(t *testing.T) {
	if AstroI.String() != "Astro I" || AstroII.String() != "Astro II" || Version(9).String() != "Astro?" {
		t.Error("Version.String")
	}
}
