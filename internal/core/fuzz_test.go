package core

import (
	"bytes"
	"reflect"
	"testing"

	"astro/internal/types"
	"astro/internal/wire"
)

// fuzzGroup is a small valid credit group shared by the seed corpora.
func fuzzGroup() []types.Payment {
	return []types.Payment{
		{Spender: 1, Seq: 1, Beneficiary: 2, Amount: 10},
		{Spender: 1, Seq: 2, Beneficiary: 3, Amount: 5},
	}
}

func fuzzDependency() Dependency {
	return Dependency{
		Group: fuzzGroup(),
		Cert: DepCert{Sigs: []DepSig{
			{Replica: 0, Sig: []byte("sig-0")},
			{Replica: 2, Sig: []byte("sig-2"), Chain: []types.Digest{{0x01}, {0x02}}},
		}},
	}
}

// FuzzDecodeCreditChannel drives the full credit-channel payload decoder
// set: the single-group CREDIT, the chain-signed CREDITTAB, and the
// restart-time CREDITREDO and CREDITRESCAN. Invariants: no panic on
// arbitrary bytes, and a CREDITTAB that decodes is canonical — it
// re-encodes to the input, and its chain indices are strictly ascending
// and below the chain's length.
func FuzzDecodeCreditChannel(f *testing.F) {
	group := fuzzGroup()
	f.Add(encodeCredit(creditMsg{Signer: 1, Group: group, Sig: []byte("sig")}))
	// The retired kinds 2–5, in the layouts they had: the inline-chain
	// credit (2), the chain definition (3), the reference to it (4) and the
	// NACK demanding it (5). Nothing decodes them — the switch below has
	// no case for them, nor has the replica's (TestHostileCreditTabRetiredKinds).
	chain := []types.Digest{CreditGroupDigest(group)}
	retired := wire.NewWriter(256)
	retired.U8(2)
	retired.U32(2)
	wire.AppendDigestList(retired, chain)
	retired.Chunk([]byte("chain-sig"))
	retired.U32(1)
	retired.U32(0)
	appendPaymentGroup(retired, group)
	f.Add(retired.Bytes())
	def := wire.NewWriter(64)
	def.U8(3)
	wire.AppendDigestList(def, chain)
	f.Add(def.Bytes())
	ref := wire.NewWriter(256)
	ref.U8(4)
	ref.U32(3)
	ref.Bytes32(CreditChainDigest(chain))
	ref.Chunk([]byte("ref-sig"))
	ref.U32(1)
	ref.U32(0)
	appendPaymentGroup(ref, group)
	f.Add(ref.Bytes())
	nack := wire.NewWriter(33)
	nack.U8(5)
	nack.Bytes32(CreditChainDigest(chain))
	f.Add(nack.Bytes())
	f.Add(encodeCreditRedo([][]types.Payment{group, group[:1]}))
	f.Add(encodeCreditRescan())

	// CREDITTABs: a two-group wave, a full creditChainCap-digest chain, and
	// the refused forms — an index past the chain, indices out of order.
	other := []types.Payment{{Spender: 4, Seq: 1, Beneficiary: 6, Amount: 3}}
	wave := creditTabMsg{
		Signer: 3,
		Chain:  []types.Digest{{0x11}, CreditGroupDigest(group), CreditGroupDigest(other)},
		Sig:    []byte("wave-sig"),
		Groups: []creditTabGroup{{ChainIdx: 1, Group: group}, {ChainIdx: 2, Group: other}},
	}
	f.Add(encodeCreditTab(wave))
	full := make([]types.Digest, creditChainCap)
	for i := range full {
		full[i] = types.HashBytes([]byte{byte(i)})
	}
	f.Add(encodeCreditTab(creditTabMsg{Signer: 0, Chain: full, Sig: []byte("wave-sig"), Groups: []creditTabGroup{{ChainIdx: creditChainCap - 1, Group: group}}}))
	f.Add(encodeCreditTab(creditTabMsg{Signer: 0, Chain: full[:2], Sig: []byte("wave-sig"), Groups: []creditTabGroup{{ChainIdx: 2, Group: group}}}))
	swapped := wave
	swapped.Groups = []creditTabGroup{wave.Groups[1], wave.Groups[0]}
	f.Add(encodeCreditTab(swapped))
	// Adversarial seeds from the Byzantine encoders: the forge-refs
	// behavior's corrupted chain, and a hostile node's forged wave.
	if c, ok := CorruptCreditTab(encodeCreditTab(wave), 0x5a); ok {
		f.Add(c)
	} else {
		f.Fatal("CorruptCreditTab refused a CREDITTAB")
	}
	f.Add(EncodeCreditTab(1, []byte("forged"), group, other))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		switch data[0] {
		case msgCreditSingle:
			if m, err := decodeCredit(body); err == nil {
				if len(m.Group) == 0 || len(m.Group) > maxGroup {
					t.Fatalf("accepted group size %d", len(m.Group))
				}
			}
		case msgCreditTab:
			m, err := decodeCreditTab(body)
			if err != nil {
				return
			}
			if !bytes.Equal(encodeCreditTab(m), data) {
				t.Fatal("decoded CREDITTAB does not re-encode to input")
			}
			for i, g := range m.Groups {
				if int(g.ChainIdx) >= len(m.Chain) || (i > 0 && g.ChainIdx <= m.Groups[i-1].ChainIdx) {
					t.Fatalf("accepted chain index %d (group %d) on a chain of %d", g.ChainIdx, i, len(m.Chain))
				}
			}
		case msgCreditRedo:
			if groups, err := decodeCreditRedo(body); err == nil {
				if len(groups) == 0 || len(groups) > maxRedoGroups {
					t.Fatalf("accepted redo group count %d", len(groups))
				}
				for _, g := range groups {
					if len(g) == 0 || len(g) > maxGroup {
						t.Fatalf("accepted redo group size %d", len(g))
					}
				}
			}
		case msgCreditRescan:
			decodeCreditRescan(body)
		}
	})
}

// FuzzDecodeBatch feeds arbitrary bytes to the broadcast-payload decoder.
// A batch that decodes must re-encode to exactly the input — the batch
// encoding is canonical, and settlement replay depends on it.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch([]BatchEntry{
		{Payment: types.Payment{Spender: 1, Seq: 1, Beneficiary: 2, Amount: 7}},
		{Payment: types.Payment{Spender: 3, Seq: 4, Beneficiary: 1, Amount: 1},
			Sig: []byte("client-sig"), Deps: []Dependency{fuzzDependency()}},
	}))
	f.Add(EncodeBatch(nil))
	other := fuzzDependency()
	other.Cert.Sigs = append(other.Cert.Sigs, DepSig{Replica: 3, Sig: []byte("sig-3"), Chain: []types.Digest{{0x00, 0x07}}})
	f.Add(EncodeBatch([]BatchEntry{
		{Payment: types.Payment{Spender: 1, Seq: 2, Beneficiary: 2, Amount: 3},
			Deps: []Dependency{fuzzDependency(), other}},
	}))

	// Inputs that must be refused: the retired forms — entry count first
	// with no table, and the marker-introduced table — and tables out of
	// order or holding a chain no signature names.
	noTable := wire.NewWriter(64)
	noTable.U32(1)
	noTable.AppendFunc(types.Payment{Spender: 1, Seq: 2, Beneficiary: 2, Amount: 3}.AppendBinary)
	noTable.Chunk(nil)
	noTable.U32(0)
	marker := wire.NewWriter(12)
	marker.U32(^uint32(0))
	marker.U32(0)
	marker.U32(0)
	hi, lo := []types.Digest{{0x09}}, []types.Digest{{0x01}}
	unsorted := wire.NewWriter(128)
	unsorted.U32(2)
	wire.AppendDigestList(unsorted, hi)
	wire.AppendDigestList(unsorted, lo)
	unsorted.U32(0)
	unnamed := wire.NewWriter(64)
	unnamed.U32(1)
	wire.AppendDigestList(unnamed, lo)
	unnamed.U32(0)
	for name, data := range map[string][]byte{"table-less batch": noTable.Bytes(), "marker batch": marker.Bytes(), "unsorted table": unsorted.Bytes(), "unnamed table entry": unnamed.Bytes()} {
		if _, err := DecodeBatch(data); err == nil {
			f.Fatalf("%s decoded", name)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeBatch(entries), data) {
			t.Fatal("decoded batch does not re-encode to input")
		}
	})
}

// FuzzDecodeDependency exercises the decoder of a dependency stored on its
// own (recDep, the snapshot's dependency section): its chain table, then
// the dependency. Whatever decodes must re-encode to exactly the input.
func FuzzDecodeDependency(f *testing.F) {
	d := fuzzDependency()
	w := wire.NewWriter(dependencyRecordSize(d))
	appendDependencyRecord(w, d)
	f.Add(w.Bytes())

	// The retired forms must be refused: the group first, then a kind byte
	// selecting single-group signatures only (0) or a chain carried inline
	// by each signature (1).
	for kind := byte(0); kind <= 1; kind++ {
		old := wire.NewWriter(256)
		appendPaymentGroup(old, d.Group)
		old.U8(kind)
		old.U32(uint32(len(d.Cert.Sigs)))
		for _, ps := range d.Cert.Sigs {
			old.U32(uint32(ps.Replica))
			old.Chunk(ps.Sig)
			if kind == 1 {
				wire.AppendDigestList(old, ps.Chain)
			}
		}
		r := wire.NewReader(old.Bytes())
		if _, err := readDependencyRecord(r); err == nil && r.Finish() == nil {
			f.Fatalf("retired kind-%d dependency decoded", kind)
		}
		f.Add(old.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		dep, err := readDependencyRecord(r)
		if err != nil || r.Finish() != nil {
			return
		}
		if len(dep.Group) == 0 || len(dep.Group) > maxGroup {
			t.Fatalf("accepted group size %d", len(dep.Group))
		}
		w := wire.NewWriter(dependencyRecordSize(dep))
		appendDependencyRecord(w, dep)
		if !bytes.Equal(w.Bytes(), data) {
			t.Fatal("decoded dependency does not re-encode to input")
		}
	})
}

// FuzzDecodeReplicaImage feeds arbitrary bytes to the WAL-snapshot / full
// state-transfer decoder. An image that decodes must survive an
// encode/decode round trip unchanged: recovery correctness rests on the
// snapshot being a faithful, canonical projection.
func FuzzDecodeReplicaImage(f *testing.F) {
	f.Add(encodeReplicaImage(testImage()))
	f.Add(encodeReplicaImage(replicaImage{
		pending:  map[uint64][]byte{},
		endorsed: endorseWindow{},
		repDeps:  map[types.ClientID][]Dependency{},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeReplicaImage(data)
		if err != nil {
			return
		}
		again, err := decodeReplicaImage(encodeReplicaImage(img))
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if !reflect.DeepEqual(img, again) {
			t.Fatal("image round-trip diverged")
		}
	})
}

// FuzzDecodePaymentChannel drives the client-facing payment-channel
// decoders with the Byzantine-client attack corpus seeded in: forged and
// spoofed submits, replayed settled submissions, sequence-race probes
// (Seq 0, far-future Seq), and replica-bound control frames reflected
// back. Invariant: no panic on arbitrary bytes, decoded submits respect
// the submit frame grammar, a decoded confirmation run names real
// payments, and runs and the stats snapshot round-trip.
func FuzzDecodePaymentChannel(f *testing.F) {
	honest := types.Payment{Spender: 7, Seq: 3, Beneficiary: 9, Amount: 25}
	f.Add(EncodeSubmit(honest, nil))
	f.Add(EncodeSubmit(honest, []byte("forged-signature")))                                      // forged client sig
	f.Add(EncodeSubmit(types.Payment{Spender: 8, Seq: 1, Beneficiary: 7, Amount: 1}, nil))       // spoofed spender
	f.Add(EncodeSubmit(types.Payment{Spender: 7, Seq: 0, Beneficiary: 9, Amount: 1}, nil))       // Seq 0 race
	f.Add(EncodeSubmit(types.Payment{Spender: 7, Seq: 1 << 40, Beneficiary: 9, Amount: 1}, nil)) // far-future Seq
	f.Add(EncodeSubmit(types.Payment{Spender: 7, Seq: 3, Beneficiary: 4, Amount: 999}, nil))     // equivocating resubmit
	f.Add(EncodeConfirm(honest.ID(), 1))                                                         // reflected confirm, run of 1
	f.Add(EncodeConfirm(honest.ID(), 70))                                                        // a saturated batch's run
	f.Add(EncodeConfirm(honest.ID(), maxConfirmRun))                                             // the longest a client expands
	f.Add(EncodeConfirm(honest.ID(), 0))                                                         // empty run
	f.Add(EncodeConfirm(honest.ID(), 1<<32-1))                                                   // run past any buffer
	f.Add(EncodeConfirm(types.PaymentID{Spender: 7, Seq: 1<<64 - 2}, 3))                         // last seq wraps
	f.Add(EncodeConfirm(honest.ID(), 1)[:17])                                                    // the retired 17-byte form
	f.Add(EncodeSeqReq(7))
	f.Add(EncodeBalanceReq(7))
	f.Add(EncodeStatsReq())
	f.Add(encodeBalanceResp(7, 100))
	f.Add(encodeSeqResp(7, 4))
	f.Add(encodeStatsResp(EdgeStats{BadSig: 1, Conflicting: 2, FutureSeq: 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		switch data[0] {
		case msgSubmit:
			if p, sig, ok := decodeSubmit(body); ok {
				// A decoded submit must re-encode to the identical frame:
				// idempotent retry (and the settled-replay screen) depend on
				// the submit encoding being canonical.
				if again := encodeSubmit(p, sig); string(again[1:]) != string(body) {
					t.Fatal("submit round-trip diverged")
				}
			}
		case msgConfirm:
			if run, ok := decodeConfirm(data); ok {
				if run.Count == 0 || run.First == 0 || run.First+types.Seq(run.Count-1) < run.First {
					t.Fatalf("decoded a run that names no payments: %+v", run)
				}
				if again := encodeConfirm(run); string(again) != string(data) {
					t.Fatal("confirm round-trip diverged")
				}
			}
		case msgStatsResp:
			if s, ok := decodeStatsResp(body); ok {
				if again := encodeStatsResp(s); string(again[1:]) != string(body) {
					t.Fatal("stats round-trip diverged")
				}
			}
		}
	})
}

// FuzzDecodeManifest drives the two decoders the incremental (v2)
// snapshot rests on: the manifest image — a replicaImage whose xlog and
// account sections live beside it as per-account records in the KV store
// — and the per-account spill record itself. Invariants: no panic on
// arbitrary bytes, whatever decodes survives an encode/decode round trip
// unchanged, and a decoded manifest image never carries resident account
// state (restart must fault accounts from the store, not trust bytes
// smuggled into the manifest).
func FuzzDecodeManifest(f *testing.F) {
	img := testImage()
	img.manifest = true
	img.accounts = nil
	full := testImage()
	f.Add(encodeReplicaImage(img), encodeAccountExport(full.accounts[0]))
	f.Add(encodeReplicaImage(img), encodeAccountExport(full.accounts[1]))
	f.Add(encodeReplicaImage(replicaImage{
		manifest: true,
		pending:  map[uint64][]byte{},
		endorsed: endorseWindow{},
		repDeps:  map[types.ClientID][]Dependency{},
	}), encodeAccountExport(AccountExport{Client: 1}))

	f.Fuzz(func(t *testing.T, imgData, recData []byte) {
		if m, err := decodeReplicaImage(imgData); err == nil {
			if m.manifest && len(m.accounts) != 0 {
				t.Fatal("manifest image decoded with resident accounts")
			}
			again, err := decodeReplicaImage(encodeReplicaImage(m))
			if err != nil {
				t.Fatalf("re-encoded image does not decode: %v", err)
			}
			if !reflect.DeepEqual(m, again) {
				t.Fatal("manifest image round-trip diverged")
			}
		}
		if ex, err := decodeAccountExport(recData); err == nil {
			again, err := decodeAccountExport(encodeAccountExport(ex))
			if err != nil {
				t.Fatalf("re-encoded account record does not decode: %v", err)
			}
			if !reflect.DeepEqual(ex, again) {
				t.Fatal("account record round-trip diverged")
			}
		}
	})
}
