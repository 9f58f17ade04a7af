package brb

import (
	"bytes"
	"testing"

	"astro/internal/types"
	"astro/internal/wire"
)

func fuzzChain() []ChainEntry {
	return []ChainEntry{
		{Origin: 0, Slot: 7, Digest: types.Digest{0x01}},
		{Origin: 3, Slot: 9, Digest: types.Digest{0x02}},
	}
}

// FuzzDecodePrepare exercises the Signed PREPARE decoder: any frame that
// decodes re-encodes to exactly the input, and replica 1 accepts its tag
// exactly when the frame is the one the named origin sends replica 1.
func FuzzDecodePrepare(f *testing.F) {
	f.Add(signedPrepare(0, 1, 3, []byte("batch")))
	f.Add(EncodePrepare(0, 3, []byte("batch")))                                    // untagged: rejected
	f.Add(EncodeSignedPrepare(originTags()[2], 1, 0, 3, []byte("batch")))          // another link's tag
	f.Add(signedPrepare(0, 2, 3, nil))                                             // another receiver's tag
	f.Add(EncodeSignedPrepare(testAuth(0), 1, 0, 3, []byte("batch")))              // a shared-master key
	f.Add(EncodeSignedPrepare(testTags(0, testKeys(3)), 1, 0, 3, []byte("batch"))) // 3 posing as 0
	receiver := originTags()[1]

	f.Fuzz(func(t *testing.T, frame []byte) {
		origin, slot, payload, tag, ok := DecodePrepare(frame)
		if !ok {
			return
		}
		w := wire.NewWriter(len(frame))
		appendPayloadMsg(w, kindPrepare, origin, slot, payload)
		w.Raw(tag)
		if !bytes.Equal(w.Bytes(), frame) {
			t.Fatal("decoded PREPARE does not re-encode to input")
		}
		d := SignedDigest(origin, slot, payload)
		accepted := receiver.VerifyTag(origin, d[:], tag)
		genuine := origin < testKeyCount && bytes.Equal(signedPrepare(origin, 1, slot, payload), frame)
		if accepted != genuine {
			t.Fatalf("tag accepted = %v for a frame that is the origin's own: %v", accepted, genuine)
		}
	})
}

// commitTabCert slices a COMMITTAB frame down to what decodeCommitTab
// reads: everything after the header and the one-byte payload chunk.
func commitTabCert(origin types.ReplicaID, slot uint64, cert AckCert) []byte {
	return EncodeCommitTab(origin, slot, []byte("p"), cert)[headerSize+4+1:]
}

// FuzzDecodeCommitTab exercises the tabled commit form: a message-level
// chain table with signatures naming their chain by index. Decoded
// signatures must share the table's chain backing, every bound — table
// size, per-chain length, signature count, index range — must hold on
// whatever decodes, and whatever decodes must re-encode to exactly the
// input: a certificate has one encoding.
func FuzzDecodeCommitTab(f *testing.F) {
	other := []ChainEntry{{Origin: 1, Slot: 2, Digest: types.Digest{0x03}}}
	f.Add(commitTabCert(1, 4, AckCert{Sigs: []AckSig{
		{Replica: 1, Sig: []byte("plain-sig")},
		{Replica: 2, Sig: []byte("chain-sig"), Chain: fuzzChain()},
		{Replica: 3, Sig: []byte("chain-sig-2"), Chain: fuzzChain()},
		{Replica: 0, Sig: []byte("chain-sig-3"), Chain: other},
	}}))
	// Single-slot signatures only: the empty table.
	f.Add(commitTabCert(1, 4, AckCert{Sigs: []AckSig{
		{Replica: 1, Sig: []byte("plain-1")},
		{Replica: 2, Sig: []byte("plain-2")},
	}}))

	// Adversarial seeds. A signature naming an index past the table:
	w := wire.NewWriter(128)
	w.U32(1)
	appendChain(w, fuzzChain())
	w.U32(1)
	w.U32(2)
	w.Chunk([]byte("sig"))
	w.U32(7) // table has one entry
	f.Add(w.Bytes())
	// A table entry of length zero:
	w = wire.NewWriter(16)
	w.U32(1)
	w.U32(0)
	f.Add(w.Bytes())
	// A table count past the cap:
	w = wire.NewWriter(8)
	w.U32(maxCommitTabChains + 1)
	f.Add(w.Bytes())

	// Inputs that must be refused: a table out of digest order, a table
	// entry no signature names, and the retired certificate form that
	// carried each signature's chain inline.
	lo, hi := fuzzChain(), other
	if compareDigests(AckChainDigest(lo), AckChainDigest(hi)) > 0 {
		lo, hi = hi, lo
	}
	unsorted := wire.NewWriter(256)
	unsorted.U32(2)
	appendChain(unsorted, hi)
	appendChain(unsorted, lo)
	unsorted.U32(2)
	for i := uint32(0); i < 2; i++ {
		unsorted.U32(i)
		unsorted.Chunk([]byte("sig"))
		unsorted.U32(i)
	}
	unnamed := wire.NewWriter(128)
	unnamed.U32(1)
	appendChain(unnamed, fuzzChain())
	unnamed.U32(1)
	unnamed.U32(1)
	unnamed.Chunk([]byte("plain-sig"))
	unnamed.U32(noChainTabIdx)
	inline := wire.NewWriter(256)
	inline.U32(2)
	inline.U32(1)
	inline.Chunk([]byte("plain-sig"))
	appendChain(inline, nil)
	inline.U32(2)
	inline.Chunk([]byte("chain-sig"))
	appendChain(inline, fuzzChain())
	for name, data := range map[string][]byte{"unsorted table": unsorted.Bytes(), "unnamed table entry": unnamed.Bytes(), "inline-chain certificate": inline.Bytes()} {
		if _, err := decodeCommitTab(wire.NewReader(data)); err == nil {
			f.Fatalf("%s decoded as a COMMITTAB", name)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cert, err := decodeCommitTab(wire.NewReader(data))
		if err != nil {
			return
		}
		if len(cert.Sigs) > maxAckCertSigs {
			t.Fatalf("accepted %d signatures over cap", len(cert.Sigs))
		}
		// The table, as the signatures see it: one backing per chain digest.
		table := make(map[types.Digest]*ChainEntry)
		for _, s := range cert.Sigs {
			if s.Chain == nil {
				continue
			}
			if len(s.Chain) == 0 || len(s.Chain) > maxSignBatch {
				t.Fatalf("accepted table chain of %d outside [1,%d]", len(s.Chain), maxSignBatch)
			}
			if s.ChainDigest != AckChainDigest(s.Chain) {
				t.Fatal("decoded signature carries a wrong chain digest")
			}
			if first, ok := table[s.ChainDigest]; ok && first != &s.Chain[0] {
				t.Fatal("decoded signatures naming one chain do not share its table backing")
			}
			table[s.ChainDigest] = &s.Chain[0]
		}
		if len(table) > maxCommitTabChains {
			t.Fatalf("table of %d chains over cap", len(table))
		}
		if !bytes.Equal(commitTabCert(1, 4, cert), data) {
			t.Fatal("decoded certificate does not re-encode to input")
		}
	})
}
