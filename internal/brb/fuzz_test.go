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
	lone := []ChainEntry{{Origin: 1, Slot: 4, Digest: types.Digest{0x04}}}
	f.Add(commitTabCert(1, 4, AckCert{Sigs: []AckSig{
		{Replica: 1, Sig: []byte("lone-sig"), Chain: lone},
		{Replica: 2, Sig: []byte("chain-sig"), Chain: fuzzChain()},
		{Replica: 3, Sig: []byte("chain-sig-2"), Chain: fuzzChain()},
		{Replica: 0, Sig: []byte("chain-sig-3"), Chain: other},
	}}))
	// Lone acks only: one chain of one per signer.
	f.Add(commitTabCert(1, 4, AckCert{Sigs: []AckSig{
		{Replica: 1, Sig: []byte("lone-1"), Chain: lone},
		{Replica: 2, Sig: []byte("lone-2"), Chain: lone},
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
	// entry no signature names, a chain one entry longer than any signer
	// makes, the retired certificate form that carried each signature's
	// chain inline, and the retired single-slot signatures that named no
	// chain (index 2^32-1) over an empty table.
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
	unnamed := wire.NewWriter(256)
	unnamed.U32(2)
	appendChain(unnamed, lo)
	appendChain(unnamed, hi)
	unnamed.U32(1)
	unnamed.U32(1)
	unnamed.Chunk([]byte("sig"))
	unnamed.U32(0)
	overlong := wire.NewWriter(2048)
	overlong.U32(1)
	appendChain(overlong, make([]ChainEntry, maxSignBatch+1))
	overlong.U32(1)
	overlong.U32(1)
	overlong.Chunk([]byte("sig"))
	overlong.U32(0)
	inline := wire.NewWriter(256)
	inline.U32(2)
	inline.U32(1)
	inline.Chunk([]byte("plain-sig"))
	appendChain(inline, nil)
	inline.U32(2)
	inline.Chunk([]byte("chain-sig"))
	appendChain(inline, fuzzChain())
	single := wire.NewWriter(64)
	single.U32(0)
	single.U32(2)
	for _, r := range []uint32{1, 2} {
		single.U32(r)
		single.Chunk([]byte("plain-sig"))
		single.U32(^uint32(0))
	}
	for name, data := range map[string][]byte{
		"unsorted table":           unsorted.Bytes(),
		"unnamed table entry":      unnamed.Bytes(),
		"overlong chain":           overlong.Bytes(),
		"inline-chain certificate": inline.Bytes(),
		"single-slot signatures":   single.Bytes(),
	} {
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

// FuzzDecodeAckBatch exercises the one ack form: what Signed accepts of
// an ACKBATCH — onMessage and DecodeAckBatch share one decoder — is a
// chain of 1 to maxSignBatch entries and a signature with nothing after
// it, and it re-encodes to exactly the input.
func FuzzDecodeAckBatch(f *testing.F) {
	lone := []ChainEntry{{Origin: 0, Slot: 7, Digest: types.Digest{0x01}}}
	f.Add(EncodeAckBatch(lone, []byte("lone-sig")))
	f.Add(EncodeAckBatch(fuzzChain(), []byte("chain-sig")))
	f.Add(EncodeAckBatch(make([]ChainEntry, maxSignBatch), []byte("full-sig")))

	// Inputs that must be refused: a chain one entry longer than any
	// signer makes, trailing bytes after the signature, an empty chain,
	// and the retired single-slot ACK.
	retired := wire.NewWriter(128)
	appendHeader(retired, 4, 0, 7)
	retired.Bytes32(types.Digest{0x01})
	retired.Chunk([]byte("plain-sig"))
	empty := wire.NewWriter(16)
	empty.U8(kindAckBatch)
	empty.U32(0)
	empty.Chunk([]byte("sig"))
	for name, frame := range map[string][]byte{
		"overlong chain":  EncodeAckBatch(make([]ChainEntry, maxSignBatch+1), []byte("sig")),
		"trailing bytes":  append(EncodeAckBatch(lone, []byte("sig")), 0),
		"empty chain":     empty.Bytes(),
		"single-slot ACK": retired.Bytes(),
	} {
		if _, _, ok := DecodeAckBatch(frame); ok {
			f.Fatalf("%s decoded as an ACKBATCH", name)
		}
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		chain, sig, ok := DecodeAckBatch(frame)
		if !ok {
			return
		}
		if len(chain) == 0 || len(chain) > maxSignBatch {
			t.Fatalf("accepted chain of %d outside [1,%d]", len(chain), maxSignBatch)
		}
		if !bytes.Equal(EncodeAckBatch(chain, sig), frame) {
			t.Fatal("decoded ACKBATCH does not re-encode to input")
		}
	})
}
