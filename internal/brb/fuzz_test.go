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

// FuzzDecodeChainDef exercises the CHAINDEF decoder. The chain encoding
// is fixed-width and therefore canonical: any payload that decodes must
// re-encode to exactly the input bytes.
func FuzzDecodeChainDef(f *testing.F) {
	f.Add(EncodeChainDef(fuzzChain())[1:]) // after the kind byte
	f.Add([]byte{0, 0, 0, 0})              // empty chain: rejected
	// Adversarial seed: the forge-refs behavior's digest-corrupted form —
	// structurally valid, semantically hostile.
	if c, ok := CorruptChainRefs(EncodeChainDef(fuzzChain()), 0x5a); ok {
		f.Add(c[1:])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		chain, err := decodeChainDef(wire.NewReader(data))
		if err != nil {
			return
		}
		if len(chain) == 0 || len(chain) > maxSignBatch {
			t.Fatalf("accepted chain of %d outside [1,%d]", len(chain), maxSignBatch)
		}
		if !bytes.Equal(EncodeChainDef(chain)[1:], data) {
			t.Fatal("decoded chain does not re-encode to input")
		}
	})
}

// FuzzDecodeCommitRef exercises the interned-reference certificate form:
// mixed plain and by-digest signatures, including unknown reference
// modes.
func FuzzDecodeCommitRef(f *testing.F) {
	sigs := []refSig{
		{Replica: 1, Sig: []byte("plain")},
		{Replica: 2, Sig: []byte("by-ref"), HasRef: true, Ref: types.Digest{0x05}, Idx: 1},
	}
	w := wire.NewWriter(64)
	w.U32(uint32(len(sigs)))
	for _, s := range sigs {
		w.U32(uint32(s.Replica))
		w.Chunk(s.Sig)
		if s.HasRef {
			w.U8(refModeChain)
			w.Bytes32(s.Ref)
			w.U32(s.Idx)
		} else {
			w.U8(refModePlain)
		}
	}
	f.Add(w.Bytes())
	// Adversarial seed: a full COMMITREF frame run through the forge-refs
	// corruptor, sliced back to the signature section this decoder reads
	// (header, then the one-byte payload chunk).
	if c, ok := CorruptChainRefs(EncodeCommitRef(2, 6, []byte("p"), sigs), 0x77); ok {
		f.Add(c[headerSize+4+1:])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sigs, err := decodeCommitRef(wire.NewReader(data))
		if err != nil {
			return
		}
		if len(sigs) > maxAckCertSigs {
			t.Fatalf("accepted %d signatures over cap", len(sigs))
		}
	})
}

// FuzzDecodeChainNack exercises the NACK digest-list decoder.
func FuzzDecodeChainNack(f *testing.F) {
	f.Add(EncodeChainNack(1, 4, []types.Digest{{0x0a}, {0x0b}})[headerSize:])
	// Adversarial seed: the NACK a storming receiver would synthesize
	// from a reference-form commit it claims not to resolve.
	hostile := []refSig{{Replica: 2, Sig: []byte("s"), HasRef: true, Ref: types.Digest{0x0c}, Idx: 0}}
	if n, ok := NackFor(EncodeCommitRef(1, 4, []byte("x"), hostile)); ok {
		f.Add(n[headerSize:])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		missing, err := decodeChainNack(wire.NewReader(data))
		if err != nil {
			return
		}
		if len(missing) > maxNackDigests {
			t.Fatalf("accepted %d digests over cap", len(missing))
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
		if _, _, _, err := decodeCommitTab(wire.NewReader(data)); err == nil {
			f.Fatalf("%s decoded as a COMMITTAB", name)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cert, table, digests, err := decodeCommitTab(wire.NewReader(data))
		if err != nil {
			return
		}
		if len(table) > maxCommitTabChains || len(digests) != len(table) {
			t.Fatalf("table %d / digests %d out of shape", len(table), len(digests))
		}
		for _, ch := range table {
			if len(ch) == 0 || len(ch) > maxSignBatch {
				t.Fatalf("accepted table chain of %d outside [1,%d]", len(ch), maxSignBatch)
			}
		}
		if len(cert.Sigs) > maxAckCertSigs {
			t.Fatalf("accepted %d signatures over cap", len(cert.Sigs))
		}
		for _, s := range cert.Sigs {
			if s.Chain == nil {
				continue
			}
			shared := false
			for _, ch := range table {
				if &s.Chain[0] == &ch[0] {
					shared = true
					break
				}
			}
			if !shared {
				t.Fatal("decoded signature chain does not share table backing")
			}
		}
		if !bytes.Equal(commitTabCert(1, 4, cert), data) {
			t.Fatal("decoded certificate does not re-encode to input")
		}
	})
}
