package brb

import (
	"bytes"
	"fmt"
	"slices"

	"astro/internal/types"
	"astro/internal/wire"
)

// Tabled commit encoding: the self-contained commit form, which the origin
// sends when a CHAINNACK names a chain it cannot define (see chainref.go).
// Every distinct chain of the certificate is interned once in a
// message-level table and each signature names its chain by index:
//
//	kind origin slot | payload | U32 ntab (chain)* | U32 nsigs
//	    (replica sig idx)*
//
// where idx is an index into the table or noChainTabIdx for a single-slot
// signature; a certificate of single-slot signatures has an empty table.
// The table holds exactly the chains the signatures name, sorted by chain
// digest, so a certificate has one encoding and the decoder refuses any
// other. The receiver hashes each table entry exactly once (feeding both
// the chain cache and the certificate's memoized ChainDigest) and the
// decoded signatures share the table's chain slices.

// noChainTabIdx marks a single-slot signature in the tabled encoding.
const noChainTabIdx = ^uint32(0)

// commitTabSize is the exact size of a COMMITTAB message for the given
// table and certificate.
func commitTabSize(payload []byte, table [][]ChainEntry, cert AckCert) int {
	n := headerSize + 4 + len(payload) + 4
	for _, chain := range table {
		n += 4 + len(chain)*chainEntrySize
	}
	n += 4
	for _, s := range cert.Sigs {
		n += 4 + 4 + len(s.Sig) + 4
	}
	return n
}

func compareDigests(a, b types.Digest) int { return bytes.Compare(a[:], b[:]) }

// commitChainTable collects the distinct chains of a certificate sorted by
// chain digest, and each signature's index into the table (noChainTabIdx
// for single-slot signatures). The stack-backed digest list keeps the
// common case — a quorum naming a handful of chains — allocation-free.
func commitChainTable(cert AckCert) (table [][]ChainEntry, idxs []uint32) {
	var stack [8]types.Digest
	digests := stack[:0]
	for i := range cert.Sigs {
		a := &cert.Sigs[i]
		if a.Chain == nil {
			continue
		}
		cd := a.chainDigest()
		if j, found := slices.BinarySearchFunc(digests, cd, compareDigests); !found {
			digests = slices.Insert(digests, j, cd)
			table = slices.Insert(table, j, a.Chain)
		}
	}
	idxs = make([]uint32, len(cert.Sigs))
	for i := range cert.Sigs {
		a := &cert.Sigs[i]
		if a.Chain == nil {
			idxs[i] = noChainTabIdx
			continue
		}
		j, _ := slices.BinarySearchFunc(digests, a.chainDigest(), compareDigests)
		idxs[i] = uint32(j)
	}
	return table, idxs
}

func appendCommitTab(w *wire.Writer, origin types.ReplicaID, slot uint64, payload []byte, table [][]ChainEntry, cert AckCert, idxs []uint32) {
	appendHeader(w, kindCommitTab, origin, slot)
	w.Chunk(payload)
	w.U32(uint32(len(table)))
	for _, chain := range table {
		appendChain(w, chain)
	}
	w.U32(uint32(len(cert.Sigs)))
	for i, s := range cert.Sigs {
		w.U32(uint32(s.Replica))
		w.Chunk(s.Sig)
		w.U32(idxs[i])
	}
}

// EncodeCommitTab encodes a COMMIT carrying a chain-tabled certificate.
// Exported for tests and the wire-cost benchmarks.
func EncodeCommitTab(origin types.ReplicaID, slot uint64, payload []byte, cert AckCert) []byte {
	table, idxs := commitChainTable(cert)
	w := wire.NewWriter(commitTabSize(payload, table, cert))
	appendCommitTab(w, origin, slot, payload, table, cert, idxs)
	return w.Bytes()
}

// maxCommitTabChains bounds the decoded chain table: a certificate of at
// most maxAckCertSigs signatures names at most that many distinct chains.
const maxCommitTabChains = maxAckCertSigs

// decodeCommitTab parses a COMMITTAB after the payload chunk, returning
// the certificate and the table digests (hashed once per table entry, for
// the caller's chain cache). Signatures share the table's chain slices
// and carry the memoized ChainDigest, so verification never rehashes.
func decodeCommitTab(r *wire.Reader) (AckCert, [][]ChainEntry, []types.Digest, error) {
	nt := r.U32()
	if err := r.Err(); err != nil {
		return AckCert{}, nil, nil, err
	}
	if nt > maxCommitTabChains {
		return AckCert{}, nil, nil, fmt.Errorf("brb: commit chain table of %d exceeds cap", nt)
	}
	table := make([][]ChainEntry, 0, nt)
	digests := make([]types.Digest, 0, nt)
	for i := uint32(0); i < nt; i++ {
		chain, err := decodeChain(r)
		if err != nil {
			return AckCert{}, nil, nil, err
		}
		if len(chain) == 0 || len(chain) > maxSignBatch {
			return AckCert{}, nil, nil, fmt.Errorf("brb: tabled chain of %d outside [1,%d]", len(chain), maxSignBatch)
		}
		cd := AckChainDigest(chain)
		if i > 0 && compareDigests(digests[i-1], cd) >= 0 {
			return AckCert{}, nil, nil, fmt.Errorf("brb: commit chain table not sorted by digest")
		}
		table = append(table, chain)
		digests = append(digests, cd)
	}
	ns := r.U32()
	if err := r.Err(); err != nil {
		return AckCert{}, nil, nil, err
	}
	if ns > maxAckCertSigs {
		return AckCert{}, nil, nil, fmt.Errorf("brb: tabled cert of %d signatures exceeds cap", ns)
	}
	cert := AckCert{Sigs: make([]AckSig, 0, ns)}
	named := make([]bool, len(table))
	for i := uint32(0); i < ns; i++ {
		id := types.ReplicaID(r.U32())
		sig := r.Chunk()
		idx := r.U32()
		if err := r.Err(); err != nil {
			return AckCert{}, nil, nil, err
		}
		a := AckSig{Replica: id, Sig: sig}
		if idx != noChainTabIdx {
			if idx >= uint32(len(table)) {
				return AckCert{}, nil, nil, fmt.Errorf("brb: chain table index %d of %d", idx, len(table))
			}
			a.Chain = table[idx]
			a.ChainDigest = digests[idx]
			named[idx] = true
		}
		cert.Sigs = append(cert.Sigs, a)
	}
	if slices.Contains(named, false) {
		return AckCert{}, nil, nil, fmt.Errorf("brb: commit chain table entry no signature names")
	}
	if err := r.Finish(); err != nil {
		return AckCert{}, nil, nil, err
	}
	return cert, table, digests, nil
}
