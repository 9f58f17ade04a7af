package core

import (
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wire"
)

// Chain-by-digest references on the credit channel (see the protocol
// prose on the msgCredit* kinds). This file keeps the replica's reference
// state:
//
//   - creditChains: receiver side — per sending replica, a bounded LRU of
//     the chains that replica has defined, keyed by the locally recomputed
//     CreditChainDigest. Per-peer bounding means no replica can evict
//     another's definitions; the cache doubles as the chain *interning*
//     table — every resolved CREDITREF from one signer yields the same
//     canonical []types.Digest backing, so the k DepSigs of one wave share
//     storage and the chain table's comparison hits its pointer fast path;
//   - creditWaves: sender side — the recently signed waves (chain,
//     signature, jobs), oldest retired first, from which a CREDITNACK is
//     answered with the chain's CREDITCHAINDEF and the reference again.
//     Definitions are lazy, so every reference from a signer whose wave
//     boundaries differ from the receiver's needs that answer: a wave
//     retired before its NACK arrives is a signature the beneficiary never
//     gets, and when it happens at enough signers the certificate never
//     forms and the credit is lost. Retention is therefore sized by what a
//     NACK can trail its reference by (creditWaveRetainBytes), not by a
//     count of waves.
//
// There is no per-destination sent-set: every wave signs a brand-new
// chain (the digests of its freshly settled groups), so a chain is never
// referenced across waves.
//
// Both structures hang off chainMu; the lock is never held across a
// transport send or a signature operation.

// creditChainCacheEntries bounds the per-peer credit chain caches, and is
// the number of signed waves always retained whatever their size. At the
// creditChainCap chain length this is ~64 KiB per peer of digests.
const creditChainCacheEntries = 64

// creditWaveRetainBytes is how much signed-wave content a replica keeps for
// CREDITNACK answers beyond the newest creditChainCacheEntries waves. A
// NACK trails its CREDITREF by whatever was queued ahead of either —
// kernel socket buffers (a few MiB per direction at Linux's autotuning
// limits) and the bounded dispatch queues — and that is a byte quantity. A saturated
// replica signs several hundred waves a second, so a count of 64 retired a
// wave ~160 ms after signing it, inside the loaded p99.
const creditWaveRetainBytes = 16 << 20

// CreditRefStats counts the credit-channel reference traffic at one
// replica, for tests and the benchmark harness: CREDITCHAINDEF/CREDITREF
// sends, inbound reference cache hits and misses, and NACK round trips
// (types.RefStats).
type CreditRefStats = types.RefStats

// CreditRefStats returns the credit chain-reference counters.
func (r *Replica) CreditRefStats() CreditRefStats {
	return r.creditRefStats.Snapshot()
}

// retainedWave is one signed settlement wave kept for NACK retransmission.
type retainedWave struct {
	chain []types.Digest
	sig   []byte
	jobs  []creditJob
}

// size is what the wave holds in memory, to the byte of its wire content.
func (w retainedWave) size() int {
	n := 32*len(w.chain) + len(w.sig)
	for _, j := range w.jobs {
		n += len(j.group) * types.PaymentWireSize
	}
	return n
}

// waveBuffer is the sender-side retransmit buffer: signed waves by chain
// digest, retired oldest first once they exceed creditWaveRetainBytes
// while more than creditChainCacheEntries remain.
type waveBuffer struct {
	waves map[types.Digest]retainedWave
	order []types.Digest // oldest first
	bytes int
}

func newWaveBuffer() *waveBuffer {
	return &waveBuffer{waves: make(map[types.Digest]retainedWave)}
}

func (b *waveBuffer) put(digest types.Digest, w retainedWave) {
	if _, ok := b.waves[digest]; ok {
		return // same digest, same chain: already answerable
	}
	b.waves[digest] = w
	b.order = append(b.order, digest)
	b.bytes += w.size()
	for len(b.order) > creditChainCacheEntries && b.bytes > creditWaveRetainBytes {
		oldest := b.order[0]
		b.order = b.order[1:]
		b.bytes -= b.waves[oldest].size()
		delete(b.waves, oldest)
	}
}

// learnCreditChain caches (and interns) a chain defined by peer, returning
// the canonical slice: the already-cached copy if the digest is known, the
// given one otherwise. Chains longer than an honest wave are not cached.
func (r *Replica) learnCreditChain(peer types.ReplicaID, digest types.Digest, chain []types.Digest) []types.Digest {
	if len(chain) == 0 || len(chain) > creditChainCap {
		return chain
	}
	r.chainMu.Lock()
	defer r.chainMu.Unlock()
	return r.creditChains.Intern(peer, digest, chain)
}

// knownCreditChain resolves a chain reference from peer, touching it. A
// per-peer miss falls through to the content-addressed any-peer probe:
// replicas with aligned wave boundaries sign byte-identical chains (the
// enqueue order in postSettle is replica-deterministic), so the chain this
// replica signed — or learned from any aligned signer — resolves every
// other signer's reference to it. The cache key is the locally recomputed
// digest, so a cross-peer hit is exactly as trustworthy as an own-peer one.
func (r *Replica) knownCreditChain(peer types.ReplicaID, digest types.Digest) ([]types.Digest, bool) {
	r.chainMu.Lock()
	defer r.chainMu.Unlock()
	if chain, ok := r.creditChains.Get(peer, digest); ok {
		return chain, true
	}
	return r.creditChains.GetAny(digest)
}

// retainCreditWave buffers a signed wave for NACK retransmission.
func (r *Replica) retainCreditWave(digest types.Digest, w retainedWave) {
	r.chainMu.Lock()
	r.creditWaves.put(digest, w)
	r.chainMu.Unlock()
}

// handleCreditNack answers a destination that could not resolve a chain
// reference: the chain's CREDITCHAINDEF goes out followed by the reference
// again, on the same FIFO channel.
func (r *Replica) handleCreditNack(from transport.NodeID, digest types.Digest) {
	r.creditRefStats.NacksReceived.Add(1)
	rep := types.ReplicaID(from)
	r.chainMu.Lock()
	wave, ok := r.creditWaves.waves[digest]
	r.chainMu.Unlock()
	if !ok {
		// Never signed here, or retired: nothing to answer with. For a real
		// wave this costs the beneficiary this replica's signature.
		return
	}
	var gs []creditRefGroup
	for i, j := range wave.jobs {
		if j.rep == rep {
			gs = append(gs, creditRefGroup{ChainIdx: uint32(i), Group: j.group})
		}
	}
	if len(gs) == 0 {
		return // NACK for a wave that had nothing addressed to the sender
	}
	def := wire.NewWriter(creditChainDefSize(wave.chain))
	appendCreditChainDef(def, wave.chain)
	_ = r.cfg.Mux.Send(from, transport.ChanCredit, def.Bytes())
	r.creditRefStats.DefsDemanded.Add(1)
	m := creditRefMsg{Signer: r.cfg.Self, ChainDigest: digest, Sig: wave.sig, Groups: gs}
	ref := wire.NewWriter(creditRefSize(m))
	appendCreditRef(ref, m)
	_ = r.cfg.Mux.Send(from, transport.ChanCredit, ref.Bytes())
	r.creditRefStats.RefsSent.Add(1)
}
