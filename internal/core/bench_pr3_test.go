package core

// PR 3 evidence benchmarks.
//
//   - BenchmarkStripedSettle measures the settlement engine under
//     concurrent appliers on disjoint accounts: the single global lock
//     (the pre-striping engine, kept as NewStateStriped(..., 1)) against
//     the hash-sharded stripes. On multi-core the striped engine scales
//     toward min(stripes, cores)×; on one core it must hold parity.
//   - BenchmarkCreditSignPipeline compares the serial per-group ECDSA the
//     delivery goroutine used to pay per CREDIT against the pool-side
//     chain signer, where the credit groups of pending settlement waves
//     collapse into one signature over a digest chain (cap 32).
//
// Run with `go test -run=NONE -bench 'BenchmarkStripedSettle|BenchmarkCreditSignPipeline' ./internal/core/`.

import (
	"sync/atomic"
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

func benchStripedSettle(b *testing.B, stripes int) {
	s := NewStateStriped(AstroII, func(types.ClientID) types.Amount { return 1 << 40 }, nil, stripes)
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// One client per applier goroutine: payments touch disjoint
		// accounts, so stripes are the only contention left.
		c := types.ClientID(next.Add(1))
		seq := types.Seq(0)
		for pb.Next() {
			seq++
			s.ApplyEntry(BatchEntry{Payment: types.Payment{
				Spender: c, Seq: seq, Beneficiary: c + 1_000_000, Amount: 1,
			}})
		}
	})
}

func BenchmarkStripedSettle(b *testing.B) {
	b.Run("global-lock", func(b *testing.B) { benchStripedSettle(b, 1) })
	b.Run("striped", func(b *testing.B) { benchStripedSettle(b, DefaultStateStripes) })
}

// BenchmarkCreditSignPipeline/inline-ecdsa is the baseline: one ECDSA per
// credit group, serial — what the delivery goroutine executed in-line per
// beneficiary-representative group before the chain signer.
// BenchmarkCreditSignPipeline/chain-batched streams b.N settlement-wave
// groups through a replica's credit signer and measures wall time until
// CREDITs covering all of them have been emitted.
func BenchmarkCreditSignPipeline(b *testing.B) {
	mkGroup := func(i int) []types.Payment {
		return []types.Payment{{
			Spender: types.ClientID(i%64 + 1), Seq: types.Seq(i/64 + 1),
			Beneficiary: types.ClientID(i%64 + 2), Amount: 1,
		}}
	}
	b.Run("inline-ecdsa", func(b *testing.B) {
		kp := crypto.MustGenerateKeyPair()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := kp.Sign(CreditGroupDigest(mkGroup(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chain-batched", func(b *testing.B) {
		net := memnet.New()
		defer net.Close()
		replicaIDs := []types.ReplicaID{0, 1, 2, 3}
		registry := crypto.NewRegistry()
		keys := make([]*crypto.KeyPair, len(replicaIDs))
		for i := range keys {
			keys[i] = crypto.MustGenerateKeyPair()
			registry.Add(types.ReplicaID(i), keys[i].Public())
		}
		mux := transport.NewMux(net.Node(transport.ReplicaNode(1)))
		defer mux.Close()
		r, err := NewReplica(Config{
			Version:  AstroII,
			Self:     1,
			Replicas: replicaIDs,
			F:        1,
			Mux:      mux,
			Keys:     keys[1],
			Registry: registry,
		})
		if err != nil {
			b.Fatal(err)
		}

		// The destination representative counts emitted credit groups.
		var covered atomic.Int64
		allOut := make(chan struct{}, 1)
		target := int64(b.N)
		recv := transport.NewMux(net.Node(transport.ReplicaNode(0)))
		defer recv.Close()
		recv.Register(transport.ChanCredit, func(_ transport.NodeID, p []byte) {
			if len(p) == 0 {
				return
			}
			var n int64
			switch p[0] {
			case msgCreditSingle:
				n = 1
			case msgCreditBatch:
				m, err := decodeCreditBatch(p[1:])
				if err != nil {
					return
				}
				n = int64(len(m.Groups))
			}
			if covered.Add(n) >= target {
				select {
				case allOut <- struct{}{}:
				default:
				}
			}
		})

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.creditSigner.Enqueue(creditJob{rep: 0, group: mkGroup(i)})
		}
		select {
		case <-allOut:
		case <-time.After(2 * time.Minute):
			b.Fatalf("credits covered %d/%d", covered.Load(), b.N)
		}
		b.StopTimer()
		ops, groups := r.CreditSignStats()
		if ops > 0 {
			b.ReportMetric(float64(groups)/float64(ops), "credits/ECDSA")
		}
	})
}
