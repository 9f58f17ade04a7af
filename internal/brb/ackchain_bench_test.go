package brb

// Benchmarks for the asynchronous/batched ack-sign pipeline.
//
//   - BenchmarkAckSignPipeline compares the serial per-ack ECDSA a
//     dispatch-goroutine signer pays (the pre-PR2 inline path) against the
//     pool-side signer fed by streaming prepares, where pending acks
//     collapse into hash-chain signatures under load.
//   - BenchmarkSignedN4ECDSA runs the full protocol with real ECDSA keys
//     and reports the measured amortization (acks covered per signing
//     operation).

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

// BenchmarkAckSignPipeline/inline-ecdsa is the baseline: one ECDSA per
// ack, serial — what the dispatch goroutine used to execute in-line per
// prepare. BenchmarkAckSignPipeline/async-batched streams b.N prepares
// through a replica and measures wall time until acks covering all of
// them have been emitted (signing on the pool, chains under load).
func BenchmarkAckSignPipeline(b *testing.B) {
	b.Run("inline-ecdsa", func(b *testing.B) {
		kp := crypto.MustGenerateKeyPair()
		d := SignedDigest(0, 1, []byte("payload"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := kp.Sign(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("async-batched", func(b *testing.B) {
		net := memnet.New()
		defer net.Close()
		registry := crypto.NewRegistry()
		var keys []*crypto.KeyPair
		peers := make([]types.ReplicaID, 4)
		for i := range peers {
			peers[i] = types.ReplicaID(i)
			keys = append(keys, testKeys(types.ReplicaID(i)))
			registry.Add(types.ReplicaID(i), keys[i].Public())
		}
		mux := transport.NewMux(net.Node(transport.ReplicaNode(1)))
		defer mux.Close()
		s, err := NewSigned(Config{
			Mux: mux, Self: 1, Peers: peers, F: 1,
			Deliver:  func(types.ReplicaID, uint64, []byte) {},
			Keys:     keys[1],
			Registry: registry,
		})
		if err != nil {
			b.Fatal(err)
		}
		origin := transport.NewMux(net.Node(transport.ReplicaNode(0)))
		defer origin.Close()
		var covered atomic.Int64
		ackedAll := make(chan struct{}, 1)
		target := int64(b.N)
		origin.Register(transport.ChanBRB, func(_ transport.NodeID, p []byte) {
			chain, _, ok := DecodeAckBatch(p)
			if !ok {
				return
			}
			if covered.Add(int64(len(chain))) >= target {
				select {
				case ackedAll <- struct{}{}:
				default:
				}
			}
		})

		payload := make([]byte, 8192)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := origin.Send(transport.ReplicaNode(1), transport.ChanBRB, signedPrepare(0, 1, uint64(i+1), payload)); err != nil {
				b.Fatal(err)
			}
		}
		select {
		case <-ackedAll:
		case <-time.After(2 * time.Minute):
			b.Fatalf("acks covered %d/%d", covered.Load(), b.N)
		}
		b.StopTimer()
		ops, acks := s.AckSignStats()
		if ops > 0 {
			b.ReportMetric(float64(acks)/float64(ops), "acks/ECDSA")
		}
	})
}

// BenchmarkSignedN4ECDSA is the end-to-end settlement path with real
// ECDSA signatures at N=4: broadcast, chain-batched acks, extended
// commits, FIFO delivery. The acks/ECDSA metric shows how far batch
// signing compresses the sign-side cost under load.
func BenchmarkSignedN4ECDSA(b *testing.B) {
	net := memnet.New()
	defer net.Close()
	peers := make([]types.ReplicaID, 4)
	registry := crypto.NewRegistry()
	var keys []*crypto.KeyPair
	for i := range peers {
		peers[i] = types.ReplicaID(i)
		keys = append(keys, crypto.MustGenerateKeyPair())
		registry.Add(types.ReplicaID(i), keys[i].Public())
	}
	var mu sync.Mutex
	delivered := 0
	cond := sync.NewCond(&mu)
	var bcs []*Signed
	for i := 0; i < 4; i++ {
		mux := transport.NewMux(net.Node(transport.ReplicaNode(types.ReplicaID(i))))
		s, err := NewSigned(Config{
			Mux: mux, Self: types.ReplicaID(i), Peers: peers, F: 1,
			Deliver: func(types.ReplicaID, uint64, []byte) {
				mu.Lock()
				delivered++
				cond.Broadcast()
				mu.Unlock()
			},
			Keys:     keys[i],
			Registry: registry,
		})
		if err != nil {
			b.Fatal(err)
		}
		bcs = append(bcs, s)
	}
	wait := func(total int) {
		mu.Lock()
		for delivered < total {
			cond.Wait()
		}
		mu.Unlock()
	}

	payload := make([]byte, 8192) // a 256-payment batch
	const window = 64
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bcs[0].Broadcast(payload); err != nil {
			b.Fatal(err)
		}
		if i >= window {
			wait((i - window + 1) * 4)
		}
	}
	wait(b.N * 4)
	b.StopTimer()
	var ops, acks uint64
	for _, s := range bcs {
		o, a := s.AckSignStats()
		ops += o
		acks += a
	}
	if ops > 0 {
		b.ReportMetric(float64(acks)/float64(ops), "acks/ECDSA")
	}
}
