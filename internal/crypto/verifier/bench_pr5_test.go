package verifier

// PR 5 evidence benchmarks: the verifier's two execution backends on the
// same workload — lane runtime (unkeyed stealable tasks on internal/sched,
// the default) vs the PR 1 dedicated worker pool (WithWorkerPool). The
// workload is the replica's hottest call: a batch of real-ECDSA client
// signature checks fanned out and waited on. Memoization is disabled so
// every iteration pays full verification.
//
// Run with `go test -run=NONE -bench BenchmarkVerifyBackend ./internal/crypto/verifier/`.

import (
	"testing"

	"astro/internal/crypto"
	"astro/internal/types"
)

func benchVerifyBackend(b *testing.B, v *Verifier) {
	defer v.Close()
	keys := crypto.NewClientKeys()
	const n = 64
	sigs := make([]ClientSig, n)
	for i := 0; i < n; i++ {
		kp := crypto.MustGenerateKeyPair()
		keys.Add(types.ClientID(i), kp.Public())
		d := types.HashBytes([]byte{byte(i), byte(i >> 8)})
		sig, err := kp.Sign(d)
		if err != nil {
			b.Fatal(err)
		}
		sigs[i] = ClientSig{Client: types.ClientID(i), Digest: d, Sig: sig}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !v.VerifyClientBatch(keys, sigs).Wait() {
			b.Fatal("valid batch rejected")
		}
	}
	b.ReportMetric(float64(b.N*n), "sigs")
}

func BenchmarkVerifyBackendLanes(b *testing.B) {
	benchVerifyBackend(b, New(0, WithMemoSize(0)))
}

func BenchmarkVerifyBackendPool(b *testing.B) {
	benchVerifyBackend(b, New(0, WithMemoSize(0), WithWorkerPool()))
}
