package core

// PR 5 evidence benchmarks: settlement fan-out on pinned stripe lanes
// (persistent sched flows, zero goroutines per delivery) vs the PR 3
// spawn-per-delivery baseline (Config.SettleSpawn). The workload is one
// delivered batch touching every stripe — the worst case for fan-out
// overhead, since the per-stripe work is small relative to scheduling.
// On one core the two must hold parity; on multi-core the lanes win by
// goroutine-churn elimination and stripe→lane cache affinity.
//
// Run with `go test -run=NONE -bench BenchmarkSettleFanout ./internal/core/`.

import (
	"testing"

	"astro/internal/types"
)

func benchSettleFanout(b *testing.B, spawn bool) {
	r := newSettleReplica(b, DefaultStateStripes, spawn)
	const nClients = 64
	entries := make([]BatchEntry, nClients)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < nClients; c++ {
			entries[c] = BatchEntry{Payment: types.Payment{
				Spender:     types.ClientID(c + 1),
				Seq:         types.Seq(i + 1),
				Beneficiary: types.ClientID((c+1)%nClients + 1),
				Amount:      1,
			}}
		}
		if got := len(r.settleEntries(entries)); got != nClients {
			b.Fatalf("settled %d of %d", got, nClients)
		}
	}
	b.ReportMetric(float64(b.N*nClients), "payments")
}

func BenchmarkSettleFanoutLanes(b *testing.B) { benchSettleFanout(b, false) }
func BenchmarkSettleFanoutSpawn(b *testing.B) { benchSettleFanout(b, true) }
