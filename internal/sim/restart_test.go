package sim

import (
	"sync"
	"testing"
	"time"

	"astro/internal/core"
	"astro/internal/shard"
	"astro/internal/types"
)

// durableCluster builds a 4-node Astro II deployment with file-backed
// WALs under a test temp dir and an aggressive compaction cadence.
func durableCluster(t *testing.T, seed uint64) *AstroCluster {
	t.Helper()
	c, err := NewAstroCluster(AstroOpts{
		Version:          core.AstroII,
		Topology:         shard.Topology{NumShards: 1, PerShard: 4},
		Latency:          fastLatency(),
		BatchSize:        8,
		BatchDelay:       time.Millisecond,
		Seed:             seed,
		DataDir:          t.TempDir(),
		WALSnapshotEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// runLoad drives fixed-shape closed-loop payments (client i always pays
// client i%4+1 one unit) from 4 clients until stop closes. Fixed shapes
// make a reissued sequence number byte-identical to the original, so a
// payment endorsed just before a kill can be re-driven after the restart
// without tripping the no-double-endorsement rule.
func runLoad(c *AstroCluster, stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 1; i <= 4; i++ {
		cl := c.Client(types.ClientID(i))
		ben := types.ClientID(i%4 + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id, err := cl.Pay(ben, 1)
				if err != nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if err := cl.WaitConfirm(id, 500*time.Millisecond); err != nil {
					// The representative may be down; resynchronize the
					// sequence number with whatever it (or its restarted
					// incarnation) has settled and re-drive.
					cl.SyncSeq(time.Second)
				}
			}
		}()
	}
	return &wg
}

// spendableTotal sums every client's balance as seen by its own
// representative — the only replica that also counts dependency
// certificates awaiting attachment.
func spendableTotal(c *AstroCluster) types.Amount {
	var sum types.Amount
	for i := 1; i <= 4; i++ {
		cl := types.ClientID(i)
		sum += c.Replicas[c.RepOf(cl)].Balance(cl)
	}
	return sum
}

// waitConverged polls until all replicas agree on every client's xlog.
func waitConverged(t *testing.T, c *AstroCluster, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
	check:
		for i := 1; i <= 4; i++ {
			cl := types.ClientID(i)
			var want []types.Payment
			for _, r := range c.Replicas {
				log := r.XLogSnapshot(cl)
				if want == nil {
					want = log
					continue
				}
				if len(log) != len(want) {
					ok = false
					break check
				}
				for j := range log {
					if log[j] != want[j] {
						ok = false
						break check
					}
				}
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for i := 1; i <= 4; i++ {
				cl := types.ClientID(i)
				for id, r := range c.Replicas {
					t.Logf("replica %d: xlog(%d) len %d", id, cl, len(r.XLogSnapshot(cl)))
				}
			}
			t.Fatal("xlogs never converged across replicas")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertSafety checks the restart-independent invariants on every
// replica: per-spender FIFO sequence numbers and zero observed
// equivocations (a replica that forgot an endorsement across a restart
// and endorsed a conflicting payment would surface here).
func assertSafety(t *testing.T, c *AstroCluster) {
	t.Helper()
	for id, r := range c.Replicas {
		for i := 1; i <= 4; i++ {
			cl := types.ClientID(i)
			for j, p := range r.XLogSnapshot(cl) {
				if p.Seq != types.Seq(j+1) {
					t.Fatalf("replica %d: client %d xlog[%d].Seq = %d, want %d (FIFO hole)",
						id, cl, j, p.Seq, j+1)
				}
			}
		}
		if cnt := r.Counters(); cnt.Conflicts != 0 {
			t.Errorf("replica %d: %d equivocation conflicts", id, cnt.Conflicts)
		}
	}
}

// TestKillRestartMidLoad kills a representative mid-load with no flush,
// restarts it from its WAL while the load keeps running, and checks the
// cluster converges with FIFO xlogs, no double endorsements, and money
// conserved: after anti-entropy the restarted representative re-requests
// CREDIT signatures for any of its clients' settled-but-uncovered credits
// (CREDITREDO), so even certificates lost in the unsynced tail are
// eventually re-accumulated.
func TestKillRestartMidLoad(t *testing.T) {
	c := durableCluster(t, 11)
	victim := c.RepOf(1)
	genesisTotal := types.Amount(4) << 40

	stop := make(chan struct{})
	wg := runLoad(c, stop)
	time.Sleep(250 * time.Millisecond)
	c.Kill(victim)
	time.Sleep(250 * time.Millisecond)
	if err := c.Restart(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	// A final catch-up closes the window for deliveries committed between
	// the kill and the restart-time fetch.
	if err := c.CatchUpAll(); err != nil {
		t.Fatal(err)
	}

	waitConverged(t, c, 10*time.Second)
	assertSafety(t, c)
	deadline := time.Now().Add(10 * time.Second)
	for {
		total := spendableTotal(c)
		if total > genesisTotal {
			t.Fatalf("money created: spendable total %d > genesis %d", total, genesisTotal)
		}
		if total == genesisTotal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spendable deficit %d never recovered (CREDITREDO failed)",
				genesisTotal-total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Replicas[victim].WALErr(); err != nil {
		t.Errorf("restarted replica WAL error: %v", err)
	}
}

// TestKillRestartConservation kills from a quiesced (hence fully synced —
// the WAL tail-syncs as soon as appends drain) state, restarts under new
// load, and asserts strict conservation of money: every unit of genesis
// is spendable somewhere once traffic quiesces again.
func TestKillRestartConservation(t *testing.T) {
	c := durableCluster(t, 12)
	victim := c.RepOf(1)
	genesisTotal := types.Amount(4) << 40

	waitQuiescedConservation := func(phase string) {
		deadline := time.Now().Add(10 * time.Second)
		for spendableTotal(c) != genesisTotal {
			if time.Now().After(deadline) {
				t.Fatalf("%s: spendable total %d never returned to genesis %d",
					phase, spendableTotal(c), genesisTotal)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	stop := make(chan struct{})
	wg := runLoad(c, stop)
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	waitConverged(t, c, 10*time.Second)
	waitQuiescedConservation("pre-kill")

	c.Kill(victim)
	stop = make(chan struct{})
	wg = runLoad(c, stop)
	time.Sleep(200 * time.Millisecond)
	if err := c.Restart(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	var donor types.ReplicaID
	for id := range c.Replicas {
		if id != victim {
			donor = id
			break
		}
	}
	if err := c.AntiEntropy(victim, donor); err != nil {
		t.Fatalf("anti-entropy: %v", err)
	}
	waitConverged(t, c, 10*time.Second)
	assertSafety(t, c)
	waitQuiescedConservation("post-restart")
}

// TestKillAtRandomPoint varies the kill instant across runs — the
// property half of the crash-recovery story: whatever the cut, the
// restarted replica must come back without safety violations.
func TestKillAtRandomPoint(t *testing.T) {
	for i, killAfter := range []time.Duration{
		30 * time.Millisecond, 110 * time.Millisecond, 260 * time.Millisecond,
	} {
		c := durableCluster(t, 20+uint64(i))
		victim := c.RepOf(1)
		genesisTotal := types.Amount(4) << 40

		stop := make(chan struct{})
		wg := runLoad(c, stop)
		time.Sleep(killAfter)
		c.Kill(victim)
		time.Sleep(50 * time.Millisecond)
		close(stop)
		wg.Wait()

		if err := c.Restart(victim); err != nil {
			t.Fatalf("kill at %v: restart: %v", killAfter, err)
		}
		// Catch up every replica, not just the victim: a commit the victim
		// sent just before dying can reference an ack chain that only the
		// victim could define, so the replicas that lacked the chain NACKed
		// an origin that never answers.
		if err := c.CatchUpAll(); err != nil {
			t.Fatalf("kill at %v: catch-up: %v", killAfter, err)
		}
		waitConverged(t, c, 10*time.Second)
		assertSafety(t, c)
		if total := spendableTotal(c); total > genesisTotal {
			t.Errorf("kill at %v: money created: %d > %d", killAfter, total, genesisTotal)
		}
	}
}

// TestTimelineRestart runs the experiment-harness integration: the
// throughput timeline with a kill -9 plus WAL restart mid-window. The
// curve must show throughput before the fault and after the recovery.
func TestTimelineRestart(t *testing.T) {
	res, err := Timeline(TimelineConfig{
		System:       SystemAstroII,
		N:            4,
		Clients:      4,
		Window:       3 * time.Second,
		FaultAt:      time.Second,
		Fault:        FaultRestart,
		RestartAfter: 500 * time.Millisecond,
		Target:       TargetRandom,
		BinWidth:     250 * time.Millisecond,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rates) == 0 {
		t.Fatal("no bins")
	}
	var pre float64
	for _, r := range res.Rates[:3] {
		pre += r
	}
	if pre == 0 {
		t.Error("no pre-fault throughput")
	}
	var tail float64
	for _, r := range res.Rates[len(res.Rates)-4:] {
		tail += r
	}
	if tail == 0 {
		t.Error("no throughput after restart: recovery failed")
	}
}

// TestRestartRequiresDataDir pins the API contract for memory-only
// clusters and the consensus baseline.
func TestRestartRequiresDataDir(t *testing.T) {
	c, err := NewAstroCluster(AstroOpts{
		Version:  core.AstroII,
		Topology: shard.Topology{NumShards: 1, PerShard: 4},
		Latency:  fastLatency(),
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Restart(0); err == nil {
		t.Error("Restart on a memory-only cluster should fail")
	}
	if _, err := Timeline(TimelineConfig{
		System: SystemConsensus, N: 4, Clients: 1,
		Window: time.Second, Fault: FaultRestart,
	}); err == nil {
		t.Error("consensus FaultRestart should be rejected")
	}
}
