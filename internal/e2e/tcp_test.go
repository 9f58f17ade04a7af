package e2e

import (
	"sync"
	"testing"
	"time"

	"astro/internal/core"
	"astro/internal/sim"
	"astro/internal/types"
)

// retry is the hardened-client policy every e2e scenario drives with:
// generous attempts, short per-attempt timeouts, sequence resync — the
// loop that rides out packet loss, partitions, and mid-run restarts.
var retry = core.RetryPolicy{Attempts: 15, Timeout: 2 * time.Second}

// TestTCPByzantineChaosMatrix re-runs the PR 7 behavior-at-f scenario
// matrix across real processes: four astro-node replicas on loopback
// TCP, each with light seeded chaos on its outbound link, replica 3
// running one Byzantine behavior via -fault. Hardened clients on the
// correct representatives must settle through it, and the correct
// replicas' quiescent snapshots must pass the full invariant battery.
func TestTCPByzantineChaosMatrix(t *testing.T) {
	kinds := []sim.FaultKind{
		sim.FaultEquivocate, sim.FaultWithholdCommits, sim.FaultForgeRefs,
		sim.FaultStaleView,
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			chaosArgs := func(seed string) []string {
				return []string{"-chaos", "drop=0.005,dup=0.005,delay=100us-500us", "-chaos-seed", seed}
			}
			c := startTCPCluster(t, 4, map[int][]string{
				0: chaosArgs("10"),
				1: chaosArgs("11"),
				2: chaosArgs("12"),
				3: append(chaosArgs("13"), "-fault", string(kind)),
			})

			// Clients 1 and 2 are represented by correct replicas 1 and 2
			// (repOf = id % 4); the faulty seat represents nobody here, so
			// even withhold-commits must not stall anyone.
			for _, id := range []types.ClientID{1, 2} {
				cl := c.client(id)
				for k := 0; k < 4; k++ {
					if _, err := cl.PayReliable(id%2+1, 1, retry); err != nil {
						t.Fatalf("client %d payment %d under %s: %v", id, k, kind, err)
					}
				}
			}

			// The audit quantifies over correct replicas, as the paper does.
			c.waitCleanAudit(map[types.ReplicaID]bool{3: true}, 30*time.Second)
		})
	}
}

// TestTCPPartitionHealKillRestart is the full crash-partition gauntlet on
// real TCP: every node runs the same -chaos-schedule, so the cluster
// partitions {0,1,2} | {3} in lockstep; mid-partition, replica 1 is
// killed with SIGKILL (no flush — the WAL is all that survives) and
// restarted against the same data directory while the partition still
// holds; the schedule then heals. Clients pump hardened payments
// throughout. Afterwards all four replicas — including the one that was
// partitioned and the one that died — must converge to snapshots that
// pass conservation, FIFO, and agreement.
func TestTCPPartitionHealKillRestart(t *testing.T) {
	schedule := []string{"-chaos-schedule", "1s:part=0 1 2|3;4s:heal", "-chaos-seed", "21"}
	c := startTCPCluster(t, 4, map[int][]string{
		0: schedule, 1: schedule, 2: schedule, 3: schedule,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	settled := make([]int, 4)
	// Tighter policy than the matrix test: a goroutine only notices stop
	// between payments, so one worst-case PayReliable bounds the drain
	// after the load window. 10×1s rides out the ~3s partition (during
	// which chaos cuts the minority side off from everyone, clients
	// included) without stretching shutdown past ~15s.
	pol := core.RetryPolicy{Attempts: 10, Timeout: time.Second}
	for _, id := range []types.ClientID{1, 2, 3} {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := c.client(id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.PayReliable(id%3+1, 1, pol); err == nil {
					settled[id]++
				}
			}
		}()
	}

	time.Sleep(1500 * time.Millisecond) // partition is up
	c.kill9(1)
	time.Sleep(1 * time.Second)
	c.restart(1)                // recovers from WAL + peer catch-up, no chaos second life
	time.Sleep(2 * time.Second) // heal fires at t=4s on the survivors

	time.Sleep(1500 * time.Millisecond) // post-heal load window
	close(stop)
	wg.Wait()

	for _, id := range []types.ClientID{1, 2, 3} {
		if settled[id] == 0 {
			t.Errorf("client %d settled nothing through the gauntlet", id)
		}
	}
	c.waitCleanAudit(nil, 45*time.Second)
}

// TestTCPHostileClientEdge points the Byzantine-client attack suite at a
// real deployment over TCP: the hostile identity seeds genuine settled
// history, then storms its representative with every attack class while
// an honest client sharing that representative keeps settling. The
// representative's edge counters (read over the wire with the stats
// query) must show the storm was absorbed, and the quiescent audit must
// be clean.
func TestTCPHostileClientEdge(t *testing.T) {
	c := startTCPCluster(t, 4, nil)

	// Client 9 and client 1 share representative 1 (repOf = id % 4).
	hostile := sim.NewHostileClient(9, c.repOf(9), 0, c.clientMux(9), nil)
	settled, frame, err := hostile.SettleOne(2, 5, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	go hostile.Storm(stop, settled, frame)

	honest := c.client(1)
	for k := 0; k < 5; k++ {
		if _, err := honest.PayReliable(2, 1, retry); err != nil {
			close(stop)
			t.Fatalf("honest payment %d starved by the storm: %v", k, err)
		}
	}
	close(stop)

	es, err := honest.QueryStats(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if es.Total() == 0 {
		t.Fatal("representative absorbed the storm without counting a single rejection")
	}
	if es.Conflicting == 0 || es.Spoofed == 0 || es.SeqZero == 0 ||
		es.FutureSeq == 0 || es.SettledReplay == 0 || es.Malformed == 0 ||
		es.CreditOutsider == 0 {
		t.Fatalf("attack classes not all counted at the representative: %+v", es)
	}
	c.waitCleanAudit(nil, 30*time.Second)
}
