package sim

import (
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/reconfig"
	"astro/internal/shard"
	"astro/internal/transport"
	"astro/internal/transport/chaos"
	"astro/internal/types"
)

// TestChaosLoadClean runs payments through a lossy, reordering, duplicating,
// corrupting network: every perturbation class engages (the controller's
// counters prove it) and the correct replicas keep every invariant — chaos
// may slow the system down, never make it wrong.
func TestChaosLoadClean(t *testing.T) {
	ctrl := chaos.NewController(42)
	ctrl.SetDefault(chaos.Rule{
		Drop:      0.03,
		Corrupt:   0.01,
		Duplicate: 0.02,
		Reorder:   0.05,
		DelayMin:  200 * time.Microsecond,
		DelayMax:  2 * time.Millisecond,
	})
	c, err := NewAstroCluster(AstroOpts{
		Version:    2, // core.AstroII
		Topology:   shard.Topology{NumShards: 1, PerShard: 4},
		Latency:    fastLatency(),
		BatchSize:  8,
		BatchDelay: time.Millisecond,
		Seed:       55,
		Chaos:      ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	aud := auditorFor(c)
	aud.Start()
	stop := make(chan struct{})
	wg := runLoad(c, stop)
	time.Sleep(700 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Let in-flight deliveries drain before the final sample.
	time.Sleep(100 * time.Millisecond)
	requireCleanReport(t, aud.Stop())

	st := ctrl.Stats()
	if st.Sent == 0 || st.Dropped == 0 || st.Delayed == 0 || st.Duplicated == 0 || st.Corrupted == 0 {
		t.Errorf("chaos never fully engaged: %+v", st)
	}
}

// TestChaosScheduledPartition drives a schedule: partition one replica
// mid-run, heal later, all from the same seeded controller. The system
// rides through with zero invariant violations.
func TestChaosScheduledPartition(t *testing.T) {
	ctrl := chaos.NewController(7)
	c, err := NewAstroCluster(AstroOpts{
		Version:    2,
		Topology:   shard.Topology{NumShards: 1, PerShard: 4},
		Latency:    fastLatency(),
		BatchSize:  8,
		BatchDelay: time.Millisecond,
		Seed:       56,
		Chaos:      ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	isolated := c.RepOf(2)
	var rest []transport.NodeID
	for _, id := range c.ReplicaIDs() {
		if id != isolated {
			rest = append(rest, transport.ReplicaNode(id))
		}
	}
	stopSched := ctrl.StartSchedule([]chaos.Phase{
		{At: 150 * time.Millisecond, Apply: func(ct *chaos.Controller) {
			ct.Partition([]transport.NodeID{transport.ReplicaNode(isolated)}, rest)
		}},
		{At: 450 * time.Millisecond, Apply: func(ct *chaos.Controller) {
			ct.Heal()
		}},
	})
	defer stopSched()

	aud := auditorFor(c)
	aud.Start()
	stop := make(chan struct{})
	wg := runLoad(c, stop)
	time.Sleep(800 * time.Millisecond)
	close(stop)
	wg.Wait()
	time.Sleep(100 * time.Millisecond)
	requireCleanReport(t, aud.Stop())

	if ctrl.Stats().Blocked == 0 {
		t.Error("partition never blocked a frame")
	}
}

// TestKillRestartUnderPartition combines the durability story with a
// network partition: one replica is killed and restarted from its WAL
// while a chaos partition separates another replica from the rest.
// After healing and anti-entropy, the cluster converges with FIFO logs
// and no money created.
func TestKillRestartUnderPartition(t *testing.T) {
	c := durableCluster(t, 33)
	victim := c.RepOf(1)
	isolated := c.RepOf(3)
	genesisTotal := types.Amount(4) << 40

	var rest []transport.NodeID
	for _, id := range c.ReplicaIDs() {
		if id != isolated {
			rest = append(rest, transport.NodeID(transport.ReplicaNode(id)))
		}
	}

	stop := make(chan struct{})
	wg := runLoad(c, stop)
	time.Sleep(150 * time.Millisecond)
	c.Chaos().Partition([]transport.NodeID{transport.ReplicaNode(isolated)}, rest)
	time.Sleep(100 * time.Millisecond)
	c.Kill(victim)
	time.Sleep(100 * time.Millisecond)
	if err := c.Restart(victim); err != nil {
		t.Fatalf("restart under partition: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	c.Chaos().Heal()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	if err := c.CatchUpAll(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, 10*time.Second)
	assertSafety(t, c)
	if total := spendableTotal(c); total > genesisTotal {
		t.Errorf("money created under partition: %d > %d", total, genesisTotal)
	}
}

// TestReconfigurationUnderFault is the capstone scenario: a durable
// cluster under live load, a Byzantine replica spamming stale-view and
// forged-install reconfiguration messages, asymmetric link delays — and
// in the middle of it a fresh replica joins through the consensusless
// protocol and another replica leaves by crash. The always-on auditor
// asserts conservation-of-money and per-client FIFO throughout.
func TestReconfigurationUnderFault(t *testing.T) {
	c := durableCluster(t, 44)
	staleSpammer := c.RepOf(2)
	leaver := c.RepOf(4)

	aud := auditorFor(c, staleSpammer)
	aud.Start()
	if err := c.ArmFault(staleSpammer, FaultStaleView); err != nil {
		t.Fatal(err)
	}
	// Asymmetric link degradation on top of the Byzantine fault.
	c.LinkDelay(0, 1, 5*time.Millisecond)
	c.LinkDelay(1, 0, 500*time.Microsecond)

	stop := make(chan struct{})
	wg := runLoad(c, stop)
	time.Sleep(200 * time.Millisecond)

	// Join: a brand-new replica announces itself to the live view and
	// gathers 2f+1 acks while the stale-view volleys try to confuse the
	// members.
	joiner := types.ReplicaID(100)
	members := c.ReplicaIDs()
	registry := c.cfgs[members[0]].Registry
	keys := crypto.NewSimKeyPair(joiner, []byte("astro-sim-master"))
	registry.AddSim(joiner)
	jmux := transport.NewMux(c.Chaos().Wrap(c.Net.Node(transport.ReplicaNode(joiner))))
	defer jmux.Close()
	res, err := reconfig.Join(reconfig.JoinConfig{
		Self: joiner, Mux: jmux, Keys: keys, Registry: registry,
		CurrentView: reconfig.View{Num: 1, Members: members},
		Timeout:     15 * time.Second,
	})
	if err != nil {
		t.Fatalf("join under fault: %v", err)
	}
	if res.View.Num < 2 {
		t.Errorf("join installed view %d, want >= 2", res.View.Num)
	}

	// Leave: crash-stop a member while the load keeps running.
	time.Sleep(100 * time.Millisecond)
	c.Kill(leaver)
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	time.Sleep(100 * time.Millisecond)

	rep := aud.Stop()
	requireCleanReport(t, rep)
	if beh, ok := c.Behavior(staleSpammer).(*StaleViewReconfig); !ok || beh.Volleys.Load() == 0 {
		t.Error("stale-view attack never engaged during the scenario")
	}
}
