package sim

import (
	"testing"
	"time"

	"astro/internal/core"
	"astro/internal/shard"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

// TestClusterPartitionAndDelay drives the cluster's link faults — per-node
// delay, per-link delay, partition and heal — through the AstroCluster API
// only, and checks each by its effect on settlement over instant links.
func TestClusterPartitionAndDelay(t *testing.T) {
	c, err := NewAstroCluster(AstroOpts{
		Version:    core.AstroII,
		Topology:   shard.Topology{NumShards: 1, PerShard: 4},
		Latency:    memnet.Fixed(0),
		Bandwidth:  -1,
		BatchSize:  1,
		BatchDelay: time.Millisecond,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const d = 200 * time.Millisecond
	next := types.ClientID(0)
	// fresh returns a client never used before whose representative is r.
	fresh := func(r types.ReplicaID) types.ClientID {
		for next++; c.RepOf(next) != r; next++ {
		}
		return next
	}
	// settle has a fresh client of r pay once and returns how long the
	// confirmation took.
	settle := func(r types.ReplicaID) time.Duration {
		t.Helper()
		cl := c.Client(fresh(r))
		start := time.Now()
		id, err := cl.Pay(1<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WaitConfirm(id, 10*time.Second); err != nil {
			t.Fatalf("payment via replica %d: %v", r, err)
		}
		return time.Since(start)
	}
	ids := c.ReplicaIDs()
	slow, other := ids[0], ids[1]

	if e := settle(slow); e >= d {
		t.Fatalf("baseline settlement took %v", e)
	}

	c.Delay(slow, d)
	if e := settle(slow); e < d {
		t.Errorf("settled in %v under a %v node delay", e, d)
	}
	c.Delay(slow, 0)
	if e := settle(slow); e >= d {
		t.Errorf("settled in %v after the node delay was removed", e)
	}

	for _, p := range ids[1:] {
		c.LinkDelay(slow, p, d)
	}
	if e := settle(slow); e < d {
		t.Errorf("settled in %v with every link out of replica %d delayed by %v", e, slow, d)
	}
	if e := settle(other); e >= d {
		t.Errorf("replica %d settled in %v; the reverse links must stay fast", other, e)
	}
	for _, p := range ids[1:] {
		c.LinkDelay(slow, p, 0)
	}
	if e := settle(slow); e >= d {
		t.Errorf("settled in %v after the link delays were removed", e)
	}

	// The isolated replica must not learn a payment the rest settle; it
	// sends nothing itself while cut off, so it is whole again after the
	// heal.
	c.Partition(ids[:1], ids[1:])
	payer := fresh(other)
	cl := c.Client(payer)
	id, err := cl.Pay(1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatalf("majority side under partition: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := len(c.Replica(slow).XLogSnapshot(payer)); n != 0 {
		t.Errorf("isolated replica settled %d payments across the partition", n)
	}
	c.HealPartition()
	if e := settle(slow); e >= d {
		t.Errorf("settled in %v after the heal", e)
	}
}
