package astro

import (
	"testing"
	"time"
)

// TestByzantineFaultViaFacade: arm a Byzantine behavior through the
// public surface, run payments under a live audit, and confirm the
// f-tolerance claim holds — confirmed payments, zero violations.
func TestByzantineFaultViaFacade(t *testing.T) {
	sys, err := New(Options{Replicas: 4, Genesis: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	if err := sys.InjectFault(9, FaultEquivocate); err == nil {
		t.Fatal("unknown replica accepted")
	}
	if err := sys.InjectFault(sys.Replicas()[0], "no-such-kind"); err == nil {
		t.Fatal("unknown fault kind accepted")
	}

	var victim ReplicaID
	for _, r := range sys.Replicas() {
		if r != sys.RepresentativeOf(1) && r != sys.RepresentativeOf(2) {
			victim = r
			break
		}
	}
	stop := sys.StartAudit([]ClientID{1, 2}, victim)
	if err := sys.InjectFault(victim, FaultWithholdCommits); err != nil {
		t.Fatal(err)
	}

	alice := sys.Client(1)
	for i := 0; i < 3; i++ {
		id, err := alice.Pay(2, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
			t.Fatalf("payment %d under Byzantine fault: %v", i, err)
		}
	}
	rep := stop()
	if rep.Samples == 0 {
		t.Error("audit never sampled")
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation under f faulty: %s", v)
	}
	if err := sys.ClearFault(victim); err != nil {
		t.Fatal(err)
	}
}

// TestChaosViaFacade: a chaos profile on the public Options must perturb
// traffic (counters move) without breaking confirmation, and partitions
// plus asymmetric link delays must be drivable from the facade.
func TestChaosViaFacade(t *testing.T) {
	sys, err := New(Options{Replicas: 4, Genesis: 1000, Chaos: &ChaosProfile{
		Seed: 11,
		Rule: "drop=0.02,delay=100us-1ms",
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	alice := sys.Client(1)
	id, err := alice.Pay(2, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatalf("payment under chaos: %v", err)
	}
	if st := sys.ChaosStats(); st.Sent == 0 {
		t.Error("chaos controller saw no traffic")
	}

	ids := sys.Replicas()
	sys.SetLinkDelay(ids[0], ids[1], 2*time.Millisecond)
	sys.Partition(ids[:1], ids[1:])
	sys.HealPartition()
	sys.SetLinkDelay(ids[0], ids[1], 0)
	id, err = alice.Pay(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatalf("payment after heal: %v", err)
	}
}

// TestOnePartitionLayer: the facade's partition calls and the chaos
// profile's schedule drive the same controller. On a system built without
// Options.Chaos a facade partition is still counted by ChaosStats, and
// HealPartition heals a partition the schedule installed.
func TestOnePartitionLayer(t *testing.T) {
	plain, err := New(Options{Replicas: 4, Genesis: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	ids := plain.Replicas()
	plain.Partition(ids[:1], ids[1:])
	alice := plain.Client(firstClientOf(plain, ids[1]))
	id, err := alice.Pay(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatalf("majority side under partition: %v", err)
	}
	if plain.ChaosStats().Blocked == 0 {
		t.Error("a facade partition blocked no frame in ChaosStats")
	}
	plain.HealPartition()

	// The schedule splits 2|2 at once: no side has a 3-replica quorum.
	sys, err := New(Options{Replicas: 4, Genesis: 1000, Chaos: &ChaosProfile{
		Seed: 5, Schedule: "0s:part=0 1|2 3",
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ids = sys.Replicas()
	time.Sleep(20 * time.Millisecond) // let the 0s phase fire first
	stuck := sys.Client(firstClientOf(sys, ids[0]))
	if _, err := stuck.Pay(1000, 1); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); sys.ChaosStats().Blocked == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the scheduled partition never blocked a frame")
		}
	}
	sys.HealPartition()
	bob := sys.Client(firstClientOf(sys, ids[2]))
	id, err = bob.Pay(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatalf("payment after HealPartition of a scheduled partition: %v", err)
	}
}

// firstClientOf returns the lowest client identity represented by r.
func firstClientOf(sys *System, r ReplicaID) ClientID {
	id := ClientID(1)
	for sys.RepresentativeOf(id) != r {
		id++
	}
	return id
}
