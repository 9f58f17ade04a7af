package astro

import (
	"runtime"
	"testing"
	"time"
)

func TestSystemQuickstart(t *testing.T) {
	sys, err := New(Options{Replicas: 4, Genesis: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	alice := sys.Client(1)
	id, err := alice.Pay(2, 250)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if bal := sys.Balance(1); bal != 750 {
		t.Errorf("balance(1) = %d, want 750", bal)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sys.Balance(2) != 1250 {
		if time.Now().After(deadline) {
			t.Fatalf("balance(2) = %d, want 1250", sys.Balance(2))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSystemAstroI(t *testing.T) {
	sys, err := New(Options{Version: AstroI, Replicas: 4, Genesis: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	alice := sys.Client(1)
	id, err := alice.Pay(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSystemSharded(t *testing.T) {
	sys, err := New(Options{
		Shards:  Topology{NumShards: 2, PerShard: 4},
		Genesis: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// Clients 0 and 1 land in different shards.
	alice := sys.Client(0)
	id, err := alice.Pay(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sys.Balance(1) != 1100 {
		if time.Now().After(deadline) {
			t.Fatalf("cross-shard balance = %d", sys.Balance(1))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestShardingRequiresAstroII(t *testing.T) {
	_, err := New(Options{Version: AstroI, Shards: Topology{NumShards: 2, PerShard: 4}})
	if err == nil {
		t.Fatal("sharded Astro I accepted")
	}
}

func TestAudit(t *testing.T) {
	sys, err := New(Options{Replicas: 4, Genesis: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	alice := sys.Client(1)
	for i := 0; i < 3; i++ {
		id, err := alice.Pay(2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		allOK := true
		for _, r := range sys.Replicas() {
			log, ok := sys.Audit(r, 1)
			if !ok {
				t.Fatalf("replica %d: inconsistent xlog", r)
			}
			if len(log) != 3 {
				allOK = false
			}
		}
		if allOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("xlogs did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := sys.Audit(99, 1); ok {
		t.Error("audit of unknown replica succeeded")
	}
}

func TestFaultInjection(t *testing.T) {
	sys, err := New(Options{Replicas: 4, Genesis: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	alice := sys.Client(1)
	// Crash a replica that is not Alice's representative.
	var victim ReplicaID
	for _, r := range sys.Replicas() {
		if r != sys.RepresentativeOf(1) {
			victim = r
			break
		}
	}
	sys.Crash(victim)
	id, err := alice.Pay(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatalf("payment with one crashed replica: %v", err)
	}
}

// TestReplicaReadsDuringRestart reads replica handles through the facade
// while Restart replaces one; run under -race it catches an unlocked read
// of the cluster's replica map.
func TestReplicaReadsDuringRestart(t *testing.T) {
	sys, err := New(Options{Replicas: 4, Genesis: 1000, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Kill(0)
	done := make(chan error, 1)
	go func() { done <- sys.Restart(0) }()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		_ = sys.Replica(0)
		sys.Audit(0, 1)
		sys.Balance(4)
		runtime.Gosched()
	}
}
