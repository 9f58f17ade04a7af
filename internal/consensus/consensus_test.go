package consensus

import (
	"testing"
	"time"

	"astro/internal/transport"
	"astro/internal/transport/chaos"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

type cluster struct {
	t        *testing.T
	net      *memnet.Network
	ctl      *chaos.Controller // every endpoint rides it; delays are its rules
	replicas []*Replica
	ids      []types.ReplicaID
	f        int
}

func genesis100(types.ClientID) types.Amount { return 100 }

func newCluster(t *testing.T, n int, opts ...func(*Config)) *cluster {
	t.Helper()
	c := &cluster{
		t:   t,
		net: memnet.New(memnet.WithSeed(11)),
		ctl: chaos.NewController(11),
		f:   types.MaxFaults(n),
	}
	t.Cleanup(c.net.Close)
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, types.ReplicaID(i))
	}
	for i := 0; i < n; i++ {
		mux := transport.NewMux(c.ctl.Wrap(c.net.Node(transport.ReplicaNode(types.ReplicaID(i)))))
		t.Cleanup(mux.Close) // stops the replica's timers
		cfg := Config{
			Self:               types.ReplicaID(i),
			Replicas:           c.ids,
			F:                  c.f,
			Mux:                mux,
			Genesis:            genesis100,
			BatchSize:          4,
			BatchDelay:         2 * time.Millisecond,
			RequestTimeout:     400 * time.Millisecond,
			ViewChangeSyncCost: 50 * time.Millisecond,
		}
		for _, o := range opts {
			o(&cfg)
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		c.replicas = append(c.replicas, r)
	}
	return c
}

func (c *cluster) client(id types.ClientID) *Client {
	mux := transport.NewMux(c.ctl.Wrap(c.net.Node(transport.ClientNode(id))))
	return NewClient(id, c.ids, c.f, mux)
}

func (c *cluster) waitExecuted(n uint64, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		count := 0
		for _, r := range c.replicas {
			if r.ExecutedCount() >= n {
				count++
			}
		}
		// Every caller asserts per-replica state on ALL replicas right
		// after returning, so wait for all of them (no caller crashes
		// nodes); with channels dispatching concurrently, the last
		// replica's commit can otherwise still be in flight when the
		// quorum has already executed.
		if count == len(c.replicas) {
			return
		}
		if time.Now().After(deadline) {
			var got []uint64
			for _, r := range c.replicas {
				got = append(got, r.ExecutedCount())
			}
			c.t.Fatalf("timeout: executed = %v, want %d", got, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConsensusBasicPayment(t *testing.T) {
	c := newCluster(t, 4)
	alice := c.client(1)
	id, err := alice.Pay(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatalf("confirm: %v", err)
	}
	c.waitExecuted(1, 5*time.Second)
	for i, r := range c.replicas {
		if bal := r.Balance(1); bal != 70 {
			t.Errorf("replica %d: balance(1) = %d", i, bal)
		}
		if bal := r.Balance(2); bal != 130 {
			t.Errorf("replica %d: balance(2) = %d", i, bal)
		}
	}
}

func TestConsensusSequentialPayments(t *testing.T) {
	c := newCluster(t, 4)
	alice := c.client(1)
	for i := 0; i < 10; i++ {
		id, err := alice.Pay(2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
			t.Fatalf("payment %d: %v", i, err)
		}
	}
	c.waitExecuted(10, 5*time.Second)
	for i, r := range c.replicas {
		if bal := r.Balance(1); bal != 50 {
			t.Errorf("replica %d: balance = %d", i, bal)
		}
	}
}

func TestConsensusMultipleClients(t *testing.T) {
	c := newCluster(t, 4)
	const nClients = 6
	done := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cl := c.client(types.ClientID(i + 1))
		go func(cl *Client) {
			for j := 0; j < 4; j++ {
				id, err := cl.Pay(types.ClientID(50), 2)
				if err != nil {
					done <- err
					return
				}
				if err := cl.WaitConfirm(id, 10*time.Second); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(cl)
	}
	for i := 0; i < nClients; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c.waitExecuted(nClients*4, 5*time.Second)
}

func TestViewChangeOnLeaderCrash(t *testing.T) {
	c := newCluster(t, 4)
	alice := c.client(1)

	// Warm up through the initial leader (replica 0).
	id, err := alice.Pay(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash the leader, then submit: followers must elect a new leader
	// and execute.
	c.net.Crash(transport.ReplicaNode(0))
	id, err = alice.Pay(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 20*time.Second); err != nil {
		t.Fatalf("payment after leader crash never confirmed: %v", err)
	}
	// At least one survivor went through a view change.
	changed := false
	for i := 1; i < 4; i++ {
		if c.replicas[i].ViewChanges() > 0 {
			changed = true
		}
	}
	if !changed {
		t.Error("no view change recorded despite leader crash")
	}
}

func TestViewChangePreservesPreparedBatch(t *testing.T) {
	// Execute payments, crash the leader mid-stream, keep submitting;
	// every confirmed payment must have executed at a quorum and no
	// balance may be double-applied.
	c := newCluster(t, 4)
	alice := c.client(1)
	for i := 0; i < 3; i++ {
		id, err := alice.Pay(2, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	c.net.Crash(transport.ReplicaNode(0))
	for i := 0; i < 3; i++ {
		id, err := alice.Pay(2, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.WaitConfirm(id, 20*time.Second); err != nil {
			t.Fatalf("post-crash payment %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := 0
		for i := 1; i < 4; i++ {
			if c.replicas[i].Balance(1) == 40 && c.replicas[i].Balance(2) == 160 {
				ok++
			}
		}
		if ok == 3 {
			break
		}
		if time.Now().After(deadline) {
			for i := 1; i < 4; i++ {
				t.Logf("replica %d: bal1=%d bal2=%d", i, c.replicas[i].Balance(1), c.replicas[i].Balance(2))
			}
			t.Fatal("balances did not converge after view change")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSlowLeaderDegradesWithoutViewChange(t *testing.T) {
	// With a timeout far above the injected delay, a slow leader causes
	// degradation but no view change (the paper's Consensus-Leader-A).
	c := newCluster(t, 4, func(cfg *Config) {
		cfg.RequestTimeout = 5 * time.Second
	})
	alice := c.client(1)
	id, err := alice.Pay(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	c.ctl.SetNodeRule(transport.ReplicaNode(0), chaos.Rule{DelayMin: 150 * time.Millisecond, DelayMax: 150 * time.Millisecond})
	start := time.Now()
	id, err = alice.Pay(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Errorf("slow leader did not slow execution: %v", elapsed)
	}
	for _, r := range c.replicas {
		if r.ViewChanges() != 0 {
			t.Error("unexpected view change under loose timeout")
		}
	}
}

func TestSlowLeaderTriggersViewChangeUnderTightTimeout(t *testing.T) {
	// With the delay far above the timeout, replicas suspect the leader
	// (the paper's Consensus-Leader-B).
	c := newCluster(t, 4, func(cfg *Config) {
		cfg.RequestTimeout = 200 * time.Millisecond
	})
	alice := c.client(1)
	id, err := alice.Pay(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	c.ctl.SetNodeRule(transport.ReplicaNode(0), chaos.Rule{DelayMin: 2 * time.Second, DelayMax: 2 * time.Second})
	id, err = alice.Pay(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.WaitConfirm(id, 30*time.Second); err != nil {
		t.Fatalf("payment under slow leader never confirmed: %v", err)
	}
	changed := false
	for i := 1; i < 4; i++ {
		if c.replicas[i].ViewChanges() > 0 {
			changed = true
		}
	}
	if !changed {
		t.Error("tight timeout produced no view change under 2s leader delay")
	}
}

func TestConsensusConfigValidation(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	mux := transport.NewMux(net.Node(0))
	if _, err := New(Config{Self: 0, Replicas: []types.ReplicaID{0, 1}, F: 1, Mux: mux}); err == nil {
		t.Error("sub-quorum config accepted")
	}
	if _, err := New(Config{Self: 0, Replicas: []types.ReplicaID{0, 1, 2, 3}, F: 1}); err == nil {
		t.Error("nil mux accepted")
	}
}

func TestCodecRoundTrips(t *testing.T) {
	batch := []types.Payment{
		{Spender: 1, Seq: 1, Beneficiary: 2, Amount: 3},
		{Spender: 4, Seq: 9, Beneficiary: 5, Amount: 6},
	}
	if _, _, _, ok := decodePrePrepare(encodePrePrepare(3, 7, batch)[1:]); !ok {
		t.Error("preprepare round trip failed")
	}
	v, s, batch2, _ := decodePrePrepare(encodePrePrepare(3, 7, batch)[1:])
	if v != 3 || s != 7 || len(batch2) != 2 || batch2[1] != batch[1] {
		t.Error("preprepare fields wrong")
	}
	d := batchDigest(batch)
	v, s, d2, ok := decodePhase(encodePrepare(1, 2, d)[1:])
	if !ok || v != 1 || s != 2 || d2 != d {
		t.Error("phase round trip failed")
	}
	vc := &viewChangeMsg{NewView: 5, LastExec: 2, Prepared: []preparedEntry{{Seq: 3, Batch: batch}}}
	vc2, ok := decodeViewChange(encodeViewChange(vc)[1:])
	if !ok || vc2.NewView != 5 || vc2.LastExec != 2 || len(vc2.Prepared) != 1 || vc2.Prepared[0].Seq != 3 {
		t.Error("viewchange round trip failed")
	}
	view, entries, ok := decodeNewView(encodeNewView(9, vc.Prepared)[1:])
	if !ok || view != 9 || len(entries) != 1 || len(entries[0].Batch) != 2 {
		t.Error("newview round trip failed")
	}
	id, ok := decodeClientConfirm(encodeClientConfirm(types.PaymentID{Spender: 8, Seq: 4}))
	if !ok || id.Spender != 8 || id.Seq != 4 {
		t.Error("confirm round trip failed")
	}
	p, ok := decodeClientSubmit(encodeClientSubmit(batch[0]))
	if !ok || p != batch[0] {
		t.Error("submit round trip failed")
	}
	if _, _, _, ok := decodePrePrepare([]byte{1, 2}); ok {
		t.Error("garbage preprepare accepted")
	}
	if _, ok := decodeViewChange([]byte{0xFF}); ok {
		t.Error("garbage viewchange accepted")
	}
}
