package core

import (
	"testing"
	"time"

	"astro/internal/crypto"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

// cluster is a single-shard Astro deployment on a memnet for tests.
type cluster struct {
	t        *testing.T
	net      *memnet.Network
	replicas []*Replica
	clients  map[types.ClientID]*Client
	repOf    func(types.ClientID) types.ReplicaID
	keys     []*crypto.KeyPair
	cfgs     []Config // as passed to NewReplica; restart tests rebuild from these
}

func newCluster(t *testing.T, version Version, n int, genesis func(types.ClientID) types.Amount, opts ...func(*Config)) *cluster {
	t.Helper()
	return newClusterOn(t, memnet.New(memnet.WithSeed(7)), nil, version, n, genesis, opts...)
}

// newClusterOn builds the cluster on net, passing each replica's endpoint
// through wrap (nil leaves it bare) — the hook wire-level tests observe
// the replicas' sends through.
func newClusterOn(t *testing.T, net *memnet.Network, wrap func(transport.Endpoint) transport.Endpoint, version Version, n int, genesis func(types.ClientID) types.Amount, opts ...func(*Config)) *cluster {
	t.Helper()
	c := &cluster{
		t:       t,
		net:     net,
		clients: make(map[types.ClientID]*Client),
	}
	t.Cleanup(c.net.Close)

	replicaIDs := make([]types.ReplicaID, n)
	for i := range replicaIDs {
		replicaIDs[i] = types.ReplicaID(i)
	}
	f := types.MaxFaults(n)

	registry := crypto.NewRegistry()
	keys := make([]*crypto.KeyPair, n)
	for i := range keys {
		keys[i] = crypto.MustGenerateKeyPair()
		registry.Add(types.ReplicaID(i), keys[i].Public())
	}
	c.keys = keys
	master := []byte("test-master")

	c.repOf = func(cl types.ClientID) types.ReplicaID {
		return replicaIDs[uint64(cl)%uint64(n)]
	}

	for i := 0; i < n; i++ {
		self := types.ReplicaID(i)
		ep := c.net.Node(transport.ReplicaNode(self))
		if wrap != nil {
			ep = wrap(ep)
		}
		mux := transport.NewMux(ep)
		cfg := Config{
			Version:    version,
			Self:       self,
			Replicas:   replicaIDs,
			F:          f,
			Mux:        mux,
			RepOf:      c.repOf,
			Genesis:    genesis,
			BatchSize:  4,
			BatchDelay: 2 * time.Millisecond,
			Auth:       crypto.NewLinkAuthenticator(self, master),
			Keys:       keys[i],
			Registry:   registry,
		}
		for _, o := range opts {
			o(&cfg)
		}
		r, err := NewReplica(cfg)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		c.replicas = append(c.replicas, r)
		c.cfgs = append(c.cfgs, cfg)
	}
	return c
}

func (c *cluster) client(id types.ClientID) *Client {
	if cl, ok := c.clients[id]; ok {
		return cl
	}
	mux := transport.NewMux(c.net.Node(transport.ClientNode(id)))
	cl := NewClient(id, c.repOf, mux)
	c.clients[id] = cl
	return cl
}

// payAndWait submits a payment and waits for its confirmation.
func (c *cluster) payAndWait(cl *Client, b types.ClientID, x types.Amount) {
	c.t.Helper()
	id, err := cl.Pay(b, x)
	if err != nil {
		c.t.Fatalf("pay: %v", err)
	}
	if err := cl.WaitConfirm(id, 10*time.Second); err != nil {
		c.t.Fatalf("confirm %v: %v", id, err)
	}
}

// waitSettledEverywhere waits until all replicas report at least n settles.
func (c *cluster) waitSettledEverywhere(n uint64, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, r := range c.replicas {
			if r.SettledCount() < n {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			counts := make([]uint64, len(c.replicas))
			for i, r := range c.replicas {
				counts[i] = r.SettledCount()
			}
			c.t.Fatalf("timeout waiting for %d settles; have %v", n, counts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func eachVersion(t *testing.T, f func(t *testing.T, v Version)) {
	t.Run("astro1", func(t *testing.T) { f(t, AstroI) })
	t.Run("astro2", func(t *testing.T) { f(t, AstroII) })
}

func TestEndToEndPayment(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		alice := c.client(1)
		c.payAndWait(alice, 2, 30)
		c.waitSettledEverywhere(1, 5*time.Second)

		for i, r := range c.replicas {
			if bal := r.Balance(1); bal != 70 {
				t.Errorf("replica %d: balance(1) = %d, want 70", i, bal)
			}
			log := r.XLogSnapshot(1)
			if len(log) != 1 || log[0].Amount != 30 || log[0].Beneficiary != 2 {
				t.Errorf("replica %d: xlog = %v", i, log)
			}
		}
	})
}

func TestClientSequenceOfPayments(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		alice := c.client(1)
		for i := 0; i < 10; i++ {
			c.payAndWait(alice, 2, 5)
		}
		c.waitSettledEverywhere(10, 5*time.Second)
		for i, r := range c.replicas {
			if bal := r.Balance(1); bal != 50 {
				t.Errorf("replica %d: balance = %d", i, bal)
			}
			if seq := r.NextSeq(1); seq != 11 {
				t.Errorf("replica %d: nextSeq = %d", i, seq)
			}
		}
	})
}

func TestManyClientsConcurrent(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		const nClients = 8
		done := make(chan struct{}, nClients)
		for i := 0; i < nClients; i++ {
			cl := c.client(types.ClientID(i + 1))
			go func(cl *Client) {
				defer func() { done <- struct{}{} }()
				for j := 0; j < 5; j++ {
					id, err := cl.Pay(types.ClientID(100), 1)
					if err != nil {
						t.Error(err)
						return
					}
					if err := cl.WaitConfirm(id, 10*time.Second); err != nil {
						t.Errorf("client %d: %v", cl.ID(), err)
						return
					}
				}
			}(cl)
		}
		for i := 0; i < nClients; i++ {
			<-done
		}
		c.waitSettledEverywhere(nClients*5, 10*time.Second)
	})
}

func TestAstroIBeneficiaryCredited(t *testing.T) {
	c := newCluster(t, AstroI, 4, genesis100)
	alice := c.client(1)
	c.payAndWait(alice, 2, 30)
	c.waitSettledEverywhere(1, 5*time.Second)
	for i, r := range c.replicas {
		if bal := r.Balance(2); bal != 130 {
			t.Errorf("replica %d: balance(2) = %d, want 130", i, bal)
		}
	}
}

func TestAstroIIDependencyFlow(t *testing.T) {
	// Bob starts with 0 and can only pay Carol using the dependency from
	// Alice's payment: the CREDIT mechanism end to end.
	gen := func(c types.ClientID) types.Amount {
		if c == 1 {
			return 100
		}
		return 0
	}
	c := newCluster(t, AstroII, 4, gen)
	alice, bob := c.client(1), c.client(2)

	c.payAndWait(alice, 2, 40)
	// Wait until Bob's representative has accumulated the dependency.
	repBob := c.replicas[int(c.repOf(2))]
	deadline := time.Now().Add(5 * time.Second)
	for repBob.Balance(2) < 40 {
		if time.Now().After(deadline) {
			t.Fatalf("dependency never formed; balance = %d", repBob.Balance(2))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Bob spends 25 of the 40 he received through the dependency.
	c.payAndWait(bob, 3, 25)
	c.waitSettledEverywhere(2, 5*time.Second)
	for i, r := range c.replicas {
		if bal := r.Balance(2); bal != 15 {
			t.Errorf("replica %d: settled balance(2) = %d, want 15", i, bal)
		}
	}
}

func TestAstroIISubmitHeldUntilFunded(t *testing.T) {
	// Bob (balance 0) submits before Alice's credit reaches his
	// representative: the representative must hold the submission rather
	// than wedge Bob's xlog.
	gen := func(c types.ClientID) types.Amount {
		if c == 1 {
			return 100
		}
		return 0
	}
	c := newCluster(t, AstroII, 4, gen)
	alice, bob := c.client(1), c.client(2)

	idBob, err := bob.Pay(3, 25) // unfunded yet
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	repBob := c.replicas[int(c.repOf(2))]
	if held := repBob.PendingSubmits(2); held != 1 {
		t.Fatalf("pending submits = %d, want 1", held)
	}

	c.payAndWait(alice, 2, 40) // funds Bob via dependency
	if err := bob.WaitConfirm(idBob, 10*time.Second); err != nil {
		t.Fatalf("held payment never settled: %v", err)
	}
	c.waitSettledEverywhere(2, 5*time.Second)
	counters := c.replicas[0].Counters()
	if counters.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", counters.Dropped)
	}
}

func TestDoubleSpendPrevented(t *testing.T) {
	// A Byzantine client reuses a sequence number with two different
	// payments submitted to its (correct) representative. Exactly one
	// settles on every replica, and all replicas agree which.
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		mux := transport.NewMux(c.net.Node(transport.ClientNode(1)))
		NewClient(1, c.repOf, mux) // register handler; we forge manually

		a := types.Payment{Spender: 1, Seq: 1, Beneficiary: 2, Amount: 60}
		b := types.Payment{Spender: 1, Seq: 1, Beneficiary: 3, Amount: 60}
		rep := transport.ReplicaNode(c.repOf(1))
		if err := mux.Send(rep, transport.ChanPayment, encodeSubmit(a, nil)); err != nil {
			t.Fatal(err)
		}
		if err := mux.Send(rep, transport.ChanPayment, encodeSubmit(b, nil)); err != nil {
			t.Fatal(err)
		}
		c.waitSettledEverywhere(1, 5*time.Second)
		time.Sleep(100 * time.Millisecond)

		var first []types.Payment
		for i, r := range c.replicas {
			log := r.XLogSnapshot(1)
			if len(log) != 1 {
				t.Fatalf("replica %d settled %d payments for seq 1", i, len(log))
			}
			if first == nil {
				first = log
			} else if log[0] != first[0] {
				t.Fatalf("replicas disagree: %v vs %v", log[0], first[0])
			}
			if bal := r.Balance(1); bal != 40 {
				t.Errorf("replica %d: balance = %d, want 40 (one withdrawal)", i, bal)
			}
		}
	})
}

func TestForeignSubmitRejected(t *testing.T) {
	// A client cannot submit payments for someone else's xlog: the
	// representative checks the sender's node identity.
	c := newCluster(t, AstroI, 4, genesis100)
	mallory := c.client(5)
	forged := types.Payment{Spender: 1, Seq: 1, Beneficiary: 5, Amount: 99}
	rep := transport.ReplicaNode(c.repOf(1))
	if err := c.clients[5].mux.Send(rep, transport.ChanPayment, encodeSubmit(forged, nil)); err != nil {
		t.Fatal(err)
	}
	_ = mallory
	time.Sleep(100 * time.Millisecond)
	for i, r := range c.replicas {
		if r.SettledCount() != 0 {
			t.Fatalf("replica %d settled a forged payment", i)
		}
	}
}

func TestBalanceQuery(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		alice := c.client(1)
		bal, err := alice.QueryBalance(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if bal != 100 {
			t.Errorf("initial balance = %d", bal)
		}
		c.payAndWait(alice, 2, 30)
		bal, err = alice.QueryBalance(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if bal != 70 {
			t.Errorf("balance after payment = %d", bal)
		}
	})
}

func TestAstroIIBalanceIncludesPendingDeps(t *testing.T) {
	gen := func(c types.ClientID) types.Amount {
		if c == 1 {
			return 100
		}
		return 0
	}
	c := newCluster(t, AstroII, 4, gen)
	alice, bob := c.client(1), c.client(2)
	c.payAndWait(alice, 2, 40)

	deadline := time.Now().Add(5 * time.Second)
	for {
		bal, err := bob.QueryBalance(time.Second)
		if err == nil && bal == 40 {
			break // dependency value visible through the representative
		}
		if time.Now().After(deadline) {
			t.Fatalf("balance = %d, want 40", bal)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCrashFaultTolerance(t *testing.T) {
	// With n=4, f=1: crash one non-representative replica; payments still
	// settle at the survivors.
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100)
		alice := c.client(1) // representative is replica 1
		c.net.Crash(transport.ReplicaNode(3))
		c.payAndWait(alice, 2, 10)
		deadline := time.Now().Add(5 * time.Second)
		for {
			ok := 0
			for i, r := range c.replicas {
				if i != 3 && r.SettledCount() >= 1 {
					ok++
				}
			}
			if ok == 3 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("survivors did not settle")
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

func TestBatchingAmortizesBroadcasts(t *testing.T) {
	// With batch size 4 and 8 back-to-back payments from one client, the
	// replicas should settle all 8 while broadcasting only ~2-3 batches
	// (timing-dependent), far fewer than 8.
	c := newCluster(t, AstroII, 4, genesis100)
	alice := c.client(1)
	ids := make([]types.PaymentID, 0, 8)
	for i := 0; i < 8; i++ {
		id, err := alice.Pay(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := alice.WaitConfirm(id, 10*time.Second); err != nil {
			t.Fatalf("confirm %v: %v", id, err)
		}
	}
	c.waitSettledEverywhere(8, 5*time.Second)
}

func TestConfigDefaults(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	mux := transport.NewMux(net.Node(0))
	cfg := Config{
		Version:  AstroI,
		Self:     0,
		Replicas: []types.ReplicaID{0, 1, 2, 3},
		F:        1,
		Mux:      mux,
	}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.BatchSize != 256 || cfg.BatchDelay != 5*time.Millisecond {
		t.Error("defaults not applied")
	}
	if cfg.RepOf(5) != 1 {
		t.Errorf("default RepOf(5) = %d", cfg.RepOf(5))
	}
	if cfg.ShardOf(1) != 0 || cfg.ReplicaShard(2) != 0 {
		t.Error("default shard maps wrong")
	}
	if cfg.Genesis(1) != 0 {
		t.Error("default genesis wrong")
	}
}

func TestConfigValidationErrors(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	mux := transport.NewMux(net.Node(0))
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no mux", Config{Version: AstroI, Replicas: []types.ReplicaID{0, 1, 2, 3}, F: 1}},
		{"bad version", Config{Version: 0, Mux: mux, Replicas: []types.ReplicaID{0, 1, 2, 3}, F: 1}},
		{"too few replicas", Config{Version: AstroI, Mux: mux, Replicas: []types.ReplicaID{0, 1}, F: 1}},
		{"astro2 no keys", Config{Version: AstroII, Mux: mux, Replicas: []types.ReplicaID{0, 1, 2, 3}, F: 1}},
	}
	for _, c := range cases {
		if _, err := NewReplica(c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestRetiredTimerTagCannotCutBatch: tag 6 once carried a replica's own
// batch-timer events, and any sender could forge one — a client's 2-byte
// frame [6, 1] made the representative cut its buffered batch early. The
// tag is retired: the frame must leave the buffer alone.
func TestRetiredTimerTagCannotCutBatch(t *testing.T) {
	eachVersion(t, func(t *testing.T, v Version) {
		c := newCluster(t, v, 4, genesis100, func(cfg *Config) {
			cfg.BatchSize = 64
			cfg.BatchDelay = time.Hour
		})
		// Clients 4, 8 and 12 are represented by replica 0. With every
		// peer crashed, its first batch stays in flight, so later
		// submissions buffer behind the (hour-long) batch timer.
		for i := 1; i < 4; i++ {
			c.net.Crash(transport.ReplicaNode(types.ReplicaID(i)))
		}
		rep := c.replicas[0]
		buffered := func() (n, inflight int, has12 bool) {
			rep.repMu.Lock()
			defer rep.repMu.Unlock()
			for _, e := range rep.buffer {
				has12 = has12 || e.Payment.Spender == 12
			}
			return len(rep.buffer), rep.myInflight, has12
		}
		waitFor := func(what string, ok func() bool) {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for !ok() {
				if time.Now().After(deadline) {
					n, inflight, _ := buffered()
					t.Fatalf("%s: buffer %d, in flight %d", what, n, inflight)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if _, err := c.client(4).Pay(5, 1); err != nil {
			t.Fatal(err)
		}
		waitFor("first batch in flight", func() bool { _, inflight, _ := buffered(); return inflight == 1 })
		if _, err := c.client(8).Pay(5, 1); err != nil {
			t.Fatal(err)
		}
		waitFor("second payment buffered", func() bool { n, _, _ := buffered(); return n == 1 })

		// The forged timer frame, then a real submission from the same
		// client endpoint: the replica handles both in this order.
		mallory := c.client(12)
		if err := mallory.mux.Endpoint().Send(transport.ReplicaNode(0), []byte{6, 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := mallory.Pay(5, 1); err != nil {
			t.Fatal(err)
		}
		waitFor("third payment buffered", func() bool { _, _, has12 := buffered(); return has12 })
		if n, inflight, _ := buffered(); n != 2 || inflight != 1 {
			t.Fatalf("buffer %d, in flight %d; want 2 and 1 (the forged frame cut the batch)", n, inflight)
		}
	})
}
