package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/brb"
	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/kv"
	"astro/internal/sched"
	"astro/internal/shard"
	"astro/internal/sim"
	"astro/internal/transport"
	"astro/internal/transport/memnet"
	"astro/internal/transport/tcpnet"
	"astro/internal/types"
	"astro/internal/wal"
)

// The per-layer microbenchmarks: timed calls into each layer's exported
// functions with fixed seeded inputs, on one goroutine unless the
// function is itself parallel. Iteration counts are fixed and sized so
// that the whole set takes a few seconds; each figure is a mean over its
// iterations, or a median of three where one call takes milliseconds.
// README.md says which end-to-end metric each should move, and where.

const (
	layerAccounts = 50_000 // accounts imported into a State
	layerPayments = 50_000 // payments settled into a replica before it is snapshotted and restarted
	layerDirty    = 4096   // accounts dirtied between two FlushDirty calls
	walRecord     = 200    // bytes; a settled-batch record of a few payments
)

type layerBench struct {
	dir string // scratch directory, removed when the set is done
	out map[string]float64
}

// runLayers runs every microbenchmark and returns metric name -> value.
func runLayers(env environment) (map[string]float64, error) {
	if err := os.MkdirAll(env.scratch(), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(env.scratch(), "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &layerBench{dir: dir, out: make(map[string]float64)}
	for _, step := range []func() error{
		b.coreCodec, b.coreSettle, b.corePaging, b.coreHeap, b.coreReplica,
		b.cryptoLayer, b.schedLayer, b.tcpnetLayer, b.muxLayer, b.brbLayer, b.walLayer, b.kvLayer,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return b.out, nil
}

func (b *layerBench) sub(name string) (string, error) {
	d := filepath.Join(b.dir, name)
	return d, os.MkdirAll(d, 0o755)
}

// perOp times n calls of f and returns the mean in the given unit.
func perOp(n int, unit time.Duration, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(unit) / float64(n)
}

// median3 times three calls of f, each after prepare, and returns the
// median in milliseconds.
func median3(prepare func(), f func() error) (float64, error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
	}
	sort.Float64s(ms)
	return ms[1], nil
}

func richGenesis(types.ClientID) types.Amount { return 1 << 40 }

// ---- core ------------------------------------------------------------------

func batch256() []core.BatchEntry {
	entries := make([]core.BatchEntry, 256)
	for i := range entries {
		entries[i].Payment = types.Payment{
			Spender: types.ClientID(1 + i%4), Seq: types.Seq(1 + i/4),
			Beneficiary: types.ClientID(1 + (i+1)%4), Amount: 1,
		}
	}
	return entries
}

func (b *layerBench) coreCodec() error {
	entries := batch256()
	var payload []byte
	b.out["core.batch_encode_ns_per_payment"] = perOp(400, time.Nanosecond, func(int) { payload = core.EncodeBatch(entries) }) / 256
	var derr error
	b.out["core.batch_decode_ns_per_payment"] = perOp(400, time.Nanosecond, func(int) {
		if _, err := core.DecodeBatch(payload); err != nil {
			derr = err
		}
	}) / 256
	return derr
}

// coreSettle settles into resident accounts: 64 spenders take turns.
func (b *layerBench) coreSettle() error {
	const spenders, n = 64, 200_000
	s := core.NewState(core.AstroII, richGenesis, nil)
	seq := make([]types.Seq, spenders)
	b.out["core.settle_hot_ns_per_payment"] = perOp(n, time.Nanosecond, func(i int) {
		c := i % spenders
		seq[c]++
		s.ApplyEntry(core.BatchEntry{Payment: types.Payment{
			Spender: types.ClientID(1 + c), Seq: seq[c], Beneficiary: types.ClientID(1 + (c+1)%spenders), Amount: 1,
		}})
	})
	return nil
}

// importAccounts materializes n accounts, each with a one-payment log:
// the long tail of accounts that saw little traffic.
func importAccounts(s *core.State, n int) error {
	for c := 1; c <= n; c++ {
		s.ImportAccount(core.AccountExport{
			Client:  types.ClientID(c),
			Balance: 1 << 30,
			XLog:    []types.Payment{{Spender: types.ClientID(c), Seq: 1, Beneficiary: types.ClientID(c%n + 1), Amount: 1}},
		})
	}
	return s.PagerErr()
}

// corePaging measures the pager: a settle whose spender is never
// resident, and the incremental snapshot's flush of dirty accounts.
func (b *layerBench) corePaging() error {
	dir, err := b.sub("paging")
	if err != nil {
		return err
	}
	store, err := kv.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	// Two accounts per stripe is the floor: with 20 000 spenders taking
	// turns, every access is a miss.
	const cold = 20_000
	s := core.NewStatePaged(core.AstroII, richGenesis, nil, core.DefaultStateStripes, store, 2*core.DefaultStateStripes)
	if err := importAccounts(s, cold); err != nil {
		return err
	}
	b.out["core.settle_cold_us_per_payment"] = perOp(cold, time.Microsecond, func(i int) {
		s.ApplyEntry(core.BatchEntry{Payment: types.Payment{
			Spender: types.ClientID(1 + i), Seq: 2, Beneficiary: types.ClientID(1 + (i+1)%cold), Amount: 1,
		}})
	})
	if err := s.PagerErr(); err != nil {
		return err
	}

	dir2, err := b.sub("flush")
	if err != nil {
		return err
	}
	store2, err := kv.Open(dir2)
	if err != nil {
		return err
	}
	defer store2.Close()
	f := core.NewStatePaged(core.AstroII, richGenesis, nil, core.DefaultStateStripes, store2, 2*layerDirty)
	if err := importAccounts(f, layerAccounts); err != nil {
		return err
	}
	if err := f.FlushDirty(); err != nil {
		return err
	}
	seq := types.Seq(1)
	b.out["core.flush_dirty_ms_4k"], err = median3(func() {
		seq++
		for c := 1; c <= layerDirty; c++ {
			f.ApplyEntry(core.BatchEntry{Payment: types.Payment{Spender: types.ClientID(c), Seq: seq, Beneficiary: types.ClientID(c + layerDirty), Amount: 1}})
		}
	}, f.FlushDirty)
	return err
}

// coreHeap is the heap one account costs, all resident and paged with
// the tcp4-paged workload's cache.
func (b *layerBench) coreHeap() error {
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	measure := func(s *core.State) (float64, error) {
		before := heap()
		if err := importAccounts(s, layerAccounts); err != nil {
			return 0, err
		}
		after := heap()
		runtime.KeepAlive(s)
		return (float64(after) - float64(before)) / layerAccounts, nil
	}
	var err error
	if b.out["core.heap_bytes_per_account_resident"], err = measure(core.NewState(core.AstroII, richGenesis, nil)); err != nil {
		return err
	}
	dir, err := b.sub("heap")
	if err != nil {
		return err
	}
	store, err := kv.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	b.out["core.heap_bytes_per_account_paged"], err = measure(
		core.NewStatePaged(core.AstroII, richGenesis, nil, core.DefaultStateStripes, store, pagedCache))
	return err
}

// coreReplica fills a durable four-replica cluster with 50 000 settled
// payments among four spenders, a third of what a tcp4 run leaves behind,
// then times Replica.FullSnapshot and a restart of one replica from its
// directory; once resident and once paged. (Under Astro II only spenders
// have accounts, so a replica image of 50 000 accounts cannot be built
// through the protocol from four client identities; the State-level
// figures above use 50 000 imported accounts.)
func (b *layerBench) coreReplica() error {
	for _, mode := range []struct {
		name  string
		cache int
	}{{"resident", 0}, {"paged", pagedCache}} {
		dir, err := b.sub("replica-" + mode.name)
		if err != nil {
			return err
		}
		cluster, err := sim.NewAstroCluster(sim.AstroOpts{
			Version:  core.AstroII,
			Topology: shard.Topology{NumShards: 1, PerShard: 4},
			Latency:  memnet.Fixed(0), Bandwidth: -1,
			Genesis: genesis, DataDir: dir, StateCacheAccounts: mode.cache,
		})
		if err != nil {
			return err
		}
		w := workload{name: "fill", spenders: tcpSpenders}
		var clients []*core.Client
		for _, id := range w.spenders {
			clients = append(clients, cluster.Client(id))
		}
		g := newGenerator(w, 1, 0, clients, nil, nil)
		left := layerPayments
		err = g.closedLoop(satOutstanding/len(clients), g.now()+int64(setupTimeout), func(s *spender) (types.ClientID, bool) {
			left--
			return g.beneficiary(s), left >= 0
		})
		if err == nil && !g.drain(drainTimeout) {
			err = fmt.Errorf("%d payments unconfirmed", g.totalOutstanding())
		}
		g.close()
		if err != nil {
			cluster.Close()
			return fmt.Errorf("fill %s cluster: %w", mode.name, err)
		}
		rep := cluster.Replicas[0]
		if mode.cache == 0 {
			b.out["core.full_snapshot_ms_50k"], _ = median3(nil, func() error { rep.FullSnapshot(); return nil })
		}
		// Only replica 0's directory is reopened: the others die without a
		// final snapshot.
		for _, id := range []types.ReplicaID{1, 2, 3} {
			cluster.Kill(id)
		}
		cluster.Close()

		ms, err := restartReplica(filepath.Join(dir, "rep0"), mode.cache)
		if err != nil {
			return fmt.Errorf("restart %s replica: %w", mode.name, err)
		}
		b.out["core.restart_ms_50k_"+mode.name] = ms
	}
	return nil
}

// restartReplica times wal.OpenAuto plus core.NewReplica over a prepared
// directory, the kill -9 restart path up to the point the replica serves.
func restartReplica(dir string, cache int) (float64, error) {
	net := memnet.New()
	defer net.Close()
	ids := []types.ReplicaID{0, 1, 2, 3}
	master := []byte("astro-sim-master")
	registry := crypto.NewRegistry()
	registry.EnableSim(master)
	for _, id := range ids {
		registry.AddSim(id)
	}
	mux := transport.NewMux(net.Node(transport.ReplicaNode(0)))
	defer mux.Close()
	start := time.Now()
	be, err := wal.OpenAuto(dir, cache > 0)
	if err != nil {
		return 0, err
	}
	rep, err := core.NewReplica(core.Config{
		Version: core.AstroII, Self: 0, Replicas: ids, F: 1, Mux: mux,
		Genesis:  func(types.ClientID) types.Amount { return genesis },
		Auth:     crypto.NewLinkAuthenticator(0, master),
		Keys:     crypto.NewSimKeyPair(0, master),
		Registry: registry, WAL: be, StateCacheAccounts: cache,
	})
	if err != nil {
		be.Abort()
		return 0, err
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if !rep.Recovered() {
		err = fmt.Errorf("replica over %s found nothing to recover", dir)
	}
	rep.Abandon()
	return ms, err
}

// ---- crypto ----------------------------------------------------------------

// benchKeys derives n replicas' ECDSA keys from fixed seeds and registers
// them.
func benchKeys(n int) (*crypto.Registry, []*crypto.KeyPair, error) {
	registry := crypto.NewRegistry()
	keys := make([]*crypto.KeyPair, n)
	for i := range keys {
		kp, err := crypto.DeriveKeyPair([]byte(fmt.Sprintf("bench/%d", i)))
		if err != nil {
			return nil, nil, err
		}
		keys[i] = kp
		registry.Add(types.ReplicaID(i), kp.Public())
	}
	return registry, keys, nil
}

func (b *layerBench) cryptoLayer() error {
	registry, keys, err := benchKeys(7)
	if err != nil {
		return err
	}
	digest := types.HashBytes([]byte("astro benchmark digest"))
	var cert crypto.Certificate
	for i, kp := range keys {
		sig, err := kp.Sign(digest)
		if err != nil {
			return err
		}
		cert.Add(crypto.PartialSig{Replica: types.ReplicaID(i), Sig: sig})
	}
	b.out["crypto.sign_us"] = perOp(200, time.Microsecond, func(int) {
		if _, e := keys[0].Sign(digest); e != nil {
			err = e
		}
	})
	sig0 := cert.Sigs[0].Sig
	ok := true
	b.out["crypto.verify_us"] = perOp(200, time.Microsecond, func(int) {
		ok = crypto.Verify(keys[0].Public(), digest, sig0) && ok
	})
	for _, q := range []int{3, 7} {
		c := crypto.Certificate{Sigs: cert.Sigs[:q]}
		b.out[fmt.Sprintf("crypto.cert_verify_us_q%d", q)] = perOp(40, time.Microsecond, func(int) {
			if e := crypto.VerifyCertificate(registry, c, digest, q, nil); e != nil {
				err = e
			}
		})
	}

	// The verifier spreads a batch over its lanes; memoization is off so
	// that every check is a real verification.
	v := verifier.New(0, verifier.WithMemoSize(0))
	checks := make([]verifier.Check, 64)
	for i := range checks {
		checks[i] = func() bool { return registry.VerifySig(0, digest, sig0) }
	}
	b.out["verifier.batch64_us"] = perOp(10, time.Microsecond, func(int) { ok = v.VerifyBatch(checks).Wait() && ok })
	v.Close()

	vm := verifier.New(0)
	vm.VerifyReplica(registry, 0, digest, sig0)
	b.out["verifier.memo_hit_ns"] = perOp(200_000, time.Nanosecond, func(int) { ok = vm.VerifyReplica(registry, 0, digest, sig0) && ok })
	vm.Close()
	if err == nil && !ok {
		err = fmt.Errorf("crypto: a valid signature failed to verify")
	}
	return err
}

// ---- sched -----------------------------------------------------------------

func (b *layerBench) schedLayer() error {
	rt := sched.New(0)
	defer rt.Close()
	var waited time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		done := make(chan time.Time)
		start := time.Now()
		rt.Submit(func() { done <- time.Now() })
		waited += (<-done).Sub(start)
		time.Sleep(20 * time.Microsecond) // let the lane park again: the figure is for idle lanes
	}
	b.out["sched.submit_to_start_us"] = float64(waited) / float64(time.Microsecond) / n

	const tasks = 300_000
	fl := rt.Flow(rt.KeySpace(), 0)
	defer fl.Release()
	var ran atomic.Int64
	done := make(chan struct{})
	start := time.Now()
	for i := 0; i < tasks; i++ {
		fl.Submit(func() {
			if ran.Add(1) == tasks {
				close(done)
			}
		})
	}
	<-done
	b.out["sched.flow_tasks_per_s"] = tasks / time.Since(start).Seconds()
	return nil
}

// ---- transport -------------------------------------------------------------

// tcpPair opens two listening tcpnet endpoints on loopback that know
// each other.
func tcpPair() (a, z *tcpnet.Endpoint, err error) {
	a, err = tcpnet.New(tcpnet.Config{Self: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		return nil, nil, err
	}
	z, err = tcpnet.New(tcpnet.Config{Self: 1, Listen: "127.0.0.1:0", Peers: map[transport.NodeID]string{0: a.Addr().String()}})
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, z, nil
}

func (b *layerBench) tcpnetLayer() error {
	// z dials a; a answers over the route it learns from z's frames.
	a, z, err := tcpPair()
	if err != nil {
		return err
	}
	defer a.Close()
	defer z.Close()
	var sendErr atomic.Value
	note := func(e error) {
		if e != nil {
			sendErr.CompareAndSwap(nil, e)
		}
	}

	// Round trip: a echoes what z sends.
	pong := make(chan struct{}, 1)
	a.SetHandler(func(from transport.NodeID, p []byte) { note(a.Send(from, p)) })
	z.SetHandler(func(transport.NodeID, []byte) { pong <- struct{}{} })
	small := make([]byte, 64)
	b.out["tcpnet.rtt_us_64B"] = perOp(3000, time.Microsecond, func(int) {
		note(z.Send(0, small))
		<-pong
	})

	// One-way streams, timed until the receiver has the last frame.
	stream := func(frames int, payload []byte) time.Duration {
		var got atomic.Int64
		done := make(chan struct{})
		a.SetHandler(func(transport.NodeID, []byte) {
			if got.Add(1) == int64(frames) {
				close(done)
			}
		})
		start := time.Now()
		for i := 0; i < frames; i++ {
			note(z.Send(0, payload))
		}
		<-done
		return time.Since(start)
	}
	const frames = 150_000
	b.out["tcpnet.frames_per_s_64B"] = frames / stream(frames, small).Seconds()
	const big, bigFrames = 64 << 10, 3000
	b.out["tcpnet.mb_per_s_64KiB"] = float64(big) * bigFrames / 1e6 / stream(bigFrames, make([]byte, big)).Seconds()
	if e := sendErr.Load(); e != nil {
		return e.(error)
	}
	return nil
}

func (b *layerBench) muxLayer() error {
	net := memnet.New()
	defer net.Close()
	ma := transport.NewMux(net.Node(0))
	mz := transport.NewMux(net.Node(1))
	defer ma.Close()
	defer mz.Close()
	pong := make(chan struct{}, 1)
	var err error
	ma.Register(transport.ChanPayment, func(from transport.NodeID, p []byte) {
		if e := ma.Send(from, transport.ChanPayment, p); e != nil {
			err = e
		}
	})
	mz.Register(transport.ChanPayment, func(transport.NodeID, []byte) { pong <- struct{}{} })
	payload := make([]byte, 64)
	b.out["transport.mux_roundtrip_us_memnet"] = perOp(10_000, time.Microsecond, func(int) {
		if e := mz.Send(0, transport.ChanPayment, payload); e != nil {
			err = e
		}
		<-pong
	})
	return err
}

// ---- brb -------------------------------------------------------------------

// brbGroup is n broadcasters over memnet with instant links and ECDSA
// keys, counting deliveries.
type brbGroup struct {
	net       *memnet.Network
	muxes     []*transport.Mux
	bcs       []brb.Broadcaster
	mu        sync.Mutex
	cond      *sync.Cond
	delivered int
}

func newBRBGroup(n int, signed bool) (*brbGroup, error) {
	g := &brbGroup{net: memnet.New()}
	g.cond = sync.NewCond(&g.mu)
	registry, keys, err := benchKeys(n)
	if err != nil {
		return nil, err
	}
	peers := make([]types.ReplicaID, n)
	for i := range peers {
		peers[i] = types.ReplicaID(i)
	}
	for i := range peers {
		mux := transport.NewMux(g.net.Node(transport.ReplicaNode(peers[i])))
		g.muxes = append(g.muxes, mux)
		cfg := brb.Config{
			Mux: mux, Self: peers[i], Peers: peers, F: types.MaxFaults(n),
			Deliver: func(types.ReplicaID, uint64, []byte) {
				g.mu.Lock()
				g.delivered++
				g.cond.Broadcast()
				g.mu.Unlock()
			},
			Auth: crypto.NewLinkAuthenticator(peers[i], []byte("bench")),
			Keys: keys[i], Registry: registry,
		}
		var bc brb.Broadcaster
		var err error
		if signed {
			bc, err = brb.NewSigned(cfg)
		} else {
			bc, err = brb.NewBracha(cfg)
		}
		if err != nil {
			g.close()
			return nil, err
		}
		g.bcs = append(g.bcs, bc)
	}
	return g, nil
}

func (g *brbGroup) wait(total int) {
	g.mu.Lock()
	for g.delivered < total {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *brbGroup) close() {
	g.net.Close()
	for _, m := range g.muxes {
		m.Close()
	}
}

// run broadcasts batches payloads from replica 0, at most window in
// flight, and returns the mean time per batch from broadcast to delivery
// at all n replicas, in microseconds.
func (g *brbGroup) run(batches, window int, payload []byte) (float64, error) {
	n := len(g.bcs)
	g.mu.Lock()
	base := g.delivered
	g.mu.Unlock()
	start := time.Now()
	for i := 0; i < batches; i++ {
		if _, err := g.bcs[0].Broadcast(payload); err != nil {
			return 0, err
		}
		if i+1 >= window {
			g.wait(base + (i+2-window)*n)
		}
	}
	g.wait(base + batches*n)
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(batches), nil
}

func (b *layerBench) brbLayer() error {
	full := core.EncodeBatch(batch256())
	one := core.EncodeBatch(batch256()[:1])
	type variant struct {
		metric          string
		n               int
		signed          bool
		batches, window int
		payload         []byte
	}
	for _, v := range []variant{
		{"brb.signed_n4_us_per_batch256", 4, true, 150, 32, full},
		{"brb.signed_n4_us_per_batch1", 4, true, 150, 1, one},
		{"brb.signed_n10_us_per_batch256", 10, true, 40, 32, full},
		{"brb.bracha_n4_us_per_batch256", 4, false, 150, 32, full},
	} {
		g, err := newBRBGroup(v.n, v.signed)
		if err != nil {
			return err
		}
		// A short warm-up lets chain caches and connections settle.
		if _, err := g.run(8, v.window, v.payload); err != nil {
			g.close()
			return err
		}
		g.net.ResetStats()
		us, err := g.run(v.batches, v.window, v.payload)
		sent := g.net.Stats().BytesSent
		g.close()
		if err != nil {
			return err
		}
		b.out[v.metric] = us
		if v.metric == "brb.signed_n4_us_per_batch256" {
			b.out["brb.signed_n4_wire_bytes_per_payment"] = float64(sent) / float64(v.batches) / 256
		}
	}
	return nil
}

// ---- wal -------------------------------------------------------------------

func (b *layerBench) walLayer() error {
	rt := sched.Default()
	record := make([]byte, walRecord)

	dir, err := b.sub("wal-append")
	if err != nil {
		return err
	}
	be, err := wal.Open(dir)
	if err != nil {
		return err
	}
	if err := be.Load(nil, nil); err != nil {
		return err
	}
	// The Writer's tail-sync discipline amortises fsync over whatever
	// queued behind it, as under load.
	w := wal.NewWriter(be, rt)
	const appends = 30_000
	start := time.Now()
	for i := 0; i < appends; i++ {
		w.Append(2, append([]byte(nil), record...))
	}
	w.Barrier()
	b.out["wal.append_us_per_record"] = float64(time.Since(start)) / float64(time.Microsecond) / appends
	w.Close()
	if err := w.Err(); err != nil {
		return err
	}

	dir, err = b.sub("wal-sync")
	if err != nil {
		return err
	}
	fb, err := wal.Open(dir)
	if err != nil {
		return err
	}
	if err := fb.Load(nil, nil); err != nil {
		return err
	}
	var serr error
	var syncing time.Duration
	const syncs = 60
	for i := 0; i < syncs; i++ {
		if err := fb.Append(2, record); err != nil {
			serr = err
		}
		t := time.Now()
		if err := fb.Sync(); err != nil {
			serr = err
		}
		syncing += time.Since(t)
	}
	b.out["wal.fsync_us"] = float64(syncing) / float64(time.Microsecond) / syncs
	if serr != nil {
		return serr
	}
	image := make([]byte, 8<<20)
	if b.out["wal.snapshot_write_ms_8MiB"], err = median3(nil, func() error { return fb.WriteSnapshot(image) }); err != nil {
		return err
	}

	const replay = 100_000
	for i := 0; i < replay; i++ {
		if err := fb.Append(2, record); err != nil {
			return err
		}
	}
	if err := fb.Close(); err != nil {
		return err
	}
	start = time.Now()
	rb, err := wal.Open(dir)
	if err != nil {
		return err
	}
	records := 0
	err = rb.Load(func([]byte) error { return nil }, func(byte, []byte) error { records++; return nil })
	b.out["wal.replay_ms_100k_records"] = float64(time.Since(start)) / float64(time.Millisecond)
	rb.Abort()
	if err == nil && records != replay {
		err = fmt.Errorf("wal replay saw %d records, %d written", records, replay)
	}
	return err
}

// ---- kv --------------------------------------------------------------------

func kvKey(i int) []byte {
	return []byte{'a', byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
}

func (b *layerBench) kvLayer() error {
	dir, err := b.sub("kv")
	if err != nil {
		return err
	}
	store, err := kv.Open(dir)
	if err != nil {
		return err
	}
	val := make([]byte, 120) // an account with a short log
	var perr error
	b.out["kv.put_us"] = perOp(layerAccounts, time.Microsecond, func(i int) {
		if err := store.Put(kvKey(i), val); err != nil {
			perr = err
		}
	})
	if perr != nil {
		store.Close()
		return perr
	}
	if err := store.Publish(); err != nil {
		store.Close()
		return err
	}
	// Publishing after a small change is what every incremental snapshot
	// pays, whatever the population.
	b.out["kv.publish_ms_50k"], err = median3(func() { perr = store.Put(kvKey(0), val) }, store.Publish)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil || perr != nil {
		return fmt.Errorf("kv publish: %v %v", err, perr)
	}

	// Cold: a reopened store holds only its index in memory, so each
	// first Get reads the record from the file, in a seeded random order.
	store, err = kv.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	order := rand.New(rand.NewPCG(1, 2)).Perm(layerAccounts)
	const gets = 20_000
	b.out["kv.get_cold_us"] = perOp(gets, time.Microsecond, func(i int) {
		if _, ok, err := store.Get(kvKey(order[i])); err != nil || !ok {
			perr = fmt.Errorf("kv get %d: found=%v err=%v", order[i], ok, err)
		}
	})
	return perr
}
