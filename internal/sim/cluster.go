// Package sim assembles complete in-process deployments of the three
// systems under evaluation — Astro I, Astro II, and the consensus baseline
// — over the simulated network, and implements the paper's experiments
// (one function per figure/table) on top of them.
//
// The package is the shared engine behind cmd/astro-bench and the
// root-level benchmarks.
package sim

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"astro/internal/brb"
	"astro/internal/consensus"
	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/reconfig"
	"astro/internal/sched"
	"astro/internal/shard"
	"astro/internal/transport"
	"astro/internal/transport/chaos"
	"astro/internal/transport/memnet"
	"astro/internal/types"
	"astro/internal/wal"
)

// AstroOpts configures an Astro deployment.
type AstroOpts struct {
	// Version selects Astro I or Astro II.
	Version core.Version
	// Topology partitions replicas into shards; use {1, N} for the
	// non-sharded experiments.
	Topology shard.Topology
	// Latency is the link latency model. Defaults to memnet.EuropeWAN().
	Latency memnet.LatencyModel
	// BatchSize and BatchDelay tune representative batching (paper: 256).
	BatchSize  int
	BatchDelay time.Duration
	// Genesis is the flat initial balance for every client. The paper's
	// experiments assume clients can always settle immediately.
	Genesis types.Amount
	// ShardOf and RepOf override the topology's default client maps
	// (used by Smallbank's account scheme). Optional.
	ShardOf func(types.ClientID) types.ShardID
	RepOf   func(types.ClientID) types.ReplicaID
	// Bandwidth is the per-node egress capacity in bytes/sec; 0 selects
	// the paper's ~30 MiB/s, negative disables the bandwidth model.
	Bandwidth float64
	// RealCrypto uses real ECDSA signatures instead of the simulated
	// constant-time authenticators. The simulation shares one host CPU
	// across all replicas, whereas the paper gave every replica its own
	// cores and found Astro II bandwidth-bound, not CPU-bound (§VI-A);
	// simulated authenticators (with ECDSA-like wire sizes) restore that
	// regime. The library itself always uses real ECDSA — this knob only
	// exists in the experiment harness, and it changes what a signature
	// costs, not which code path signs or verifies it.
	RealCrypto bool
	// Seed feeds the network jitter generator and, when Chaos is nil,
	// the cluster's chaos controller.
	Seed uint64
	// DataDir enables durable replica state: each replica appends to a
	// write-ahead log under DataDir/rep<id>, Kill models a kill -9, and
	// Restart rebuilds the replica from its log plus peer state transfer.
	// Empty keeps replicas memory-only (the default for throughput
	// experiments, where durability I/O is a separate axis).
	DataDir string
	// WALSnapshotEvery is the compaction cadence (core.Config); 0 keeps
	// the core default.
	WALSnapshotEvery int
	// StateCacheAccounts bounds resident accounts per replica
	// (core.Config.StateCacheAccounts): cold accounts page to the WAL's
	// embedded KV store and snapshots become incremental. Requires
	// DataDir; 0 keeps every account resident.
	StateCacheAccounts int
	// Chaos is the controller interposed on every replica and client
	// endpoint: seeded drop/corrupt/duplicate/delay rules, schedules, and
	// partitions on top of the latency model (internal/transport/chaos).
	// Nil gives a quiet controller seeded with Seed; either way the
	// cluster's Delay, LinkDelay, Partition and HealPartition are rules
	// on this one controller.
	Chaos *chaos.Controller
	// ClientAuth enables end-to-end client payment signatures: a shared
	// client-key registry is installed on every replica, each client gets
	// a key pair registered on first use, and Client returns signing
	// clients. Byzantine-client scenarios want it on — a forged payment
	// signature is only rejectable when signatures are checked at all.
	ClientAuth bool
}

// DefaultBandwidth matches the paper's measured ~30 MiB/s between EC2
// regions; frameOverhead approximates per-message TCP/IP framing.
const (
	DefaultBandwidth = 30 << 20
	frameOverhead    = 64
)

// linkFaults is a simulated cluster's one link-fault layer: every endpoint
// of the cluster is wrapped by ctl, and per-node delay, per-link delay and
// partitions are rules on it. The controller's precedence holds: a link
// rule beats a node rule beats the default, so a delay set here replaces
// the default rule on its node or link rather than adding to it.
type linkFaults struct{ ctl *chaos.Controller }

// Chaos returns the controller every endpoint of the cluster rides.
func (l linkFaults) Chaos() *chaos.Controller { return l.ctl }

// Delay injects netem-style outbound delay d at a replica: every frame it
// sends to another node waits d on top of the latency model. Zero removes
// it.
func (l linkFaults) Delay(r types.ReplicaID, d time.Duration) {
	l.ctl.SetNodeRule(transport.ReplicaNode(r), fixedDelay(d))
}

// LinkDelay injects delay d on the directed link from → to only — the
// reverse direction is untouched. Zero removes it.
func (l linkFaults) LinkDelay(from, to types.ReplicaID, d time.Duration) {
	l.ctl.SetLinkRule(transport.ReplicaNode(from), transport.ReplicaNode(to), fixedDelay(d))
}

// Partition splits the listed replicas into isolated groups: frames
// between groups are blocked. Unlisted replicas and clients are
// unaffected. It replaces any earlier partition, scheduled ones included.
func (l linkFaults) Partition(groups ...[]types.ReplicaID) {
	nodes := make([][]transport.NodeID, len(groups))
	for i, g := range groups {
		for _, id := range g {
			nodes[i] = append(nodes[i], transport.ReplicaNode(id))
		}
	}
	l.ctl.Partition(nodes...)
}

// HealPartition removes the current partition, whoever installed it.
func (l linkFaults) HealPartition() { l.ctl.Heal() }

// fixedDelay is the rule delaying every frame by exactly d; a
// non-positive d gives the zero rule, which removes an override.
func fixedDelay(d time.Duration) chaos.Rule {
	d = max(d, 0)
	return chaos.Rule{DelayMin: d, DelayMax: d}
}

func networkFor(latency memnet.LatencyModel, bandwidth float64, seed uint64) *memnet.Network {
	opts := []memnet.Option{memnet.WithLatency(latency), memnet.WithSeed(seed)}
	if bandwidth == 0 {
		bandwidth = DefaultBandwidth
	}
	if bandwidth > 0 {
		opts = append(opts, memnet.WithBandwidth(bandwidth, frameOverhead))
	}
	return memnet.New(opts...)
}

// AstroCluster is a running Astro deployment.
type AstroCluster struct {
	Net      *memnet.Network
	Topology shard.Topology
	Replicas map[types.ReplicaID]*core.Replica
	linkFaults

	repOf   func(types.ClientID) types.ReplicaID
	clients map[types.ClientID]*core.Client
	muxes   []*transport.Mux
	rt      *sched.Runtime
	version core.Version
	keys    map[types.ReplicaID]*crypto.KeyPair
	byz     map[types.ReplicaID]*byzEndpoint

	// Client-auth deployment state (AstroOpts.ClientAuth): the shared
	// public-key registry every replica verifies against, and the private
	// halves handed to clients as they are created.
	clientReg  *crypto.ClientKeys
	clientKeys map[types.ClientID]*crypto.KeyPair

	// stateMu guards the replica bookkeeping maps against concurrent
	// Restart (which replaces entries in place) — the auditor and the
	// measurement loop read them from their own goroutines.
	stateMu sync.RWMutex

	// Durable-deployment bookkeeping (DataDir set): everything Restart
	// needs to rebuild a replica in place.
	dataDir string
	cfgs    map[types.ReplicaID]core.Config
	repMux  map[types.ReplicaID]*transport.Mux
}

// NewAstroCluster builds and starts a deployment.
func NewAstroCluster(opts AstroOpts) (*AstroCluster, error) {
	if err := opts.Topology.Validate(); err != nil {
		return nil, err
	}
	if opts.Latency == nil {
		opts.Latency = memnet.EuropeWAN()
	}
	if opts.Genesis == 0 {
		opts.Genesis = 1 << 40
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Chaos == nil {
		opts.Chaos = chaos.NewController(opts.Seed)
	}
	net := networkFor(opts.Latency, opts.Bandwidth, opts.Seed)

	// All replicas of the in-process deployment share one lane runtime
	// sized to the host — transport dispatch, settlement stripe fan-out,
	// and the verification pool all execute on the same lanes: the
	// simulation multiplexes every replica onto the same cores, so
	// per-replica substrates would only oversubscribe.
	rt := sched.Default()
	ver := verifier.Default()

	master := []byte("astro-sim-master")
	registry := crypto.NewRegistry()
	registry.EnableSim(master)
	keys := make(map[types.ReplicaID]*crypto.KeyPair)
	for _, r := range opts.Topology.AllReplicas() {
		if opts.RealCrypto {
			keys[r] = crypto.MustGenerateKeyPair()
			registry.Add(r, keys[r].Public())
		} else {
			keys[r] = crypto.NewSimKeyPair(r, master)
			registry.AddSim(r)
		}
	}

	shardOf := opts.ShardOf
	if shardOf == nil {
		shardOf = opts.Topology.ShardOf
	}
	repOf := opts.RepOf
	if repOf == nil {
		repOf = opts.Topology.RepOf
	}
	genesis := func(types.ClientID) types.Amount { return opts.Genesis }
	allShards := make([]types.ShardID, opts.Topology.NumShards)
	for i := range allShards {
		allShards[i] = types.ShardID(i)
	}

	c := &AstroCluster{
		Net:        net,
		Topology:   opts.Topology,
		Replicas:   make(map[types.ReplicaID]*core.Replica),
		linkFaults: linkFaults{opts.Chaos},
		repOf:      repOf,
		clients:    make(map[types.ClientID]*core.Client),
		rt:         rt,
		version:    opts.Version,
		keys:       keys,
		byz:        make(map[types.ReplicaID]*byzEndpoint),
		dataDir:    opts.DataDir,
		cfgs:       make(map[types.ReplicaID]core.Config),
		repMux:     make(map[types.ReplicaID]*transport.Mux),
	}
	if opts.ClientAuth {
		c.clientReg = crypto.NewClientKeys()
		c.clientKeys = make(map[types.ClientID]*crypto.KeyPair)
	}
	for s := 0; s < opts.Topology.NumShards; s++ {
		members := opts.Topology.Replicas(types.ShardID(s))
		for _, id := range members {
			mux := transport.NewMux(c.wrapReplicaEndpoint(id), transport.WithRuntime(rt))
			c.muxes = append(c.muxes, mux)
			cfg := core.Config{
				Version:      opts.Version,
				Self:         id,
				Replicas:     members,
				F:            opts.Topology.F(),
				Mux:          mux,
				RepOf:        repOf,
				ShardOf:      shardOf,
				ReplicaShard: opts.Topology.ReplicaShard,
				ShardMembers: opts.Topology.Directory(),
				Shards:       allShards,
				Genesis:      genesis,
				BatchSize:    opts.BatchSize,
				BatchDelay:   opts.BatchDelay,
				Sched:        rt,
				Auth:         crypto.NewLinkAuthenticator(id, master),
				Keys:         keys[id],
				Registry:     registry,
				Verifier:     ver,
				ClientKeys:   c.clientReg,
			}
			if opts.DataDir != "" {
				be, err := wal.OpenAuto(c.replicaDir(id), opts.StateCacheAccounts > 0)
				if err != nil {
					net.Close()
					return nil, fmt.Errorf("sim: replica %d: %w", id, err)
				}
				cfg.WAL = be
				cfg.WALSnapshotEvery = opts.WALSnapshotEvery
				cfg.StateCacheAccounts = opts.StateCacheAccounts
			}
			rep, err := core.NewReplica(cfg)
			if err != nil {
				net.Close()
				return nil, fmt.Errorf("sim: replica %d: %w", id, err)
			}
			c.Replicas[id] = rep
			c.cfgs[id] = cfg
			c.repMux[id] = mux
			if opts.DataDir != "" {
				// Durable deployments serve full-state transfer to
				// recovering peers on the reconfiguration channel.
				reconfig.NewManager(reconfig.Config{
					Self: id, Mux: mux, Keys: keys[id], Registry: registry,
					InitialView: reconfig.View{Num: 1, Members: members},
					Full:        rep,
				})
			}
		}
	}
	return c, nil
}

func (c *AstroCluster) replicaDir(id types.ReplicaID) string {
	return filepath.Join(c.dataDir, fmt.Sprintf("rep%d", id))
}

// wrapReplicaEndpoint builds a replica's endpoint stack: raw network
// node, then the chaos controller, then the Byzantine
// interposer — so a faulty replica's forged traffic still rides the
// chaos rules and the latency model like honest traffic. The interposer
// is always present (inert until armed) and survives across Restart: the
// same byzEndpoint is re-pointed at the rebuilt inner stack, so an armed
// behavior stays armed through a kill/restart cycle.
func (c *AstroCluster) wrapReplicaEndpoint(id types.ReplicaID) transport.Endpoint {
	bz := newByzEndpoint(c.ctl.Wrap(c.Net.Node(transport.ReplicaNode(id))))
	c.stateMu.Lock()
	if old, ok := c.byz[id]; ok {
		if b := old.behavior.Load(); b != nil {
			bz.behavior.Store(b)
		}
	}
	c.byz[id] = bz
	c.stateMu.Unlock()
	return bz
}

// SetBehavior arms (or with nil disarms) a Byzantine behavior on a
// replica's endpoint, effective immediately — mid-run, mid-broadcast.
func (c *AstroCluster) SetBehavior(id types.ReplicaID, b Behavior) error {
	c.stateMu.RLock()
	bz, ok := c.byz[id]
	c.stateMu.RUnlock()
	if !ok {
		return fmt.Errorf("sim: unknown replica %d", id)
	}
	bz.Set(b)
	return nil
}

// Behavior returns the Byzantine behavior currently armed on a replica's
// endpoint (nil when disarmed or unknown) — scenario code reads its
// engagement counters.
func (c *AstroCluster) Behavior(id types.ReplicaID) Behavior {
	c.stateMu.RLock()
	bz, ok := c.byz[id]
	c.stateMu.RUnlock()
	if !ok {
		return nil
	}
	if bp := bz.behavior.Load(); bp != nil {
		return *bp
	}
	return nil
}

// Replica returns a replica handle under the state lock (safe against a
// concurrent Restart); nil if unknown.
func (c *AstroCluster) Replica(id types.ReplicaID) *core.Replica {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	return c.Replicas[id]
}

// ReplicaIDs returns every replica identity in the deployment, sorted.
func (c *AstroCluster) ReplicaIDs() []types.ReplicaID {
	return c.Topology.AllReplicas()
}

// Crashed reports whether a replica is currently crash-stopped.
func (c *AstroCluster) Crashed(id types.ReplicaID) bool {
	return c.Net.Crashed(transport.ReplicaNode(id))
}

// Keys exposes a replica's key pair — Byzantine behaviors forge acks with
// the faulty replica's own key.
func (c *AstroCluster) Keys(id types.ReplicaID) *crypto.KeyPair { return c.keys[id] }

// Auth exposes a replica's PREPARE authenticator, keyed by its own key
// pair — an equivocating origin tags its variants with it.
func (c *AstroCluster) Auth(id types.ReplicaID) *crypto.LinkAuthenticator {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	return crypto.NewKeyedLinkAuthenticator(id, c.keys[id], c.cfgs[id].Registry)
}

// Quorum returns the commit certificate size of a replica's shard:
// brb.CertQuorum acks from members other than the origin.
func (c *AstroCluster) Quorum() int {
	return brb.CertQuorum(c.Topology.PerShard, c.Topology.F())
}

// Kill crash-stops a replica the way kill -9 does: the network drops its
// traffic and the process state — including write-ahead-log appends not
// yet synced — is discarded without any flush.
func (c *AstroCluster) Kill(id types.ReplicaID) {
	c.Net.Crash(transport.ReplicaNode(id))
	c.stateMu.RLock()
	r, rok := c.Replicas[id]
	m, mok := c.repMux[id]
	c.stateMu.RUnlock()
	if rok {
		r.Abandon()
	}
	if mok {
		m.Close()
	}
}

// Restart rebuilds a killed replica in place: replay the data directory's
// snapshot and log tail, rejoin the network on the same endpoint, and
// fetch a full snapshot from a live peer to merge the settlement suffix
// missed while down (Astro broadcasts are never retransmitted, so state
// transfer is the only way to learn it). A fetch timeout is tolerated —
// with every peer down the replica still comes back from its own log.
func (c *AstroCluster) Restart(id types.ReplicaID) error {
	if c.dataDir == "" {
		return errors.New("sim: Restart requires AstroOpts.DataDir")
	}
	c.stateMu.RLock()
	cfg, ok := c.cfgs[id]
	c.stateMu.RUnlock()
	if !ok {
		return fmt.Errorf("sim: unknown replica %d", id)
	}
	node := transport.ReplicaNode(id)
	c.Net.Restore(node)
	be, err := wal.OpenAuto(c.replicaDir(id), cfg.StateCacheAccounts > 0)
	if err != nil {
		return fmt.Errorf("sim: restart %d: %w", id, err)
	}
	mux := transport.NewMux(c.wrapReplicaEndpoint(id), transport.WithRuntime(c.rt))
	c.muxes = append(c.muxes, mux)
	cfg.Mux = mux
	cfg.WAL = be
	rep, err := core.NewReplica(cfg)
	if err != nil {
		return fmt.Errorf("sim: restart %d: %w", id, err)
	}
	peers := make([]types.ReplicaID, 0, len(cfg.Replicas)-1)
	for _, p := range cfg.Replicas {
		if p != id && !c.Net.Crashed(transport.ReplicaNode(p)) {
			peers = append(peers, p)
		}
	}
	if len(peers) > 0 {
		// FetchState temporarily owns the reconfiguration channel; the
		// manager below takes it over once the catch-up is done.
		snap, ferr := reconfig.FetchState(reconfig.FetchConfig{
			Mux: mux, Peers: peers, Timeout: 15 * time.Second,
		})
		if ferr == nil {
			if merr := rep.MergeFullSnapshot(snap); merr != nil {
				return fmt.Errorf("sim: restart %d: merge: %w", id, merr)
			}
		} else if !errors.Is(ferr, reconfig.ErrFetchTimeout) {
			return fmt.Errorf("sim: restart %d: fetch: %w", id, ferr)
		}
	}
	reconfig.NewManager(reconfig.Config{
		Self: id, Mux: mux, Keys: cfg.Keys, Registry: cfg.Registry,
		InitialView: reconfig.View{Num: 1, Members: cfg.Replicas},
		Full:        rep,
	})
	c.stateMu.Lock()
	c.Replicas[id] = rep
	c.cfgs[id] = cfg
	c.repMux[id] = mux
	c.stateMu.Unlock()
	return nil
}

// AntiEntropy merges a live peer's full snapshot into replica id — the
// final convergence step an operator runs after an outage window, closing
// the gap for deliveries that committed while the replica was down but
// after its restart-time state fetch.
func (c *AstroCluster) AntiEntropy(id, donor types.ReplicaID) error {
	rep, d := c.Replica(id), c.Replica(donor)
	if rep == nil {
		return fmt.Errorf("sim: unknown replica %d", id)
	}
	if d == nil {
		return fmt.Errorf("sim: unknown replica %d", donor)
	}
	return rep.MergeFullSnapshot(d.FullSnapshot())
}

// CatchUpAll is the operator's catch-up after an outage, standing in for
// the retransmission the broadcast layer does not have (ROADMAP item 2):
// every live replica merges every other live replica's full snapshot,
// repeated until a round leaves every xlog length unchanged. One-way
// AntiEntropy pulls are not enough after a partition — the donor may
// itself be behind, and a replica that was cut off can hold settled
// entries nobody else has.
func (c *AstroCluster) CatchUpAll() error {
	c.stateMu.RLock()
	var live []*core.Replica
	for id, rep := range c.Replicas {
		if !c.Net.Crashed(transport.ReplicaNode(id)) {
			live = append(live, rep)
		}
	}
	c.stateMu.RUnlock()
	// Merges only ever adopt longer xlogs, so the total is monotone and an
	// unchanged total means no xlog grew.
	for before := -1; ; {
		after := 0
		for _, rep := range live {
			for _, donor := range live {
				if donor == rep {
					continue
				}
				if err := rep.MergeFullSnapshot(donor.FullSnapshot()); err != nil {
					return fmt.Errorf("sim: catch-up of replica %d from %d: %w", rep.ID(), donor.ID(), err)
				}
			}
			for _, xlog := range rep.StateSnapshot() {
				after += len(xlog)
			}
		}
		if after == before {
			return nil
		}
		before = after
	}
}

// Client returns (creating on first use) the client with the given id.
// On a ClientAuth deployment the client signs every payment with a key
// registered on creation.
func (c *AstroCluster) Client(id types.ClientID) *core.Client {
	if cl, ok := c.clients[id]; ok {
		return cl
	}
	mux := c.clientMux(id)
	var cl *core.Client
	if c.clientReg != nil {
		cl = core.NewAuthClient(id, c.repOf, mux, c.ClientKey(id))
	} else {
		cl = core.NewClient(id, c.repOf, mux)
	}
	c.clients[id] = cl
	return cl
}

// clientMux builds a mux on a client's transport node, chaos-wrapped
// like every other endpoint. One mux per node: a second would steal the
// first's endpoint handler.
func (c *AstroCluster) clientMux(id types.ClientID) *transport.Mux {
	mux := transport.NewMux(c.ctl.Wrap(c.Net.Node(transport.ClientNode(id))))
	c.muxes = append(c.muxes, mux)
	return mux
}

// ClientKey returns (generating and registering on first use) a client's
// signing key pair. Only valid on ClientAuth deployments — hostile
// clients use it to model a *corrupted* client that equivocates under
// its own genuine key.
func (c *AstroCluster) ClientKey(id types.ClientID) *crypto.KeyPair {
	if c.clientReg == nil {
		return nil
	}
	if kp, ok := c.clientKeys[id]; ok {
		return kp
	}
	kp := crypto.MustGenerateKeyPair()
	c.clientKeys[id] = kp
	c.clientReg.Add(id, kp.Public())
	return kp
}

// RepOf exposes the representative mapping.
func (c *AstroCluster) RepOf(id types.ClientID) types.ReplicaID { return c.repOf(id) }

// Crash crash-stops a replica.
func (c *AstroCluster) Crash(r types.ReplicaID) { c.Net.Crash(transport.ReplicaNode(r)) }

// TotalSettled sums settles across replicas (each payment counts once per
// replica; divide by replica count for per-payment figures).
func (c *AstroCluster) TotalSettled() uint64 {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	var sum uint64
	for _, r := range c.Replicas {
		sum += r.SettledCount()
	}
	return sum
}

// CreditRefStats aggregates the credit-channel chain-reference counters
// across replicas: references sent, definitions demanded, reference cache
// hits/misses, and NACK fallback traffic — the experiment harness samples
// it to report how often a reference resolved without a round trip.
func (c *AstroCluster) CreditRefStats() core.CreditRefStats {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	var sum core.CreditRefStats
	for _, r := range c.Replicas {
		sum.Add(r.CreditRefStats())
	}
	return sum
}

// Close shuts the deployment down: the network stops delivering, every
// mux drains its in-flight handlers, and the replicas release their
// scheduler flows (the lane runtime is shared and keeps running).
func (c *AstroCluster) Close() {
	c.Net.Close()
	for _, m := range c.muxes {
		m.Close()
	}
	for _, r := range c.Replicas {
		r.Close()
	}
}

// ConsensusOpts configures a consensus-baseline deployment.
type ConsensusOpts struct {
	// N is the replica count.
	N int
	// Latency is the link latency model. Defaults to memnet.EuropeWAN().
	Latency memnet.LatencyModel
	// BatchSize and BatchDelay tune leader batching.
	BatchSize  int
	BatchDelay time.Duration
	// RequestTimeout is the view-change suspicion timeout.
	RequestTimeout time.Duration
	// ViewChangeSyncCost models the new leader's synchronization work
	// (zero selects the default, which scales with N).
	ViewChangeSyncCost time.Duration
	// Genesis is the flat initial balance for every client.
	Genesis types.Amount
	// Bandwidth is the per-node egress capacity in bytes/sec; 0 selects
	// the paper's ~30 MiB/s, negative disables the bandwidth model.
	Bandwidth float64
	// Seed feeds the network jitter generator and the cluster's chaos
	// controller.
	Seed uint64
}

// ConsensusCluster is a running consensus-baseline deployment.
type ConsensusCluster struct {
	Net      *memnet.Network
	Replicas []*consensus.Replica
	IDs      []types.ReplicaID
	F        int
	linkFaults

	clients map[types.ClientID]*consensus.Client
	muxes   []*transport.Mux
}

// NewConsensusCluster builds and starts a deployment.
func NewConsensusCluster(opts ConsensusOpts) (*ConsensusCluster, error) {
	if opts.N < 4 {
		return nil, fmt.Errorf("sim: consensus needs N >= 4, got %d", opts.N)
	}
	if opts.Latency == nil {
		opts.Latency = memnet.EuropeWAN()
	}
	if opts.Genesis == 0 {
		opts.Genesis = 1 << 40
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	net := networkFor(opts.Latency, opts.Bandwidth, opts.Seed)
	c := &ConsensusCluster{
		Net:        net,
		F:          types.MaxFaults(opts.N),
		linkFaults: linkFaults{chaos.NewController(opts.Seed)},
		clients:    make(map[types.ClientID]*consensus.Client),
	}
	for i := 0; i < opts.N; i++ {
		c.IDs = append(c.IDs, types.ReplicaID(i))
	}
	genesis := func(types.ClientID) types.Amount { return opts.Genesis }
	for i := 0; i < opts.N; i++ {
		mux := transport.NewMux(c.ctl.Wrap(net.Node(transport.ReplicaNode(types.ReplicaID(i)))))
		c.muxes = append(c.muxes, mux)
		r, err := consensus.New(consensus.Config{
			Self:               types.ReplicaID(i),
			Replicas:           c.IDs,
			F:                  c.F,
			Mux:                mux,
			Genesis:            genesis,
			BatchSize:          opts.BatchSize,
			BatchDelay:         opts.BatchDelay,
			RequestTimeout:     opts.RequestTimeout,
			ViewChangeSyncCost: opts.ViewChangeSyncCost,
			// BFT-SMaRt authenticates channels with MACs, like Astro I.
			Auth:     crypto.NewLinkAuthenticator(types.ReplicaID(i), []byte("astro-sim-master")),
			Verifier: verifier.Default(),
		})
		if err != nil {
			net.Close()
			return nil, fmt.Errorf("sim: consensus replica %d: %w", i, err)
		}
		c.Replicas = append(c.Replicas, r)
	}
	return c, nil
}

// Client returns (creating on first use) the client with the given id.
func (c *ConsensusCluster) Client(id types.ClientID) *consensus.Client {
	if cl, ok := c.clients[id]; ok {
		return cl
	}
	mux := transport.NewMux(c.ctl.Wrap(c.Net.Node(transport.ClientNode(id))))
	c.muxes = append(c.muxes, mux)
	cl := consensus.NewClient(id, c.IDs, c.F, mux)
	c.clients[id] = cl
	return cl
}

// Leader returns the leader of view 0 (replica 0).
func (c *ConsensusCluster) Leader() types.ReplicaID { return c.IDs[0] }

// Crash crash-stops a replica.
func (c *ConsensusCluster) Crash(r types.ReplicaID) { c.Net.Crash(transport.ReplicaNode(r)) }

// Close shuts the deployment down.
func (c *ConsensusCluster) Close() {
	c.Net.Close()
	for _, m := range c.muxes {
		m.Close()
	}
}
