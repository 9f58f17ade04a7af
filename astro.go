// Package astro is a decentralized payment system that avoids consensus:
// payments execute by merely broadcasting messages through Byzantine
// reliable broadcast, as described in "Online Payments by Merely
// Broadcasting Messages" (DSN 2020).
//
// The package is the public facade over the implementation packages:
//
//   - internal/core — exclusive logs, the approve/settle engine, the two
//     Astro variants (echo-based Astro I, signature-based Astro II with
//     CREDIT dependency certificates), representatives, batching, clients;
//   - internal/brb — the two Byzantine reliable broadcast protocols;
//   - internal/shard — asynchronous sharding topology;
//   - internal/consensus — a PBFT-style baseline for comparison;
//   - internal/reconfig — consensus-free membership reconfiguration;
//   - internal/sim, internal/workload, internal/metrics — the experiment
//     harness reproducing the paper's evaluation.
//
// The quickest way to a running system is New, which deploys replicas
// over an in-process simulated network:
//
//	sys, err := astro.New(astro.Options{Replicas: 4, Genesis: 1000})
//	if err != nil { ... }
//	defer sys.Close()
//	alice := sys.Client(1)
//	id, _ := alice.Pay(2, 100)
//	_ = alice.WaitConfirm(id, 5*time.Second)
//
// Multi-process deployments over TCP use cmd/astro-node and
// cmd/astro-client.
package astro

import (
	"fmt"
	"time"

	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/shard"
	"astro/internal/sim"
	"astro/internal/transport/chaos"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

// Re-exported identifier and value types.
type (
	// ClientID identifies a client (the owner of one exclusive log).
	ClientID = types.ClientID
	// ReplicaID identifies a replica.
	ReplicaID = types.ReplicaID
	// Amount is a non-negative quantity of funds.
	Amount = types.Amount
	// Seq is a client-assigned sequence number within an exclusive log.
	Seq = types.Seq
	// PaymentID is the pair (spender, sequence number).
	PaymentID = types.PaymentID
	// Payment is one transfer recorded in the spender's exclusive log.
	Payment = types.Payment
	// Client submits payments to its representative and receives
	// settlement confirmations.
	Client = core.Client
	// RetryPolicy tunes Client.PayReliable, the hardened submit loop
	// (idempotent resubmission with jittered backoff and seq resync).
	RetryPolicy = core.RetryPolicy
	// Replica is one node of an Astro deployment.
	Replica = core.Replica
	// Version selects between the paper's two system variants.
	Version = core.Version
	// Topology partitions replicas into shards.
	Topology = shard.Topology
)

// The two system variants.
const (
	// AstroI uses Bracha's echo-based broadcast (MACs, O(N²), totality).
	AstroI = core.AstroI
	// AstroII uses signature-based broadcast (O(N), dependency
	// certificates, sharding support). The default.
	AstroII = core.AstroII
)

// Options configures an embedded deployment.
type Options struct {
	// Version selects Astro I or Astro II. Default AstroII.
	Version Version
	// Replicas is the replica count for a single-shard deployment.
	// Ignored if Shards is set. Default 4.
	Replicas int
	// Shards configures a sharded deployment (Astro II only).
	Shards Topology
	// Genesis is every client's initial balance.
	Genesis Amount
	// BatchSize caps payments per broadcast batch. Default 256.
	BatchSize int
	// BatchDelay bounds batching latency. Default 5ms.
	BatchDelay time.Duration
	// LinkLatency sets a fixed one-way link latency between replicas.
	// Zero means instant links (fastest; useful for tests). Use
	// WANLatency for the paper's multi-region profile.
	LinkLatency time.Duration
	// WANLatency applies the paper's European multi-region latency
	// profile (~20ms inter-region RTT), overriding LinkLatency.
	WANLatency bool
	// DataDir, when set, makes every replica durable: each keeps an
	// append-only WAL plus compacted snapshots under DataDir/rep<id> and
	// survives Kill + Restart (kill -9 semantics). Empty means
	// memory-only replicas, for which Crash is permanent.
	DataDir string
	// StateCacheAccounts bounds the accounts each replica keeps resident
	// in memory: cold accounts page to an embedded KV store in the
	// replica's data directory and fault back in on access, and WAL
	// snapshots become incremental. Requires DataDir. 0 — the default —
	// keeps every account resident.
	StateCacheAccounts int
	// Chaos, when set, seeds and arms the chaos controller interposed on
	// every link: probabilistic drop, corruption, duplication, reordering,
	// extra delay and scheduled partitions, reproducible from the
	// profile's seed. Without it the controller is still there, quiet, and
	// carries the faults injected through Partition, SetLinkDelay and
	// DelayReplica. See fault.go for the rest of the robustness surface.
	Chaos *ChaosProfile
}

// System is an embedded Astro deployment: replicas over an in-process
// network, with real ECDSA keys, ready to serve clients.
type System struct {
	cluster   *sim.AstroCluster
	topology  Topology
	genesis   Amount
	stopChaos func() // cancels unfired chaos schedule phases
}

// New deploys a system.
func New(opts Options) (*System, error) {
	if opts.Version == 0 {
		opts.Version = AstroII
	}
	top := opts.Shards
	if top.NumShards == 0 {
		n := opts.Replicas
		if n == 0 {
			n = 4
		}
		top = Topology{NumShards: 1, PerShard: n}
	}
	if top.NumShards > 1 && opts.Version != AstroII {
		return nil, fmt.Errorf("astro: sharding requires Astro II")
	}
	var latency memnet.LatencyModel
	switch {
	case opts.WANLatency:
		latency = memnet.EuropeWAN()
	case opts.LinkLatency > 0:
		latency = memnet.Fixed(opts.LinkLatency)
	default:
		latency = memnet.Fixed(0)
	}
	var ctrl *chaos.Controller // nil: the cluster arms a quiet one
	stopChaos := func() {}
	if p := opts.Chaos; p != nil {
		prof := chaos.Profile{Seed: p.Seed}
		var err error
		if prof.Default, err = chaos.ParseRule(p.Rule); err != nil {
			return nil, fmt.Errorf("astro: chaos rule: %w", err)
		}
		if prof.Schedule, err = chaos.ParseSchedule(p.Schedule); err != nil {
			return nil, fmt.Errorf("astro: chaos schedule: %w", err)
		}
		ctrl, stopChaos = prof.Start()
	}
	if opts.StateCacheAccounts > 0 && opts.DataDir == "" {
		stopChaos()
		return nil, fmt.Errorf("astro: StateCacheAccounts requires DataDir")
	}
	cluster, err := sim.NewAstroCluster(sim.AstroOpts{
		Version:            opts.Version,
		Topology:           top,
		Latency:            latency,
		BatchSize:          opts.BatchSize,
		BatchDelay:         opts.BatchDelay,
		Genesis:            opts.Genesis,
		Bandwidth:          -1,   // embedded systems are not bandwidth-simulated
		RealCrypto:         true, // the library always uses real ECDSA
		DataDir:            opts.DataDir,
		StateCacheAccounts: opts.StateCacheAccounts,
		Chaos:              ctrl,
	})
	if err != nil {
		stopChaos()
		return nil, fmt.Errorf("astro: %w", err)
	}
	return &System{cluster: cluster, topology: top, genesis: opts.Genesis, stopChaos: stopChaos}, nil
}

// Client returns the client with the given identity, creating it on first
// use. Not safe for concurrent first-use of the same id.
func (s *System) Client(id ClientID) *Client { return s.cluster.Client(id) }

// Replica returns a replica handle (for balance inspection and audit).
// Safe against a concurrent Restart, which replaces the handle.
func (s *System) Replica(id ReplicaID) *Replica { return s.cluster.Replica(id) }

// Replicas returns all replica identities.
func (s *System) Replicas() []ReplicaID { return s.topology.AllReplicas() }

// Topology returns the deployment's shard topology.
func (s *System) Topology() Topology { return s.topology }

// RepresentativeOf returns the replica brokering a client's payments.
func (s *System) RepresentativeOf(id ClientID) ReplicaID { return s.cluster.RepOf(id) }

// Balance returns a client's spendable balance as seen by its
// representative (settled funds plus pending dependency certificates).
func (s *System) Balance(id ClientID) Amount {
	return s.cluster.Replica(s.cluster.RepOf(id)).Balance(id)
}

// Audit returns a copy of a client's exclusive log from the given replica
// and whether it is internally consistent.
func (s *System) Audit(replica ReplicaID, client ClientID) ([]Payment, bool) {
	r := s.cluster.Replica(replica)
	if r == nil {
		return nil, false
	}
	log := r.XLogSnapshot(client)
	for i, p := range log {
		if p.Spender != client || p.Seq != Seq(i+1) {
			return log, false
		}
	}
	return log, true
}

// Crash crash-stops a replica (fault injection).
func (s *System) Crash(id ReplicaID) { s.cluster.Crash(id) }

// Kill crash-stops a replica with kill -9 semantics: no flush, no
// goodbye — whatever its WAL had synced is all that survives. Requires
// Options.DataDir for the replica to be restartable.
func (s *System) Kill(id ReplicaID) { s.cluster.Kill(id) }

// Restart brings a killed replica back from its on-disk state: WAL
// replay, then catch-up from live peers (state fetch plus CREDIT
// re-request for certificates lost while down). Errors without
// Options.DataDir.
func (s *System) Restart(id ReplicaID) error { return s.cluster.Restart(id) }

// AntiEntropy folds donor's full state into replica id — the idempotent
// catch-up step, useful to close the window between a restarted
// replica's peer fetch and its resubscription to live traffic.
func (s *System) AntiEntropy(id, donor ReplicaID) error { return s.cluster.AntiEntropy(id, donor) }

// DelayReplica injects extra outbound delay at a replica (asynchrony
// injection, like `tc netem delay`); zero removes it. It is a node rule on
// the system's chaos controller, so it replaces the profile's default
// rule on that replica's frames instead of adding to it, and a link set by
// SetLinkDelay keeps its own delay.
func (s *System) DelayReplica(id ReplicaID, d time.Duration) { s.cluster.Delay(id, d) }

// Close shuts the system down.
func (s *System) Close() {
	if s.stopChaos != nil {
		s.stopChaos()
	}
	s.cluster.Close()
}

// GenerateKeyPair creates an ECDSA P-256 key pair, exposed for callers
// assembling custom deployments with the internal packages.
func GenerateKeyPair() (*crypto.KeyPair, error) { return crypto.GenerateKeyPair() }
