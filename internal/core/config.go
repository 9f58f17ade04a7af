// Package core implements the Astro payment protocol (paper §III–§V):
// exclusive logs replicated through Byzantine reliable broadcast,
// client/representative interaction, batching, and — for Astro II — the
// CREDIT/dependency mechanism that replaces totality and enables
// asynchronous sharding.
package core

import (
	"errors"
	"time"

	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/sched"
	"astro/internal/transport"
	"astro/internal/types"
	"astro/internal/wal"
)

// Config assembles one replica of an Astro deployment.
type Config struct {
	// Version selects Astro I (Bracha BRB, direct credits) or Astro II
	// (signed BRB, dependency certificates).
	Version Version
	// Self is this replica's identity.
	Self types.ReplicaID
	// Replicas lists the replicas of this replica's shard (including
	// Self), the broadcast group for its BRB instance.
	Replicas []types.ReplicaID
	// F is the number of Byzantine replicas tolerated per shard;
	// len(Replicas) >= 3F+1.
	F int
	// Mux is the node's transport multiplexer.
	Mux *transport.Mux

	// RepOf maps each client to its representative replica. The mapping
	// is public knowledge (paper §III). Defaults to client mod replicas
	// within the client's shard.
	RepOf func(types.ClientID) types.ReplicaID
	// ShardOf maps each client (xlog) to its shard. Defaults to a single
	// shard.
	ShardOf func(types.ClientID) types.ShardID
	// ReplicaShard maps each replica to its shard. Defaults to shard 0.
	ReplicaShard func(types.ReplicaID) types.ShardID
	// ShardMembers enumerates the replica membership of any shard (nil
	// result = unknown shard) — the directory a restarted representative
	// uses to reach another shard's signers when re-requesting CREDIT
	// signatures for cross-shard spenders (shard.Topology.Directory, or
	// reconfig.ShardDirectory.Members when views change). Defaults to a
	// directory that knows only this replica's own shard, under which
	// cross-shard credit redo degrades to the pre-PR-10 skip.
	ShardMembers func(types.ShardID) []types.ReplicaID
	// Shards lists every shard of the deployment — the enumeration
	// requestCreditRedo walks to send CREDITRESCAN to foreign shards
	// (whose settled payments it cannot name from local state).
	// Defaults to this replica's own shard only.
	Shards []types.ShardID
	// Genesis returns each client's initial balance; it must be identical
	// at all replicas. Defaults to zero balances.
	Genesis func(types.ClientID) types.Amount

	// BatchSize is the maximum payments per broadcast batch (paper uses
	// 256). Defaults to 256.
	BatchSize int
	// BatchDelay bounds how long a submitted payment may wait for its
	// batch to fill. Defaults to 5ms.
	BatchDelay time.Duration
	// Sched is the lane runtime the settlement stripe fan-out executes
	// on: each stripe is pinned to a lane-affine flow, so the steady-state
	// settle path spawns zero goroutines per delivery. Nil selects the
	// process-wide shared runtime (sched.Default()) — the same lanes
	// transport dispatch and the verifier run on.
	Sched *sched.Runtime

	// Auth supplies MAC link authentication for Astro I's broadcast.
	// Astro II keys its PREPARE tags by Keys and Registry instead.
	Auth *crypto.LinkAuthenticator
	// Keys is this replica's signing key (required for Astro II).
	Keys *crypto.KeyPair
	// Registry holds the public keys of all replicas of all shards
	// (required for Astro II).
	Registry *crypto.Registry
	// ClientKeys enables end-to-end client signatures (paper §VI-A):
	// when set, every submission and every batch entry must carry the
	// spender's signature, verified by all replicas before endorsement.
	// Nil disables client authentication (submissions are authenticated
	// by the transport only, and clients trust their representative).
	ClientKeys *crypto.ClientKeys
	// Verifier is the worker pool for signature verification on the
	// settlement hot path: client signatures of a batch are fanned out
	// before endorsement, BRB ack/commit checks run off the transport
	// dispatch goroutine, and CREDIT signatures verify asynchronously.
	// Nil selects the shared process-wide pool (verifier.Default).
	Verifier *verifier.Verifier

	// WAL is the durable-log backend. When set, the replica records
	// endorsements, broadcast-slot reservations, settled batches, and
	// completed dependency certificates through an append-only log plus
	// periodic compacted snapshots (see internal/wal for the durability
	// contract), and NewReplica replays whatever the backend holds before
	// going live — the kill -9 restart path. Nil disables durability
	// entirely; wal.Nop keeps the full logging code path live with zero
	// I/O (the measured overhead baseline).
	WAL wal.Backend
	// WALSnapshotEvery is the number of settled-batch records between
	// compacted snapshots. 0 selects the default (4096); negative disables
	// periodic compaction — the log then grows until Close writes the
	// final snapshot.
	WALSnapshotEvery int
	// StateCacheAccounts bounds the number of accounts held resident in
	// memory (spread across the state stripes, floor two per stripe);
	// cold accounts spill to the WAL backend's embedded KV store and
	// fault back in on access, and WAL snapshots become incremental
	// (dirty accounts + a manifest). Requires a KV-backed WAL
	// (wal.OpenKV / wal.OpenAuto). 0 — the default — keeps every account
	// resident, the measured baseline of every prior PR.
	StateCacheAccounts int
}

// Configuration errors.
var (
	ErrConfigMux     = errors.New("core: config requires Mux")
	ErrConfigQuorum  = errors.New("core: fewer than 3f+1 replicas")
	ErrConfigVersion = errors.New("core: unknown version")
	ErrConfigKeys    = errors.New("core: Astro II requires Keys and Registry")
	// ErrConfigStateCache rejects StateCacheAccounts > 0 without a WAL
	// backend that embeds a KV store (wal.OpenKV / wal.OpenAuto):
	// paging needs somewhere durable to spill cold accounts.
	ErrConfigStateCache = errors.New("core: StateCacheAccounts requires a KV-backed WAL")
)

func (c *Config) normalize() error {
	if c.Mux == nil {
		return ErrConfigMux
	}
	if c.Version != AstroI && c.Version != AstroII {
		return ErrConfigVersion
	}
	if len(c.Replicas) < 3*c.F+1 {
		return ErrConfigQuorum
	}
	if c.Version == AstroII && (c.Keys == nil || c.Registry == nil) {
		return ErrConfigKeys
	}
	if c.RepOf == nil {
		replicas := append([]types.ReplicaID(nil), c.Replicas...)
		c.RepOf = func(cl types.ClientID) types.ReplicaID {
			return replicas[uint64(cl)%uint64(len(replicas))]
		}
	}
	if c.ShardOf == nil {
		c.ShardOf = types.SingleShard
	}
	if c.ReplicaShard == nil {
		c.ReplicaShard = func(types.ReplicaID) types.ShardID { return 0 }
	}
	if c.Genesis == nil {
		c.Genesis = func(types.ClientID) types.Amount { return 0 }
	}
	if c.ShardMembers == nil {
		own := c.ReplicaShard(c.Self)
		members := append([]types.ReplicaID(nil), c.Replicas...)
		c.ShardMembers = func(s types.ShardID) []types.ReplicaID {
			if s != own {
				return nil
			}
			return members
		}
	}
	if len(c.Shards) == 0 {
		c.Shards = []types.ShardID{c.ReplicaShard(c.Self)}
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = 5 * time.Millisecond
	}
	if c.Sched == nil {
		c.Sched = sched.Default()
	}
	if c.Verifier == nil {
		c.Verifier = verifier.Default()
	}
	if c.WALSnapshotEvery == 0 {
		c.WALSnapshotEvery = defaultWALSnapshotEvery
	}
	return nil
}
