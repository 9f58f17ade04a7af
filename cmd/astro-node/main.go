// Command astro-node runs one Astro replica over real TCP, for
// multi-process deployments.
//
// A four-replica Astro II deployment on one machine:
//
//	astro-node -id 0 -listen :7000 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003 &
//	astro-node -id 1 -listen :7001 -peers ... &
//	astro-node -id 2 -listen :7002 -peers ... &
//	astro-node -id 3 -listen :7003 -peers ... &
//
// then drive it with cmd/astro-client.
//
// Keys are derived deterministically from -secret so all nodes share a
// registry without a distribution step — a demo convenience; production
// deployments distribute independently generated keys. Astro II's PREPARE
// tags are keyed by ECDH between these key pairs, so they are exactly as
// secret as the keys; -secret also keys Astro I's link MACs directly.
//
// # Durability
//
// With -data-dir the replica keeps an append-only write-ahead log plus
// periodic compacted snapshots under the given directory, and survives
// kill -9: restart the process with the same flags and it replays its
// log, fetches what it missed from live peers, re-requests any CREDIT
// certificates lost while it was down, and resumes serving. The
// directory belongs to exactly one replica identity — never share it
// between nodes or reuse it under a different -id. On SIGINT/SIGTERM the
// node flushes and fsyncs buffered work before exiting, so a graceful
// stop loses nothing; an ungraceful one loses at most what the sync
// contract allows (see internal/wal). Without -data-dir the replica is
// memory-only and a crash is permanent (pre-PR-6 behavior).
//
// Durability is fail-stop: the node checks the write-ahead log and the
// account pager for a failed write once after start-up and then every
// second, and on the first one prints a single
// "event=durability_lost replica=N cause=wal|pager error=..." line to
// standard error and exits with status 1 rather than keep serving with
// nothing reaching the disk. Restart it once the cause (disk full, an
// oversized record, a failed device) is fixed; it recovers like after a
// crash.
//
// # Paged account state
//
// -state-cache N bounds how many accounts the replica holds in memory;
// everything colder pages to an embedded KV store inside -data-dir and
// faults back in on access, and WAL compactions shrink from a full state
// image to the dirty accounts plus a small manifest. Use it when the
// account population dwarfs the working set — memory then scales with
// the hot set, and restart time with the log tail, not with total
// accounts.
//
// Sizing: pick N ≈ 2× the number of distinct accounts active in a
// snapshot interval (spenders and beneficiaries both count), with a
// floor of two per state stripe (32 at the default 16 stripes; smaller
// values are rounded up). Each resident account costs roughly its xlog
// length × 32 bytes plus ~200 bytes of bookkeeping. A cache miss adds
// one random read (~tens of µs on SSDs) to that payment's settlement;
// watch the faults/evictions counters (Replica.PagingStats) — a fault
// rate near the payment rate means N is below the working set and the
// node is thrashing. 0 keeps the pre-paging behavior: every account
// resident, full-image snapshots.
//
// # Chaos and Byzantine faults
//
// -chaos interposes the seeded fault injector on this node's outbound
// traffic, with the rule mini-language from internal/transport/chaos:
//
//	astro-node ... -chaos 'drop=0.03,corrupt=0.01,delay=200us-2ms' -chaos-seed 7
//
// -chaos-schedule arms timed phases (partitions, rule changes, heals).
// Offsets are relative to node start; chaos is outbound-only, so giving
// every node the same schedule string and starting them together yields
// a consistent cluster-wide partition:
//
//	-chaos-schedule '5s:part=0 1|2 3;15s:heal;20s:drop=0.2;30s:clear'
//
// -fault arms a Byzantine replica behavior from the internal/sim suite
// (equivocate, withhold-commits, forge-refs, nack-storm, stale-view) on
// this node — for harness runs only, obviously.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"astro/internal/core"
	"astro/internal/crypto"
	"astro/internal/crypto/verifier"
	"astro/internal/reconfig"
	"astro/internal/sim"
	"astro/internal/transport"
	"astro/internal/transport/chaos"
	"astro/internal/transport/tcpnet"
	"astro/internal/types"
	"astro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "astro-node:", err)
		os.Exit(1)
	}
}

// startGate holds back the endpoint's handler until the node has
// registered its protocol channels. transport.NewMux installs its handler
// at once, and Mux.dispatch discards frames for channels nobody has
// registered yet — so whatever peers and clients sent while NewReplica was
// still replaying its log would be lost. With the handler withheld, tcpnet
// parks those frames and delivers them, in arrival order, on open. Both
// calls come from run's goroutine, before and after NewReplica.
type startGate struct {
	transport.Endpoint
	h      transport.Handler
	opened bool
}

func (g *startGate) SetHandler(h transport.Handler) {
	g.h = h
	if g.opened {
		g.Endpoint.SetHandler(h)
	}
}

func (g *startGate) open() {
	g.opened = true
	if g.h != nil {
		g.Endpoint.SetHandler(g.h)
	}
}

// durabilityCheckEvery is how often a serving node looks for a failed
// WAL or pager write.
const durabilityCheckEvery = time.Second

// durabilityErr reports the replica's first failed durable write, if any.
func durabilityErr(rep *core.Replica) error {
	if err := rep.WALErr(); err != nil {
		return fmt.Errorf("event=durability_lost replica=%d cause=wal error=%q", rep.ID(), err)
	}
	if err := rep.PagerErr(); err != nil {
		return fmt.Errorf("event=durability_lost replica=%d cause=pager error=%q", rep.ID(), err)
	}
	return nil
}

// serve blocks until a shutdown signal (nil) or a durability failure (the
// error to exit with).
func serve(rep *core.Replica, sig <-chan os.Signal, every time.Duration) error {
	check := time.NewTicker(every)
	defer check.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("astro-node: shutting down")
			// Flush and fsync buffered work so a graceful stop loses nothing.
			rep.Close()
			return nil
		case <-check.C:
			// No Close on this path: flushing through a log that has
			// already refused a write would only pretend to durability.
			if err := durabilityErr(rep); err != nil {
				return err
			}
		}
	}
}

func run() error {
	var (
		id         = flag.Int("id", 0, "this replica's identity")
		listen     = flag.String("listen", ":7000", "TCP listen address")
		peers      = flag.String("peers", "", "comma-separated id=host:port for every replica (including this one)")
		version    = flag.Int("version", 2, "Astro variant: 1 (echo-based) or 2 (signature-based)")
		genesis    = flag.Uint64("genesis", 1_000_000, "initial balance of every client")
		secret     = flag.String("secret", "astro-demo", "shared secret for deterministic demo keys")
		batch      = flag.Int("batch", 256, "max payments per broadcast batch")
		delay      = flag.Duration("batch-delay", 5*time.Millisecond, "batch assembly delay bound")
		dataDir    = flag.String("data-dir", "", "durable state directory (WAL + snapshots); empty = memory-only")
		snapEvery  = flag.Int("wal-snapshot-every", 0, "settled batches between WAL compactions (0 = default)")
		stateCache = flag.Int("state-cache", 0, "max accounts resident in memory; cold accounts page to the data directory's KV store (0 = all resident; requires -data-dir)")
		chaosRule  = flag.String("chaos", "", "chaos default rule, e.g. 'drop=0.03,corrupt=0.01,delay=200us-2ms' (empty = off)")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "chaos fault-injection seed")
		chaosSch   = flag.String("chaos-schedule", "", "timed chaos phases, e.g. '5s:part=0 1|2 3;15s:heal' (offsets from node start)")
		fault      = flag.String("fault", "", "arm a Byzantine behavior: equivocate|withhold-commits|forge-refs|nack-storm|stale-view")
	)
	flag.Parse()

	peerMap, ids, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	if _, ok := peerMap[transport.NodeID(*id)]; !ok {
		return fmt.Errorf("-peers must include this replica (id %d)", *id)
	}

	tcp, err := tcpnet.New(tcpnet.Config{
		Self:   transport.NodeID(*id),
		Listen: *listen,
		Peers:  peerMap,
	})
	if err != nil {
		return err
	}
	defer tcp.Close()

	// Endpoint stack, bottom up: TCP, then the chaos injector (so drops
	// and partitions apply to real connections), then the Byzantine
	// interposer (so forged traffic rides the chaos rules like honest
	// frames), then the Mux.
	var ep transport.Endpoint = tcp
	prof := chaos.Profile{Seed: *chaosSeed}
	if *chaosRule != "" {
		if prof.Default, err = chaos.ParseRule(*chaosRule); err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
	}
	if *chaosSch != "" {
		if prof.Schedule, err = chaos.ParseSchedule(*chaosSch); err != nil {
			return fmt.Errorf("-chaos-schedule: %w", err)
		}
	}
	if !prof.Zero() {
		ctrl, stopChaos := prof.Start()
		defer stopChaos()
		ep = ctrl.Wrap(ep)
		fmt.Printf("astro-node: chaos armed (seed %d, rule %q, %d scheduled phases)\n",
			*chaosSeed, chaos.FormatRule(prof.Default), len(prof.Schedule))
	}

	registry := crypto.NewRegistry()
	var myKeys *crypto.KeyPair
	for _, rid := range ids {
		kp, err := crypto.DeriveKeyPair([]byte(fmt.Sprintf("%s/%d", *secret, rid)))
		if err != nil {
			return err
		}
		registry.Add(rid, kp.Public())
		if rid == types.ReplicaID(*id) {
			myKeys = kp
		}
	}

	if *fault != "" {
		b, err := sim.NewBehavior(sim.FaultKind(*fault), types.ReplicaID(*id),
			crypto.NewKeyedLinkAuthenticator(types.ReplicaID(*id), myKeys, registry), ids)
		if err != nil {
			return err
		}
		ep = sim.WrapBehavior(ep, b)
		fmt.Printf("astro-node: Byzantine behavior %q armed\n", b.Name())
	}
	gate := &startGate{Endpoint: ep}
	mux := transport.NewMux(gate)

	v := core.AstroII
	if *version == 1 {
		v = core.AstroI
	}
	var be wal.Backend
	if *dataDir != "" {
		be, err = wal.OpenAuto(*dataDir, *stateCache > 0)
		if err != nil {
			return err
		}
	} else if *stateCache > 0 {
		return fmt.Errorf("-state-cache requires -data-dir")
	}
	g := types.Amount(*genesis)
	rep, err := core.NewReplica(core.Config{
		Version:    v,
		Self:       types.ReplicaID(*id),
		Replicas:   ids,
		F:          types.MaxFaults(len(ids)),
		Mux:        mux,
		Genesis:    func(types.ClientID) types.Amount { return g },
		BatchSize:  *batch,
		BatchDelay: *delay,
		Auth:       crypto.NewLinkAuthenticator(types.ReplicaID(*id), []byte(*secret)),
		Keys:       myKeys,
		Registry:   registry,
		// One worker per core: a standalone node owns the whole machine,
		// and signature verification is the settlement bottleneck.
		Verifier:           verifier.New(0),
		WAL:                be,
		WALSnapshotEvery:   *snapEvery,
		StateCacheAccounts: *stateCache,
	})
	if err != nil {
		return err
	}
	gate.open()
	if err := durabilityErr(rep); err != nil {
		return err
	}

	if *dataDir != "" {
		if rep.Recovered() {
			// Catch up on deliveries missed while down. FetchState owns the
			// reconfig channel, so run it before NewManager registers the
			// member-side handler. A timeout is survivable — anti-entropy
			// through normal traffic and CREDITREDO still apply — and
			// expected when the whole cluster cold-starts together.
			var others []types.ReplicaID
			for _, rid := range ids {
				if rid != types.ReplicaID(*id) {
					others = append(others, rid)
				}
			}
			snap, err := reconfig.FetchState(reconfig.FetchConfig{
				Mux: mux, Peers: others, Timeout: 10 * time.Second,
			})
			switch {
			case err == nil:
				if err := rep.MergeFullSnapshot(snap); err != nil {
					return fmt.Errorf("peer catch-up: %w", err)
				}
				fmt.Println("astro-node: recovered from WAL and caught up from peers")
			case errors.Is(err, reconfig.ErrFetchTimeout):
				fmt.Println("astro-node: recovered from WAL; no peer answered catch-up (continuing)")
			default:
				return err
			}
		}
		// Serve our own full snapshot to peers recovering later.
		reconfig.NewManager(reconfig.Config{
			Self:        types.ReplicaID(*id),
			Mux:         mux,
			Keys:        myKeys,
			Registry:    registry,
			InitialView: reconfig.View{Num: 1, Members: ids},
			Full:        rep,
		})
	}

	fmt.Printf("astro-node: replica %d (%s) serving %d-replica %v deployment on %s\n",
		*id, tcp.Addr(), len(ids), v, *listen)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	return serve(rep, sig, durabilityCheckEvery)
}

// parsePeers parses "0=host:port,1=host:port,...".
func parsePeers(s string) (map[transport.NodeID]string, []types.ReplicaID, error) {
	if s == "" {
		return nil, nil, fmt.Errorf("-peers is required")
	}
	peers := make(map[transport.NodeID]string)
	var ids []types.ReplicaID
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, nil, fmt.Errorf("bad peer id %q: %w", kv[0], err)
		}
		peers[transport.NodeID(id)] = kv[1]
		ids = append(ids, types.ReplicaID(id))
	}
	if len(ids) < 4 {
		return nil, nil, fmt.Errorf("need at least 4 replicas (3f+1, f>=1), got %d", len(ids))
	}
	return peers, ids, nil
}
