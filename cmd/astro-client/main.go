// Command astro-client drives an Astro deployment started with
// cmd/astro-node, submitting payments and querying balances over TCP.
//
//	astro-client -id 1 -peers 0=127.0.0.1:7000,...  balance
//	astro-client -id 1 -peers ...  pay -to 2 -amount 50 -count 10
//	astro-client -id 1 -peers ...  stats
//	astro-client -id 1 -peers ...  audit -genesis 1000000
//
// Payments ride the hardened retry loop (core.PayReliable): the sequence
// number is assigned and the payment signed once, and the byte-identical
// frame is resent with jittered exponential backoff across lost frames,
// representative restarts, and chaos-level packet loss — a retry can
// re-confirm but never double-spend. Each retry resyncs the sequence view
// first, so a representative that restarted from its WAL mid-run is
// picked up transparently.
//
// stats prints the representative's client-edge rejection counters — the
// observable form of "the replica is absorbing an attack".
//
// audit fetches a full state snapshot from every reachable replica (the
// same state-transfer channel recovering replicas use; nodes must run
// with -data-dir) and runs the invariant battery over the set:
// conservation, per-client FIFO, no duplicate settlement, and agreement.
// Exit status 1 on any violation. Run it against a quiescent deployment —
// mid-traffic cuts can legitimately disagree in transient ways.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"astro/internal/core"
	"astro/internal/reconfig"
	"astro/internal/sim"
	"astro/internal/transport"
	"astro/internal/transport/tcpnet"
	"astro/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "astro-client:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id    = flag.Uint64("id", 1, "this client's identity")
		peers = flag.String("peers", "", "comma-separated id=host:port for every replica")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("usage: astro-client [flags] {pay|balance|stats|audit} [command flags]")
	}

	peerMap, ids, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	ep, err := tcpnet.New(tcpnet.Config{
		Self:  transport.ClientNode(types.ClientID(*id)),
		Peers: peerMap,
	})
	if err != nil {
		return err
	}
	defer ep.Close()
	mux := transport.NewMux(ep)

	repOf := func(c types.ClientID) types.ReplicaID {
		return ids[uint64(c)%uint64(len(ids))]
	}
	client := core.NewClient(types.ClientID(*id), repOf, mux)

	switch flag.Arg(0) {
	case "pay":
		fs := flag.NewFlagSet("pay", flag.ContinueOnError)
		to := fs.Uint64("to", 2, "beneficiary client id")
		amount := fs.Uint64("amount", 1, "amount per payment")
		count := fs.Int("count", 1, "number of payments")
		timeout := fs.Duration("timeout", 5*time.Second, "per-attempt confirmation timeout")
		attempts := fs.Int("attempts", 8, "submit attempts per payment before giving up")
		backoff := fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubled per attempt, jittered)")
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			return err
		}
		// The client process is stateless across runs: resync the sequence
		// counter from the replica so a restart does not reuse identifiers
		// that already settled (those payments would silently never settle).
		next, err := client.SyncSeq(*timeout)
		if err != nil {
			return fmt.Errorf("sync seq: %w", err)
		}
		if next > 1 {
			fmt.Printf("resuming at seq %d\n", next)
		}
		pol := core.RetryPolicy{
			Attempts: *attempts,
			Timeout:  *timeout,
			Backoff:  *backoff,
		}
		start := time.Now()
		for i := 0; i < *count; i++ {
			pid, err := client.PayReliable(types.ClientID(*to), types.Amount(*amount), pol)
			if err != nil {
				return fmt.Errorf("payment %v: %w", pid, err)
			}
			fmt.Printf("settled %v: %d -> %d amount %d\n", pid, *id, *to, *amount)
		}
		elapsed := time.Since(start)
		fmt.Printf("%d payments in %v (%.1f pps)\n", *count, elapsed.Round(time.Millisecond),
			float64(*count)/elapsed.Seconds())
		return nil
	case "balance":
		bal, err := client.QueryBalance(10 * time.Second)
		if err != nil {
			return fmt.Errorf("balance: %w", err)
		}
		fmt.Printf("client %d balance: %d\n", *id, bal)
		return nil
	case "stats":
		s, err := client.QueryStats(10 * time.Second)
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		fmt.Printf("replica %d edge rejections (total %d):\n", repOf(types.ClientID(*id)), s.Total())
		fmt.Printf("  malformed=%d spoofed=%d wrong-rep=%d bad-sig=%d\n",
			s.Malformed, s.Spoofed, s.WrongRep, s.BadSig)
		fmt.Printf("  seq-zero=%d future-seq=%d settled-replay=%d conflicting=%d\n",
			s.SeqZero, s.FutureSeq, s.SettledReplay, s.Conflicting)
		fmt.Printf("  held-overflow=%d credit-outsider=%d\n", s.HeldOverflow, s.CreditOutsider)
		return nil
	case "audit":
		fs := flag.NewFlagSet("audit", flag.ContinueOnError)
		version := fs.Int("version", 2, "Astro variant the deployment runs (1 or 2)")
		genesis := fs.Uint64("genesis", 1_000_000, "initial balance of every client (must match the nodes)")
		timeout := fs.Duration("timeout", 10*time.Second, "per-replica snapshot fetch timeout")
		if err := fs.Parse(flag.Args()[1:]); err != nil {
			return err
		}
		v := core.AstroII
		if *version == 1 {
			v = core.AstroI
		}
		exports := make(map[types.ReplicaID][]core.AccountExport)
		for _, rid := range ids {
			snap, err := reconfig.FetchState(reconfig.FetchConfig{
				Mux: mux, Peers: []types.ReplicaID{rid}, Timeout: *timeout,
			})
			if err != nil {
				fmt.Printf("replica %d: snapshot unavailable (%v) — skipping\n", rid, err)
				continue
			}
			accs, err := core.DecodeAuditAccounts(snap)
			if err != nil {
				return fmt.Errorf("replica %d: decode snapshot: %w", rid, err)
			}
			exports[rid] = accs
			fmt.Printf("replica %d: snapshot fetched (%d accounts)\n", rid, len(accs))
		}
		if len(exports) == 0 {
			return fmt.Errorf("no replica answered a snapshot request (nodes need -data-dir)")
		}
		violations := sim.AuditExports(v, types.Amount(*genesis), exports)
		if len(violations) == 0 {
			fmt.Printf("audit clean: %d replicas, all invariants hold\n", len(exports))
			return nil
		}
		for _, viol := range violations {
			fmt.Println("VIOLATION", viol)
		}
		return fmt.Errorf("%d invariant violations", len(violations))
	default:
		return fmt.Errorf("unknown command %q", flag.Arg(0))
	}
}

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
	return peers, ids, nil
}
