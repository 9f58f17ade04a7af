// Command astro-soak is the long-running survival harness: a durable
// N-replica Astro II deployment (N >= 7, WAL-backed, client signatures
// on) driven for minutes under the full fault palette at once —
// randomized kill -9/WAL-restart cycles, a rotating Byzantine replica
// behavior on a fixed faulty seat, a Byzantine client storming the
// payment edge, and seeded network chaos — while the invariant auditor
// samples consistent state cuts the whole time.
//
//	astro-soak -duration 2m
//	astro-soak -duration 30m -n 10 -clients 16 -seed 7 \
//	    -chaos 'drop=0.02,dup=0.01,delay=200us-2ms' -kill-every 10s
//
// The run ends with a convergence window (faults disarmed, chaos healed,
// anti-entropy, final audit pass + quiescent conservation check) and a
// summary; exit status 1 if any invariant was ever violated, the final
// quiescent check fails, or honest clients made no progress. This is a
// harness, not a CI test — `make soak` runs it; CI runs the bounded
// `make chaos-smoke-tcp` instead.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"astro/internal/core"
	"astro/internal/shard"
	"astro/internal/sim"
	"astro/internal/transport/chaos"
	"astro/internal/transport/memnet"
	"astro/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "astro-soak:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		duration  = flag.Duration("duration", 2*time.Minute, "soak duration (excluding the convergence window)")
		n         = flag.Int("n", 7, "replica count (>= 7 so f >= 2: one Byzantine seat plus a crash victim)")
		clients   = flag.Int("clients", 8, "honest client count")
		seed      = flag.Uint64("seed", 1, "seed for chaos, kill scheduling, and network jitter")
		killEvery = flag.Duration("kill-every", 15*time.Second, "cadence of kill -9/restart cycles (0 disables)")
		chaosRule = flag.String("chaos", "drop=0.01,dup=0.01,delay=200us-1ms", "chaos default rule (empty disables)")
		rotate    = flag.Duration("rotate", 20*time.Second, "Byzantine behavior rotation cadence on the faulty seat")
		sample    = flag.Duration("sample", 100*time.Millisecond, "auditor sampling interval")
		dataDir   = flag.String("data-dir", "", "WAL directory (default: a fresh temp dir)")
	)
	flag.Parse()
	if *n < 7 {
		return fmt.Errorf("-n must be >= 7 (f >= 2), got %d", *n)
	}

	dir := *dataDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "astro-soak-*"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}

	var ctrl *chaos.Controller
	if *chaosRule != "" {
		rule, err := chaos.ParseRule(*chaosRule)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		prof := chaos.Profile{Seed: *seed, Default: rule}
		var stopChaos func()
		ctrl, stopChaos = prof.Start()
		defer stopChaos()
	}

	c, err := sim.NewAstroCluster(sim.AstroOpts{
		Version:          core.AstroII,
		Topology:         shard.Topology{NumShards: 1, PerShard: *n},
		Latency:          memnet.Uniform(200*time.Microsecond, 2*time.Millisecond),
		BatchSize:        64,
		BatchDelay:       2 * time.Millisecond,
		Seed:             *seed,
		DataDir:          dir,
		WALSnapshotEvery: 64,
		Chaos:            ctrl,
		ClientAuth:       true,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	// The fixed Byzantine seat: the highest replica id, excluded from the
	// audit (the paper's claims quantify over correct replicas) and from
	// the kill rotation (its behavior should stay armed, not crash).
	byzSeat := types.ReplicaID(*n - 1)
	kinds := []sim.FaultKind{
		sim.FaultEquivocate, sim.FaultWithholdCommits, sim.FaultForgeRefs,
		sim.FaultStaleView,
	}

	// Audit every account that ever holds money: honest clients, the
	// hostile client, and the storm's beneficiaries (already honest ids).
	hostileID := types.ClientID(*clients + 1)
	auditIDs := make([]types.ClientID, 0, *clients+1)
	for i := 1; i <= *clients; i++ {
		auditIDs = append(auditIDs, types.ClientID(i))
	}
	auditIDs = append(auditIDs, hostileID)
	aud := c.NewAuditor(sim.AuditorConfig{
		Clients:       auditIDs,
		Genesis:       1 << 40,
		Faulty:        map[types.ReplicaID]bool{byzSeat: true},
		Interval:      *sample,
		MaxViolations: 128,
	})

	// Hostile client: seed settled history, then storm the edge for the
	// whole run.
	hostile := c.Hostile(hostileID)
	settled, frame, err := hostile.SettleOne(1, 5, 30*time.Second)
	if err != nil {
		return fmt.Errorf("hostile seed payment: %w", err)
	}

	fmt.Printf("astro-soak: n=%d f=%d byz-seat=%d clients=%d hostile=%d chaos=%q kill-every=%v duration=%v dir=%s\n",
		*n, (*n-1)/3, byzSeat, *clients, hostileID, *chaosRule, *killEvery, *duration, dir)

	aud.Start()
	stop := make(chan struct{})
	go hostile.Storm(stop, settled, frame)

	// Honest load: every client loops hardened payments. A gave-up
	// payment is tolerated (the representative may be mid-restart); the
	// per-client settled counters in the summary show who progressed.
	done := make(chan types.ClientID, *clients)
	counts := make([]uint64, *clients+1)
	for i := 1; i <= *clients; i++ {
		cl := c.Client(types.ClientID(i))
		ben := types.ClientID(i%*clients + 1)
		idx := i
		go func() {
			defer func() { done <- types.ClientID(idx) }()
			pol := core.RetryPolicy{Attempts: 20, Timeout: 2 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.PayReliable(ben, 1, pol); err == nil {
					counts[idx]++
				}
			}
		}()
	}

	// Fault driver: rotate the Byzantine behavior and run kill/restart
	// cycles against random correct replicas, one at a time.
	rng := rand.New(rand.NewSource(int64(*seed)))
	var kills, rotations int
	rotateT := time.NewTicker(*rotate)
	defer rotateT.Stop()
	killT := time.NewTicker(maxDur(*killEvery, time.Second))
	defer killT.Stop()
	if *killEvery <= 0 {
		killT.Stop()
	}
	end := time.After(*duration)
	if err := c.ArmFault(byzSeat, kinds[0]); err != nil {
		return err
	}
	rotations++

loop:
	for {
		select {
		case <-end:
			break loop
		case <-rotateT.C:
			if err := c.ArmFault(byzSeat, kinds[rotations%len(kinds)]); err != nil {
				return err
			}
			rotations++
		case <-killT.C:
			if *killEvery <= 0 {
				continue
			}
			// Never the Byzantine seat, never two at once: safety claims
			// assume at most f faults, and the seat already burns one.
			victim := types.ReplicaID(rng.Intn(*n - 1))
			if c.Crashed(victim) {
				continue
			}
			c.Kill(victim)
			kills++
			outage := time.Duration(500+rng.Intn(2000)) * time.Millisecond
			time.Sleep(outage)
			if err := c.Restart(victim); err != nil {
				return fmt.Errorf("restart replica %d: %w", victim, err)
			}
		}
	}

	// Convergence window: disarm everything, heal the network, then run
	// anti-entropy rounds until every unit of genesis is spendable again
	// (credits drain asynchronously — in-flight CREDIT certificates and
	// restart catch-up take a few round trips to reconcile).
	close(stop)
	for i := 0; i < *clients; i++ {
		<-done
	}
	_ = c.SetBehavior(byzSeat, nil)
	if ctrl != nil {
		ctrl.Reset()
	}
	// The byzSeat participates in the rounds: its *state* was always
	// honest (behaviors only corrupt frames in flight), and clients it
	// represents need it to reconcile their stranded credits.
	antiEntropyRound := func() error {
		for _, id := range c.ReplicaIDs() {
			if c.Crashed(id) {
				continue
			}
			for _, donor := range c.ReplicaIDs() {
				if donor != id && !c.Crashed(donor) {
					if err := c.AntiEntropy(id, donor); err != nil {
						return fmt.Errorf("anti-entropy %d<-%d: %w", id, donor, err)
					}
				}
			}
		}
		return nil
	}
	var quiescentErr error
	convergeBy := time.Now().Add(60 * time.Second)
	for {
		if quiescentErr = aud.CheckQuiescent(); quiescentErr == nil {
			break
		}
		if time.Now().After(convergeBy) {
			break
		}
		if err := antiEntropyRound(); err != nil {
			return err
		}
		time.Sleep(250 * time.Millisecond)
	}
	report := aud.Stop()

	// ---- summary ----
	var totalPaid uint64
	fmt.Println("=== astro-soak summary ===")
	fmt.Printf("kills=%d behavior-rotations=%d hostile-volleys=%d\n",
		kills, rotations, hostile.Volleys.Load())
	for i := 1; i <= *clients; i++ {
		totalPaid += counts[i]
	}
	fmt.Printf("honest payments settled: %d across %d clients\n", totalPaid, *clients)
	var edge core.EdgeStats
	ids := c.ReplicaIDs()
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		if r := c.Replica(id); r != nil {
			edge.Add(r.EdgeStats())
			fmt.Printf("replica %d: settled=%d edge-rejections=%d\n",
				id, r.SettledCount(), r.EdgeStats().Total())
		}
	}
	fmt.Printf("edge totals: %+v\n", edge)
	fmt.Printf("auditor: %d samples, %d violations (truncated=%v)\n",
		report.Samples, len(report.Violations), report.Truncated)
	for _, v := range report.Violations {
		fmt.Println("VIOLATION", v)
	}
	if quiescentErr != nil {
		fmt.Println("QUIESCENT CHECK FAILED:", quiescentErr)
	} else {
		fmt.Println("quiescent conservation: ok")
	}

	switch {
	case len(report.Violations) > 0:
		return fmt.Errorf("%d invariant violations", len(report.Violations))
	case quiescentErr != nil:
		return quiescentErr
	case totalPaid == 0:
		return fmt.Errorf("no honest payment settled during the soak")
	}
	fmt.Println("astro-soak: survived")
	return nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
