// Robustness: the property the paper's Figures 5-7 demonstrate — Astro's
// throughput is unaffected by a crashed or slowed replica (beyond the
// clients it represented), because there is no leader.
//
// Phase 1 (crash-stop): ten clients pump payments through a 7-replica
// system with durable (WAL-backed) replicas; partway through we kill -9
// one replica, then restart it from its on-disk state. Watch per-second
// throughput: it dips only by the share of clients represented by the
// killed replica, and those clients resume once it is back. At the end
// the demo audits the safety story: FIFO exclusive logs on every replica,
// no double endorsements, and conservation of money across the crash.
//
// Phase 2 (Byzantine + chaos): a fresh 4-replica system runs under a
// seeded chaos profile (frame drop, corruption, duplication, extra
// delay) while one replica actively equivocates — conflicting PREPAREs
// for the same log slot, the double-spend attack — with a continuous
// invariant audit running the whole time. f = 1 faulty out of 4 is
// within the paper's tolerance, so the audit must come back clean.
//
// Phase 3 (scheduled partition + kill -9 + hardened clients): a durable
// 4-replica system arms a chaos *schedule* — the same mini-language
// cmd/astro-node's -chaos-schedule flag speaks — that partitions one
// replica away mid-run and heals it later, entirely on a timer. While
// the partition holds, a second replica is killed -9 and restarted from
// its WAL. Clients drive Client.PayReliable, the hardened retry loop
// (idempotent resubmission, jittered backoff, sequence resync), so every
// payment either settles exactly once or reports failure honestly; at
// the end, conservation must hold across partition, crash, and recovery.
//
// See RUNBOOK.md for the full chaos-engineering recipe these phases are
// built from.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"astro"
)

func main() {
	dataDir, err := os.MkdirTemp("", "astro-robustness-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	sys, err := astro.New(astro.Options{
		Replicas:   7,
		Genesis:    1 << 40,
		WANLatency: true,    // the paper's multi-region latency profile
		DataDir:    dataDir, // durable replicas: kill -9 is survivable
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	const (
		nClients  = 10
		seconds   = 9
		killAt    = 3
		restartAt = 6
		sink      = astro.ClientID(100)
	)
	victim := sys.RepresentativeOf(1)

	// Count confirmations separately for clients of the doomed replica
	// (fate-sharing: they stall while it is down) and everyone else.
	var confirmedAffected, confirmedOthers atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	affected := 0
	for i := 0; i < nClients; i++ {
		cid := astro.ClientID(i + 1)
		counter := &confirmedOthers
		if sys.RepresentativeOf(cid) == victim {
			counter = &confirmedAffected
			affected++
		}
		c := sys.Client(cid)
		wg.Add(1)
		go func(c *astro.Client, counter *atomic.Uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id, err := c.Pay(sink, 1)
				if err != nil {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				if err := c.WaitConfirm(id, 2*time.Second); err != nil {
					// The representative may be down or freshly restarted:
					// resynchronize the sequence number and re-drive.
					c.SyncSeq(2 * time.Second)
				}
				counter.Add(1)
			}
		}(c, counter)
	}

	fmt.Printf("running %d clients over 7 durable replicas; kill -9 replica %d (representing %d clients) at t=%ds, restart at t=%ds\n",
		nClients, victim, affected, killAt, restartAt)

	lastA, lastO := uint64(0), uint64(0)
	for s := 1; s <= seconds; s++ {
		time.Sleep(time.Second)
		marker := ""
		switch s {
		case killAt:
			sys.Kill(victim)
			marker = fmt.Sprintf("   <- replica %d killed (-9, no flush)", victim)
		case restartAt:
			if err := sys.Restart(victim); err != nil {
				log.Fatal(err)
			}
			marker = fmt.Sprintf("   <- replica %d restarted from its WAL", victim)
		}
		curA, curO := confirmedAffected.Load(), confirmedOthers.Load()
		fmt.Printf("t=%ds  unaffected clients %4d pps | killed rep's clients %4d pps%s\n",
			s, curO-lastO, curA-lastA, marker)
		lastA, lastO = curA, curO
	}
	close(stop)
	wg.Wait()

	// Close the window between the restart-time state fetch and live
	// resubscription, then audit the safety story.
	var donor astro.ReplicaID
	for _, id := range sys.Replicas() {
		if id != victim {
			donor = id
			break
		}
	}
	if err := sys.AntiEntropy(victim, donor); err != nil {
		log.Fatal(err)
	}

	clients := make([]astro.ClientID, 0, nClients+1)
	for i := 0; i < nClients; i++ {
		clients = append(clients, astro.ClientID(i+1))
	}
	clients = append(clients, sink)
	genesisTotal := astro.Amount(len(clients)) << 40

	deadline := time.Now().Add(15 * time.Second)
	for {
		var total astro.Amount
		for _, c := range clients {
			total += sys.Balance(c)
		}
		if total == genesisTotal {
			fmt.Printf("conservation: every unit of the %d-client genesis is spendable after the crash\n", len(clients))
			break
		}
		if total > genesisTotal {
			log.Fatalf("money created: %d > %d", total, genesisTotal)
		}
		if time.Now().After(deadline) {
			log.Fatalf("conservation violated: spendable total %d, genesis %d", total, genesisTotal)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, r := range sys.Replicas() {
		for _, c := range clients {
			if _, ok := sys.Audit(r, c); !ok {
				log.Fatalf("replica %d: client %d exclusive log failed audit", r, c)
			}
		}
	}
	fmt.Println("audit: FIFO exclusive logs on all 7 replicas, no equivocation, across a kill -9;")
	fmt.Println("the system has no leader: only the killed representative's own clients paused, and they resumed on restart")

	byzantineChaosPhase()
}

// byzantineChaosPhase drives phase 2: payments under an equivocating
// replica AND a lossy, corrupting, reordering network, with the
// invariant auditor sampling throughout.
func byzantineChaosPhase() {
	fmt.Println()
	sys, err := astro.New(astro.Options{
		Replicas: 4,
		Genesis:  1 << 40,
		Chaos: &astro.ChaosProfile{
			Seed: 42, // same seed, same chaos: runs are reproducible
			Rule: "drop=0.02,corrupt=0.01,dup=0.02,delay=200us-2ms",
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	const nClients = 4
	clients := make([]astro.ClientID, nClients)
	for i := range clients {
		clients[i] = astro.ClientID(i + 1)
	}
	// The attacker: a replica representing none of our spenders would be
	// too gentle — pick client 1's own representative.
	attacker := sys.RepresentativeOf(1)
	stopAudit := sys.StartAudit(clients, attacker)
	if err := sys.InjectFault(attacker, astro.FaultEquivocate); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: 4 replicas under chaos (2%% drop, 1%% corruption, 2%% duplication, up to 2ms extra delay);\n")
	fmt.Printf("replica %d equivocates on every PREPARE; continuous invariant audit armed\n", attacker)

	var confirmed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, cid := range clients {
		c := sys.Client(cid)
		wg.Add(1)
		go func(c *astro.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id, err := c.Pay(astro.ClientID(100), 1)
				if err != nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if err := c.WaitConfirm(id, 2*time.Second); err != nil {
					c.SyncSeq(2 * time.Second)
					continue
				}
				confirmed.Add(1)
			}
		}(c)
	}
	time.Sleep(3 * time.Second)
	close(stop)
	wg.Wait()

	report := stopAudit()
	chaosStats := sys.ChaosStats()
	fmt.Printf("chaos applied: %d frames sent, %d dropped, %d corrupted, %d duplicated, %d delayed\n",
		chaosStats.Sent, chaosStats.Dropped, chaosStats.Corrupted, chaosStats.Duplicated, chaosStats.Delayed)
	fmt.Printf("confirmed %d payments; audit sampled %d times\n", confirmed.Load(), report.Samples)
	if len(report.Violations) > 0 {
		for _, v := range report.Violations {
			fmt.Println("  VIOLATION:", v)
		}
		log.Fatal("invariants violated with f faulty — tolerance claim broken")
	}
	fmt.Println("audit: zero violations — one equivocating replica plus network chaos is within Astro's f-tolerance")

	scheduledPartitionPhase()
}

// scheduledPartitionPhase drives phase 3: a timed chaos schedule
// partitions replica 3 away and heals it, a kill -9/WAL-restart cycle
// hits replica 1 while the partition holds, and the clients ride through
// on the hardened retry loop.
func scheduledPartitionPhase() {
	fmt.Println()
	dataDir, err := os.MkdirTemp("", "astro-robustness3-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	sys, err := astro.New(astro.Options{
		Replicas: 4,
		Genesis:  1 << 40,
		DataDir:  dataDir,
		Chaos: &astro.ChaosProfile{
			Seed: 7,
			Rule: "drop=0.01,dup=0.01,delay=100us-800us",
			// Offsets are relative to New: partition replica 3 away at
			// t=1s, heal at t=3s. The same string works verbatim as
			// astro-node's -chaos-schedule across real TCP processes.
			Schedule: "1s:part=0 1 2|3;3s:heal",
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	const nClients = 4
	clients := make([]astro.ClientID, nClients)
	for i := range clients {
		clients[i] = astro.ClientID(i + 1)
	}
	stopAudit := sys.StartAudit(append(append([]astro.ClientID{}, clients...), 100))
	fmt.Println("phase 3: timed schedule partitions replica 3 at t=1s, heals at t=3s;")
	fmt.Println("replica 1 is killed -9 at t=1.5s and restarted from its WAL at t=2.5s; hardened clients throughout")

	var settled, gaveUp atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	pol := astro.RetryPolicy{Attempts: 10, Timeout: time.Second}
	for _, cid := range clients {
		c := sys.Client(cid)
		wg.Add(1)
		go func(c *astro.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.PayReliable(astro.ClientID(100), 1, pol); err != nil {
					gaveUp.Add(1)
				} else {
					settled.Add(1)
				}
			}
		}(c)
	}

	time.Sleep(1500 * time.Millisecond)
	sys.Kill(1)
	time.Sleep(time.Second)
	if err := sys.Restart(1); err != nil {
		log.Fatal(err)
	}
	time.Sleep(2 * time.Second) // heal fires at t=3s; let traffic recover
	close(stop)
	wg.Wait()

	// Reconcile credits stranded by the partition and the crash, then
	// check conservation over everyone who ever held money.
	all := append(append([]astro.ClientID{}, clients...), 100)
	genesisTotal := astro.Amount(len(all)) << 40
	deadline := time.Now().Add(20 * time.Second)
	for {
		for _, id := range sys.Replicas() {
			for _, donor := range sys.Replicas() {
				if donor != id {
					if err := sys.AntiEntropy(id, donor); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
		var total astro.Amount
		for _, c := range all {
			total += sys.Balance(c)
		}
		if total == genesisTotal {
			break
		}
		if total > genesisTotal {
			log.Fatalf("money created: %d > %d", total, genesisTotal)
		}
		if time.Now().After(deadline) {
			log.Fatalf("conservation violated after partition+crash: spendable %d, genesis %d", total, genesisTotal)
		}
		time.Sleep(100 * time.Millisecond)
	}

	report := stopAudit()
	fmt.Printf("settled %d payments (%d gave up honestly) across partition, kill -9, and WAL restart\n",
		settled.Load(), gaveUp.Load())
	if len(report.Violations) > 0 {
		for _, v := range report.Violations {
			fmt.Println("  VIOLATION:", v)
		}
		log.Fatal("invariants violated — partition+crash tolerance claim broken")
	}
	fmt.Printf("audit: %d samples, zero violations; conservation holds — every unit of genesis is spendable again\n", report.Samples)
}
