package sim

import (
	"testing"
	"time"

	"astro/internal/brb"
	"astro/internal/core"
	"astro/internal/shard"
	"astro/internal/transport"
	"astro/internal/types"
)

// byzCluster builds a 4-node Astro II deployment for adversarial runs.
// Sim crypto keeps acks in the single-slot wire form the equivocation
// harvest reads; forge-refs runs flip realCrypto on so the chain-signed
// CREDITTABs that behavior attacks actually engage.
func byzCluster(t *testing.T, seed uint64, realCrypto bool, dataDir string) *AstroCluster {
	t.Helper()
	c, err := NewAstroCluster(AstroOpts{
		Version:    core.AstroII,
		Topology:   shard.Topology{NumShards: 1, PerShard: 4},
		Latency:    fastLatency(),
		BatchSize:  8,
		BatchDelay: time.Millisecond,
		RealCrypto: realCrypto,
		Seed:       seed,
		DataDir:    dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func auditorFor(c *AstroCluster, faulty ...types.ReplicaID) *Auditor {
	fm := make(map[types.ReplicaID]bool, len(faulty))
	for _, id := range faulty {
		fm[id] = true
	}
	return c.NewAuditor(AuditorConfig{
		Clients: []types.ClientID{1, 2, 3, 4},
		Genesis: 1 << 40,
		Faulty:  fm,
	})
}

func requireCleanReport(t *testing.T, rep AuditReport) {
	t.Helper()
	if rep.Samples == 0 {
		t.Fatal("auditor never sampled")
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
}

// TestByzantineFaultMatrix runs every Byzantine behavior with exactly f
// faulty replicas under the always-on auditor: the paper's tolerance
// claim says correct replicas keep every invariant, so the report must be
// empty — and the behavior's engagement counters prove the attack
// actually fired rather than idling.
func TestByzantineFaultMatrix(t *testing.T) {
	kinds := []FaultKind{
		FaultEquivocate, FaultWithholdCommits, FaultForgeRefs,
		FaultStaleView,
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			real := kind == FaultForgeRefs
			dataDir := ""
			if kind == FaultStaleView {
				// Reconfig managers (the stale-view attack surface) are
				// only wired up on durable deployments.
				dataDir = t.TempDir()
			}
			c := byzCluster(t, 100+uint64(len(kind)), real, dataDir)
			target := c.RepOf(1)
			aud := auditorFor(c, target)
			aud.Start()
			if err := c.ArmFault(target, kind); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			wg := runLoad(c, stop)
			time.Sleep(600 * time.Millisecond)
			close(stop)
			wg.Wait()
			requireCleanReport(t, aud.Stop())

			switch beh := c.Behavior(target).(type) {
			case *Equivocate:
				if beh.Equivocated.Load() == 0 {
					t.Error("no variant-B prepares sent: attack never engaged")
				}
				if beh.ForgedCommit.Load() != 0 {
					t.Errorf("%d forged commits with only f faulty: certB must starve below quorum",
						beh.ForgedCommit.Load())
				}
			case *WithholdCommits:
				if beh.Suppressed.Load() == 0 {
					t.Error("no commits suppressed: attack never engaged")
				}
			case *ForgeChainRefs:
				if beh.Corrupted.Load() == 0 {
					t.Error("no frames corrupted: credit chain wire forms never engaged")
				}
			case *StaleViewReconfig:
				if beh.Volleys.Load() == 0 {
					t.Error("no stale-view volleys sent: attack never engaged")
				}
			default:
				t.Fatalf("unexpected behavior %T", beh)
			}
		})
	}
}

// TestEquivocationBreaksAtFPlusOne is the other half of the tolerance
// claim: with f+1 colluding replicas — an equivocator plus an AckAll
// accomplice that signs both variants — a conflicting certificate reaches
// the 2f+1 quorum, the victim settles variant B while the remaining
// correct replica settles A, and the auditor must report the agreement
// violation. The documented degradation, observed.
func TestEquivocationBreaksAtFPlusOne(t *testing.T) {
	c := byzCluster(t, 31, false, "")
	equiv := c.RepOf(1)

	// Cast the remaining three replicas: one accomplice, one victim, one
	// bystander that stays honest and converges on variant A.
	var accomplice, victim types.ReplicaID
	picked := 0
	for _, id := range c.ReplicaIDs() {
		if id == equiv {
			continue
		}
		switch picked {
		case 0:
			accomplice = id
		case 1:
			victim = id
		}
		picked++
	}

	if err := c.SetBehavior(equiv, &Equivocate{
		Self:                equiv,
		Auth:                c.Auth(equiv),
		Quorum:              c.Quorum(),
		Victims:             map[transport.NodeID]bool{transport.ReplicaNode(victim): true},
		Accomplices:         map[transport.NodeID]bool{transport.ReplicaNode(accomplice): true},
		WithholdFromVictims: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetBehavior(accomplice, &AckAll{
		Self: accomplice,
		Keys: c.Keys(accomplice),
	}); err != nil {
		t.Fatal(err)
	}

	aud := auditorFor(c, equiv, accomplice)
	aud.Start()

	eb := c.Behavior(equiv).(*Equivocate)
	agreement := func(rep AuditReport) int {
		n := 0
		for _, v := range rep.Violations {
			if v.Invariant == "agreement" {
				n++
			}
		}
		return n
	}
	stop := make(chan struct{})
	wg := runLoad(c, stop)
	// Load until the forged commit is out and the auditor has seen the
	// divergence it causes.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if eb.ForgedCommit.Load() > 0 && agreement(aud.Report()) > 0 {
			break
		}
	}
	close(stop)
	wg.Wait()
	rep := aud.Stop()

	if eb.ForgedCommit.Load() == 0 {
		t.Fatal("no forged commit emitted: the colluding certificate never completed")
	}
	if agreement(rep) == 0 {
		t.Errorf("f+1 equivocation went undetected: %d violations, none for agreement (forged commits: %d)",
			len(rep.Violations), eb.ForgedCommit.Load())
	}
}

// TestWithholdCommitsDropsCommitTab: the commit-withholding behavior
// suppresses the COMMITTAB, the one commit form, and lets the rest of the
// protocol through.
func TestWithholdCommitsDropsCommitTab(t *testing.T) {
	var b WithholdCommits
	cert := brb.AckCert{Sigs: []brb.AckSig{{Replica: 0, Sig: []byte("sig")}}}
	commit := reframe(transport.ChanBRB, brb.EncodeCommitTab(1, 1, []byte("p"), cert))
	if out := b.Outbound(transport.ReplicaNode(2), commit, nil); out != nil {
		t.Fatal("COMMITTAB passed the commit-withholding behavior")
	}
	if got := b.Suppressed.Load(); got != 1 {
		t.Fatalf("suppressed %d frames, want 1", got)
	}
	prepare := reframe(transport.ChanBRB, brb.EncodePrepare(1, 2, []byte("p")))
	if out := b.Outbound(transport.ReplicaNode(2), prepare, nil); out == nil {
		t.Fatal("PREPARE withheld")
	}
}

// TestTimelineByzantine wires a Byzantine fault kind through the
// experiment harness: the run completes, the auditor samples throughout,
// and an f-tolerated attack leaves no violations on the result.
func TestTimelineByzantine(t *testing.T) {
	res, err := Timeline(TimelineConfig{
		System:   SystemAstroII,
		N:        4,
		Clients:  4,
		Window:   2 * time.Second,
		FaultAt:  500 * time.Millisecond,
		Fault:    FaultWithholdCommits,
		Target:   TargetRandom,
		BinWidth: 250 * time.Millisecond,
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AuditSamples == 0 {
		t.Error("timeline ran without auditor samples")
	}
	for _, v := range res.AuditViolations {
		t.Errorf("violation under f faulty: %s", v)
	}
	var pre float64
	for _, r := range res.Rates[:2] {
		pre += r
	}
	if pre == 0 {
		t.Error("no pre-fault throughput")
	}

	if _, err := Timeline(TimelineConfig{
		System: SystemConsensus, N: 4, Clients: 1,
		Window: time.Second, Fault: FaultEquivocate,
	}); err == nil {
		t.Error("consensus baseline must reject Byzantine fault kinds")
	}
}

// TestTimelineLinkDelays pins the asymmetric per-link delay extension:
// rules apply at FaultAt on top of the base fault and the run completes.
func TestTimelineLinkDelays(t *testing.T) {
	res, err := Timeline(TimelineConfig{
		System:  SystemAstroII,
		N:       4,
		Clients: 4,
		Window:  1500 * time.Millisecond,
		FaultAt: 500 * time.Millisecond,
		Fault:   FaultDelay,
		Delay:   20 * time.Millisecond,
		LinkDelays: []DelayRule{
			{From: 1, To: 2, Delay: 30 * time.Millisecond},
			{From: 2, To: 1, Delay: 5 * time.Millisecond},
		},
		Target:   TargetRandom,
		BinWidth: 250 * time.Millisecond,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, r := range res.Rates {
		total += r
	}
	if total == 0 {
		t.Error("no throughput under link delays")
	}
	for _, v := range res.AuditViolations {
		t.Errorf("violation under delay faults: %s", v)
	}
}
