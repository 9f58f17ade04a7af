package astro

// Robustness surface of the facade: Byzantine fault injection, network
// chaos and partitions, and the always-on invariant auditor. Everything
// here wraps internal/sim and internal/transport/chaos without leaking
// their types beyond aliases.
//
// Every link fault — a partition, a link delay, DelayReplica's node delay
// — is a rule on the one chaos controller that also runs ChaosProfile's
// rule and schedule. So a partition installed by Partition and one
// installed by the schedule are the same partition (either call heals
// it), ChaosStats counts the frames they block, and the controller's
// precedence decides which delay applies: a link rule beats a node rule
// beats the profile's default rule, each replacing the next rather than
// adding to it.

import (
	"time"

	"astro/internal/sim"
	"astro/internal/transport/chaos"
)

// Byzantine fault kinds accepted by InjectFault. Each arms a malicious
// wire behavior on one replica; correct replicas tolerate any f of them
// with zero invariant violations.
const (
	// FaultEquivocate sends conflicting PREPAREs for the same log slot to
	// different peers — the double-spend attack BRB exists to stop.
	FaultEquivocate = string(sim.FaultEquivocate)
	// FaultWithholdCommits suppresses the COMMITTABs of the replica's own
	// broadcasts: its clients stall, and every other origin is unharmed.
	FaultWithholdCommits = string(sim.FaultWithholdCommits)
	// FaultForgeRefs corrupts the chain-by-digest reference digests of the
	// credit channel (CREDITCHAINDEF, CREDITREF), forcing NACK round trips
	// and forged-reference rejections.
	FaultForgeRefs = string(sim.FaultForgeRefs)
	// FaultNackStorm answers every CREDITREF with a burst of CREDITNACKs,
	// probing the bounded-retransmit guarantee.
	FaultNackStorm = string(sim.FaultNackStorm)
	// FaultStaleView spams stale-view and forged-install reconfiguration
	// messages at the membership managers.
	FaultStaleView = string(sim.FaultStaleView)
)

// ChaosProfile configures the seeded chaos controller interposed on every
// link of the deployment. The seed fixes every draw, so a chaotic run is
// reproducible.
type ChaosProfile struct {
	Seed uint64
	// Rule is the default rule for every link, in the chaos mini-language
	// — the same dialect cmd/astro-node's -chaos flag speaks, so a rule
	// from a runbook drops in verbatim. Probabilities are per frame:
	//
	//	"drop=0.03,corrupt=0.01,dup=0.02,reorder=0.05,delay=200us-2ms"
	Rule string
	// Schedule arms timed phases — rule changes, partitions, heals —
	// with offsets relative to New (cmd/astro-node's -chaos-schedule):
	//
	//	"300ms:part=0 1|2 3;1200ms:heal;1500ms:drop=0.05;3s:clear"
	//
	// Unfired phases are cancelled by Close.
	Schedule string
}

// ChaosStats counts the perturbations a chaos controller has applied.
type ChaosStats = chaos.Stats

// InvariantReport is the result of an audit window: how many sampling
// passes ran and every invariant violation observed, formatted
// "[invariant] replica R client C: detail".
type InvariantReport struct {
	Samples    int
	Violations []string
}

// InjectFault arms a Byzantine wire behavior (one of the Fault…
// constants) on a replica. The replica keeps running its honest protocol
// underneath; the behavior interposes on its frames. At most one behavior
// is armed per replica — injecting again replaces it.
func (s *System) InjectFault(id ReplicaID, kind string) error {
	return s.cluster.ArmFault(id, sim.FaultKind(kind))
}

// ClearFault disarms a replica's Byzantine behavior.
func (s *System) ClearFault(id ReplicaID) error {
	return s.cluster.SetBehavior(id, nil)
}

// Partition splits the replicas into isolated groups: frames between
// different groups are dropped, frames within a group flow normally.
// Replicas not named in any group are unaffected. It replaces any
// earlier partition, scheduled ones included. Heal with HealPartition.
func (s *System) Partition(groups ...[]ReplicaID) { s.cluster.Partition(groups...) }

// HealPartition removes the current partition, whether Partition or the
// ChaosProfile schedule installed it.
func (s *System) HealPartition() { s.cluster.HealPartition() }

// SetLinkDelay sets a fixed extra one-way delay on the directed link
// from one replica to another — asymmetric degradation, like tc netem on
// a single direction. Zero removes the override.
func (s *System) SetLinkDelay(from, to ReplicaID, d time.Duration) {
	s.cluster.LinkDelay(from, to, d)
}

// ChaosStats returns the counters of the system's chaos controller:
// frames sent, and those dropped, corrupted, duplicated, delayed,
// reordered or blocked by a partition.
func (s *System) ChaosStats() ChaosStats { return s.cluster.Chaos().Stats() }

// StartAudit begins continuous invariant auditing over the given clients:
// conservation-of-money, per-client FIFO logs, no duplicate settlements,
// and cross-replica agreement, sampled from outside the protocol. Replicas
// listed as faulty are excluded from the correctness checks (their state
// is allowed to lie). The returned stop function ends the audit and
// returns the report; crash-stopped replicas are skipped per sample.
func (s *System) StartAudit(clients []ClientID, faulty ...ReplicaID) (stop func() InvariantReport) {
	fm := make(map[ReplicaID]bool, len(faulty))
	for _, id := range faulty {
		fm[id] = true
	}
	aud := s.cluster.NewAuditor(sim.AuditorConfig{
		Clients: clients,
		Genesis: s.genesis,
		Faulty:  fm,
	})
	aud.Start()
	return func() InvariantReport {
		rep := aud.Stop()
		out := InvariantReport{Samples: rep.Samples}
		for _, v := range rep.Violations {
			out.Violations = append(out.Violations, v.String())
		}
		return out
	}
}
