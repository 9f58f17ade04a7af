package types

import "sync/atomic"

// RefStats counts one side's chain-reference traffic: both the BRB commit
// path and the credit channel run the same CHAINDEF / reference / NACK
// protocol, so they share one counter shape (brb.ChainRefStats and
// core.CreditRefStats alias it, and the sim harness aggregates either).
type RefStats struct {
	// RefsSent / FullSends count reference-form sends and self-contained
	// sends (the NACK-triggered COMMITTAB resend).
	RefsSent, FullSends uint64
	// RefHits / RefMisses count inbound reference resolutions against the
	// receiver's chain cache.
	RefHits, RefMisses uint64
	// NacksSent / NacksReceived count the fallback round trips.
	NacksSent, NacksReceived uint64
	// DefsDemanded counts definitions sent because a NACK demanded them —
	// the only definitions ever sent (lazy CHAINDEF: every reference goes
	// out without its definition), so DefsDemanded/RefsSent is the share
	// of references that cost a definition.
	DefsDemanded uint64
}

// Add accumulates other into s (for cluster-wide aggregation).
func (s *RefStats) Add(other RefStats) {
	s.RefsSent += other.RefsSent
	s.FullSends += other.FullSends
	s.RefHits += other.RefHits
	s.RefMisses += other.RefMisses
	s.NacksSent += other.NacksSent
	s.NacksReceived += other.NacksReceived
	s.DefsDemanded += other.DefsDemanded
}

// RefCounters is the atomic backing of RefStats, embedded by the protocol
// state that updates it concurrently.
type RefCounters struct {
	RefsSent, FullSends      atomic.Uint64
	RefHits, RefMisses       atomic.Uint64
	NacksSent, NacksReceived atomic.Uint64
	DefsDemanded             atomic.Uint64
}

// Snapshot returns a consistent-enough copy of the counters (each field
// is read atomically; cross-field skew is fine for statistics).
func (c *RefCounters) Snapshot() RefStats {
	return RefStats{
		RefsSent:      c.RefsSent.Load(),
		FullSends:     c.FullSends.Load(),
		RefHits:       c.RefHits.Load(),
		RefMisses:     c.RefMisses.Load(),
		NacksSent:     c.NacksSent.Load(),
		NacksReceived: c.NacksReceived.Load(),
		DefsDemanded:  c.DefsDemanded.Load(),
	}
}
