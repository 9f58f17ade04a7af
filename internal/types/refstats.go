package types

import "sync/atomic"

// RefStats counts the credit channel's chain-reference traffic at one
// replica: the CREDITCHAINDEF / CREDITREF / CREDITNACK protocol
// (core.CreditRefStats aliases it, and the sim harness aggregates it
// cluster-wide). BRB commits carry their chains inline and have no
// reference protocol.
type RefStats struct {
	// RefsSent counts reference-form sends.
	RefsSent uint64
	// RefHits / RefMisses count inbound reference resolutions against the
	// receiver's chain cache.
	RefHits, RefMisses uint64
	// NacksSent / NacksReceived count the fallback round trips.
	NacksSent, NacksReceived uint64
	// DefsDemanded counts definitions sent because a NACK demanded them —
	// the only definitions ever sent (lazy definitions: every reference
	// goes out without its definition), so DefsDemanded/RefsSent is the
	// share of references that cost a definition.
	DefsDemanded uint64
}

// Add accumulates other into s (for cluster-wide aggregation).
func (s *RefStats) Add(other RefStats) {
	s.RefsSent += other.RefsSent
	s.RefHits += other.RefHits
	s.RefMisses += other.RefMisses
	s.NacksSent += other.NacksSent
	s.NacksReceived += other.NacksReceived
	s.DefsDemanded += other.DefsDemanded
}

// RefCounters is the atomic backing of RefStats, embedded by the protocol
// state that updates it concurrently.
type RefCounters struct {
	RefsSent                 atomic.Uint64
	RefHits, RefMisses       atomic.Uint64
	NacksSent, NacksReceived atomic.Uint64
	DefsDemanded             atomic.Uint64
}

// Snapshot returns a consistent-enough copy of the counters (each field
// is read atomically; cross-field skew is fine for statistics).
func (c *RefCounters) Snapshot() RefStats {
	return RefStats{
		RefsSent:      c.RefsSent.Load(),
		RefHits:       c.RefHits.Load(),
		RefMisses:     c.RefMisses.Load(),
		NacksSent:     c.NacksSent.Load(),
		NacksReceived: c.NacksReceived.Load(),
		DefsDemanded:  c.DefsDemanded.Load(),
	}
}
