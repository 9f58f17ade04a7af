// Package metrics provides the measurement instruments of the experiment
// harness: a thread-safe log-bucketed latency histogram (for the paper's
// average/95th/99th percentile latencies) and a per-second throughput
// timeline (for the robustness figures).
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram records durations into geometrically spaced buckets covering
// 1µs to ~17 minutes with ~5% resolution. All methods are safe for
// concurrent use.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
}

const (
	numBuckets  = 420
	bucketBase  = 1000.0 // 1µs in ns
	bucketRatio = 1.05   // ~5% resolution; covers ~1µs to ~13min
)

var bucketBounds [numBuckets]float64

func init() {
	b := bucketBase
	for i := 0; i < numBuckets; i++ {
		bucketBounds[i] = b
		b *= bucketRatio
	}
}

// bucketFor returns the index of the bucket containing d.
func bucketFor(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= bucketBase {
		return 0
	}
	i := int(math.Log(ns/bucketBase) / math.Log(bucketRatio))
	if i >= numBuckets {
		return numBuckets - 1
	}
	if i < 0 {
		return 0
	}
	return i
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(d.Nanoseconds()))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) with the
// histogram's bucket resolution.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return time.Duration(bucketBounds[i] * bucketRatio)
		}
	}
	return time.Duration(bucketBounds[numBuckets-1] * bucketRatio)
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v",
		h.Count(), h.Mean().Round(time.Millisecond),
		h.Quantile(0.50).Round(time.Millisecond),
		h.Quantile(0.95).Round(time.Millisecond),
		h.Quantile(0.99).Round(time.Millisecond))
}

// EWMA is an exponentially weighted moving average of durations with a
// fixed 7/8 decay — the smoothing the scheduler uses for per-lane task
// queue latency. Observations and reads are lock-free; concurrent
// observers may each fold their sample into the same predecessor (a lost
// update), which only weakens the smoothing, never corrupts the value —
// fine for an instrument.
type EWMA struct {
	v atomic.Int64 // nanoseconds; 0 = no observation yet
}

// Observe folds one sample into the average. The first sample seeds it.
func (e *EWMA) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	old := e.v.Load()
	if old == 0 {
		e.v.Store(int64(d))
		return
	}
	e.v.Store((7*old + int64(d)) / 8)
}

// Value returns the current average; zero means nothing was observed.
func (e *EWMA) Value() time.Duration { return time.Duration(e.v.Load()) }

// Timeline counts events into fixed-width time bins from a start instant —
// the throughput-over-time curves of the robustness experiments.
type Timeline struct {
	start time.Time
	width time.Duration
	bins  []atomic.Uint64
}

// NewTimeline creates a timeline covering n bins of the given width
// starting now.
func NewTimeline(n int, width time.Duration) *Timeline {
	if n < 1 {
		n = 1
	}
	if width <= 0 {
		width = time.Second
	}
	return &Timeline{start: time.Now(), width: width, bins: make([]atomic.Uint64, n)}
}

// Add records count events at the current instant. Events outside the
// covered window are dropped.
func (t *Timeline) Add(count uint64) {
	i := int(time.Since(t.start) / t.width)
	if i < 0 || i >= len(t.bins) {
		return
	}
	t.bins[i].Add(count)
}

// BinWidth returns the bin width.
func (t *Timeline) BinWidth() time.Duration { return t.width }

// Bins returns a snapshot of all bin counts.
func (t *Timeline) Bins() []uint64 {
	out := make([]uint64, len(t.bins))
	for i := range t.bins {
		out[i] = t.bins[i].Load()
	}
	return out
}

// Rate converts a bin count into events per second.
func (t *Timeline) Rate(count uint64) float64 {
	return float64(count) / t.width.Seconds()
}
