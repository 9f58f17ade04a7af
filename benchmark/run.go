package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// phases splits a run's measuring time: the light phase, a short warm-up
// at the open phase's rate, the open phase, the sat phase.
type phases struct{ light, warm, open, sat time.Duration }

func splitSeconds(seconds float64) phases {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	return phases{light: d(0.18), warm: d(0.04), open: d(0.43), sat: d(0.35)}
}

// lightRate is the light phase's total arrival rate, in payments per
// second, on every workload: each payment finds the deployment idle and
// travels alone, in a batch of its own, so its latency is the blocking
// path and nothing else. The open phase cannot show that: from 500 pps up
// the representatives cut batches as fast as they can turn them round,
// the nodes keep 1.6 of the builder's 2 cores busy whatever the rate, and
// the median latency moves two to three times as much as the host's speed
// does from one minute to the next (README, "Two rates").
const lightRate = 100

const (
	// drainTimeout is failAfter: the last payment of the sat phase has that
	// long to confirm, like every other.
	drainTimeout = failAfter
	setupTimeout = 30 * time.Second
	// setupSamples is how many set-ups an untraced run times and throws
	// away before it measures; setup_s is the median over these and the
	// set-ups of the deployments it measures on.
	setupSamples = 17
	// minSat is the least sat-phase time worth a fresh deployment.
	minSat = 4 * satSlice
)

// errUnreportable marks a run the generator refuses to report: its
// figures would describe the harness, not the system.
var errUnreportable = errors.New("run not reportable")

// pass is what one deployment's life yields: set-up, the phases it was
// given, drain, audit.
type pass struct {
	setupS      float64
	windows     []satWindow   // the sat phase in slices
	satElapsed  time.Duration // how much of the sat phase this deployment served
	light, open *openPhase    // nil on a deployment that only continued a sat phase
	attempted   uint64
	failed      uint64
	violations  []string
	auditErr    error
	refused     error // the generator's guard rails spoke
}

// setUp launches w's deployment and has every client make its first
// payment. Set-up time runs from the launch to the last of those first
// confirmations. pass names the seeded stream, so that the passes of one
// run generate different payments.
func setUp(env environment, w workload, seed, pass uint64) (deployment, *generator, float64, error) {
	t0 := time.Now()
	dep, err := deploy(env, w)
	if err != nil {
		return nil, nil, 0, err
	}
	g := newGenerator(w, seed, pass, dep.clients(), nil, nil)
	if err := g.firstPayments(setupTimeout); err != nil {
		g.close()
		dep.close()
		return nil, nil, 0, err
	}
	return dep, g, time.Since(t0).Seconds(), nil
}

// runPass sets a fresh deployment up, drives it through the phases,
// audits it and takes it down. With ph.open zero there is no open loop at
// all: the deployment continues a sat phase an earlier one began.
// The sat phase ends early when the deployment has taken all the payments
// it may.
func runPass(env environment, w workload, seed, n uint64, ph phases) (pass, error) {
	var p pass
	dep, g, secs, err := setUp(env, w, seed, n)
	if err != nil {
		return p, fmt.Errorf("set-up: %w", err)
	}
	defer dep.close()
	defer g.close()
	p.setupS = secs
	if ph.open > 0 {
		if err := g.openLoop(lightRate, ph.light, &g.light); err != nil {
			return p, err
		}
		if err := g.openLoop(w.openRate, ph.warm, nil); err != nil {
			return p, err
		}
		if err := g.openLoop(w.openRate, ph.open, &g.open); err != nil {
			return p, err
		}
	}
	sat, err := g.saturate(ph.sat, w.room(g.sent()), dep.cpuSeconds)
	if err != nil && !errors.Is(err, errUnreportable) {
		return p, err
	}
	p.refused = err
	g.drain(drainTimeout)
	unconfirmed := uint64(g.totalOutstanding())
	g.close() // the reaper's counters are safe to read from here on

	p.windows, p.satElapsed = sat.windows, sat.elapsed
	p.attempted, p.failed = g.measured, unconfirmed+g.slow
	if ph.open > 0 {
		p.light, p.open = &g.light, &g.open
		p.refused = errors.Join(p.refused,
			g.light.trustworthy(g.light.quantileMS(0.50)),
			g.open.trustworthy(g.open.quantileMS(0.50)),
			crossedSnapshot(w, dep))
	}
	p.violations, p.auditErr = dep.audit(g)
	return p, nil
}

// crossedSnapshot refuses a durable workload's run whose open phase did
// not hold the traffic the workload is there for: every replica's WAL
// compaction, a snapshot write and a log truncation after 4096 settled
// batches (core's default cadence: the light phase's payments, a batch
// each, and about 8 s of open loop at 5 000 pps on the builder's host). Without it tcp4-wal and tcp4-paged would differ
// by their append paths only, and no snapshot regression could show.
func crossedSnapshot(w workload, dep deployment) error {
	if !w.durable {
		return nil
	}
	n, err := dep.snapshots()
	if err != nil {
		return err
	}
	if n < tcpReplicas {
		return fmt.Errorf("%w: %d of %d replicas wrote a WAL snapshot; warm-up and open phase were too short to settle %s's 4096 batches: use more --seconds",
			errUnreportable, n, tcpReplicas, w.name)
	}
	return nil
}

// median is NaN for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
