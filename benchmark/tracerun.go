package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"astro/internal/sched"
)

// layerCounters is one reading of the counters the system already keeps,
// summed over the deployment's replicas; the traced window is the
// difference of two readings.
type layerCounters struct {
	walRecords, walSyncs       uint64
	kvGets, kvPuts             uint64
	pagerFaults                uint64
	creditSignOps              uint64
	creditRefHits, creditRef   uint64 // hits, and hits plus misses
	memoHits, memoLookups      uint64
	schedExecuted, schedStolen uint64
}

func (d *inprocDeployment) counters() layerCounters {
	var c layerCounters
	for i, r := range d.reps {
		rec, syn := r.WALStats()
		c.walRecords += rec
		c.walSyncs += syn
		if st := d.stores[i]; st != nil {
			ks := st.Stats()
			c.kvGets += ks.Gets
			c.kvPuts += ks.Puts
		}
		c.pagerFaults += r.PagingStats().Faults
		ops, _ := r.CreditSignStats()
		c.creditSignOps += ops
		ref := r.CreditRefStats()
		c.creditRefHits += ref.RefHits
		c.creditRef += ref.RefHits + ref.RefMisses
	}
	for _, v := range d.verifiers {
		h, m := v.MemoStats()
		c.memoHits += h
		c.memoLookups += h + m
	}
	// Dispatch, settlement and WAL flows of every in-process replica run
	// on the shared default runtime.
	ss := sched.Default().Stats()
	c.schedExecuted, c.schedStolen = ss.Executed, ss.Stolen
	return c
}

// ratio is a/b, and 0 where b is 0: a ratio of nothing to nothing reads
// as "did not happen" in the tables.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun is what the traced pass over a workload yields, apart from
// the layer microbenchmarks.
type tracedRun struct {
	metrics    map[string]float64
	attempted  uint64
	failed     uint64
	violations []string
	refused    error   // the generator's guard rails spoke
	cpuUS      float64 // CPU-µs of the process per payment confirmed in the traced sat phase
	shares     map[string]float64
}

// tracedSatShare is the share of the measuring time each of a traced
// run's two sat phases may take; a tcp4 deployment's payments run out
// first.
const tracedSatShare = 0.10

// runTraced rebuilds w's deployment in this process with the decorators
// installed and drives it through warm-up, an open phase, and the sat
// phase twice: decorators off, then on under the CPU profiler. End-to-end
// metrics are never taken from here.
func runTraced(env environment, w workload, seed uint64, seconds float64) (*tracedRun, error) {
	tr := newTracer(time.Now())
	dep, err := deployInProcess(env, w, tr)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	g := newGenerator(w, seed, 0, dep.clients(), tr, dep.clEps)
	defer g.close()
	if err := g.firstPayments(setupTimeout); err != nil {
		return nil, err
	}
	// Light phase, warm-up and open phase are as long as an untraced
	// run's, so that a durable deployment crosses its WAL snapshot here
	// too. The two sat
	// phases share what is left of the deployment's payments.
	ph := splitSeconds(seconds)
	if err := w.fits(ph.light, ph.warm+ph.open); err != nil {
		return nil, err
	}
	if err := g.openLoop(lightRate, ph.light, &g.light); err != nil {
		return nil, err
	}
	if err := g.openLoop(w.openRate, ph.warm, nil); err != nil {
		return nil, err
	}
	if err := g.openLoop(w.openRate, ph.open, &g.open); err != nil {
		return nil, err
	}
	sat := time.Duration(tracedSatShare * seconds * float64(time.Second))
	budget := w.room(g.sent()) / 2
	off, err := g.saturate(sat, budget, dep.cpuSeconds)
	if err != nil {
		return nil, err
	}

	outDir := filepath.Join(env.root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(outDir, "cpu-"+w.name+".prof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	before := dep.counters()
	cpu0, _ := selfCPUSeconds()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	tr.enabled.Store(true)
	on, err := g.saturate(sat, budget, dep.cpuSeconds)
	tr.enabled.Store(false)
	pprof.StopCPUProfile()
	prof.Close()
	if err != nil {
		return nil, err
	}
	cpu1, _ := selfCPUSeconds()
	after := dep.counters()

	g.drain(drainTimeout)
	unconfirmed := uint64(g.totalOutstanding())
	g.close()
	if on.paid == 0 || off.paid == 0 {
		return nil, fmt.Errorf("%w: no payment confirmed in a sat phase", errUnreportable)
	}
	viol, err := dep.audit(g)
	if err != nil {
		return nil, err
	}
	if err := tr.writeJSONL(filepath.Join(outDir, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	folded, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}

	var snapshots int64
	for i := range tr.snapshotsBy {
		snapshots += tr.snapshotsBy[i].Load()
	}
	paid := float64(on.paid)
	perPaid := func(a, b uint64) float64 { return float64(a-b) / paid }
	us := func(ns int64) float64 { return float64(ns) / 1e3 / paid }
	m := map[string]float64{
		"client.pay_call_us":                 us(tr.kinds[spanClientSubmit].busyNS.Load()),
		"transport.send_busy_us_per_payment": us(tr.kinds[spanTransportSend].busyNS.Load()),
		"wal.records_per_payment":            perPaid(after.walRecords, before.walRecords),
		"wal.syncs_per_payment":              perPaid(after.walSyncs, before.walSyncs),
		"wal.append_busy_us_per_payment":     us(tr.kinds[spanWALAppend].busyNS.Load()),
		"wal.sync_busy_us_per_payment":       us(tr.kinds[spanWALSync].busyNS.Load()),
		"wal.snapshots":                      float64(snapshots),
		"wal.snapshot_ms_max":                float64(tr.snapshotMaxNS.Load()) / 1e6,
		"kv.gets_per_payment":                perPaid(after.kvGets, before.kvGets),
		"kv.puts_per_payment":                perPaid(after.kvPuts, before.kvPuts),
		"core.pager_faults_per_payment":      perPaid(after.pagerFaults, before.pagerFaults),
		"core.credit_sign_ops_per_payment":   perPaid(after.creditSignOps, before.creditSignOps),
		"core.credit_ref_hit_ratio":          ratio(float64(after.creditRefHits-before.creditRefHits), float64(after.creditRef-before.creditRef)),
		"verifier.memo_hit_ratio":            ratio(float64(after.memoHits-before.memoHits), float64(after.memoLookups-before.memoLookups)),
		"sched.tasks_per_payment":            perPaid(after.schedExecuted, before.schedExecuted),
		"sched.steal_ratio":                  ratio(float64(after.schedStolen-before.schedStolen), float64(after.schedExecuted-before.schedExecuted)),
		"harness.trace_overhead_share":       1 - medianPPS(on.windows)/medianPPS(off.windows),
		"harness.loadgen_cpu_share":          folded.loadgenShare,
	}
	for _, c := range []struct {
		name string
		ch   int
	}{{"brb", 1}, {"payment", 2}, {"credit", 3}} {
		m["transport.frames_per_payment."+c.name] = float64(tr.chans[c.ch].count.Load()) / paid
		m["transport.bytes_per_payment."+c.name] = float64(tr.chans[c.ch].bytes.Load()) / paid
	}
	m["client.latency_p99_ms"] = g.open.quantileMS(0.99)
	m["client.latency_p999_ms"] = g.open.quantileMS(0.999)
	m["harness.late_share"] = ratio(float64(g.open.late), float64(g.open.sent))
	for layer, share := range folded.shares {
		m["cpu_share."+layer] = share
	}
	cpuUS := (cpu1 - cpu0) * 1e6 / paid
	// The profile's samples cover less CPU time than the kernel charged
	// the process: that part no share can explain.
	m["harness.profile_residual_share"] = 1 - ratio(folded.sampledSeconds, cpu1-cpu0)

	return &tracedRun{
		metrics:    m,
		attempted:  g.measured,
		failed:     unconfirmed + g.slow,
		violations: viol,
		refused:    crossedSnapshot(w, dep),
		cpuUS:      cpuUS,
		shares:     folded.shares,
	}, nil
}

// printBudget is the table ROADMAP item 2 asks for: where one payment's
// CPU time goes, layer by layer, and how much of it the profile could not
// see.
func printBudget(w workload, t *tracedRun) {
	fmt.Printf("budget %s: %.2f CPU-us per confirmed payment in the traced sat phase\n", w.name, t.cpuUS)
	fmt.Printf("  %-10s %12s %8s\n", "layer", "us/payment", "share")
	var sum float64
	for _, layer := range layerNames {
		share := t.shares[layer]
		sum += share
		fmt.Printf("  %-10s %12.3f %8.4f\n", layer, t.cpuUS*share, share)
	}
	fmt.Printf("  %-10s %12.3f %8.4f\n", "sum", t.cpuUS*sum, sum)
	fmt.Printf("  unexplained residual (CPU time the profile did not sample): %.4f\n", t.metrics["harness.profile_residual_share"])
}
