// Command benchmark is this repository's one measuring instrument: it
// launches a workload's deployment, drives it from a seeded load
// generator, checks the money, and prints every metric BENCHMARK.json
// declares by name with its unit. See README.md.
//
//	bash benchmark/run.sh --workload tcp4-wal --seed 1 --seconds 26 --trace 0   end-to-end metrics
//	bash benchmark/run.sh --workload tcp4-wal --seed 1 --seconds 26 --trace 1   traced run + layer microbenchmarks
//	bash benchmark/run.sh -layers                                               layer microbenchmarks alone
//	bash benchmark/run.sh -compare a.jsonl b.jsonl                              judge two sets of runs by the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// info holds an untraced run's infoMetrics, which the result line has
	// no key for.
	info map[string]metricValue
}

// row is what -out appends for each run: the result plus where and how it
// was measured, which -compare reads back.
type row struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Seconds  float64                `json:"seconds"`
	Trace    int                    `json:"trace"`
	Host     hostInfo               `json:"host"`
	Info     map[string]metricValue `json:"info,omitempty"`
	result
}

// Exit codes beyond 0 and 1 (an error): the figures were printed, but
// should not be believed.
const (
	exitUnreportable = 3 // the generator's guard rails refused the run
	exitDirtyAudit   = 4 // the money did not add up, or payments failed to confirm
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: tcp4-mem, tcp4-wal, tcp4-paged or embed2x4-cross")
		seed    = flag.Uint64("seed", 1, "seed of the generated payments")
		seconds = flag.Float64("seconds", 26, "measuring time: light phase, warm-up, open phase and sat phase together")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run plus layer microbenchmarks, per-layer metrics")
		layers  = flag.Bool("layers", false, "run the layer microbenchmarks alone")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments, by BENCHMARK.json's bounds")
		out     = flag.String("out", "", "append this run's row (JSON) to the file")
		root    = flag.String("root", ".", "checkout root")
		nodeBin = flag.String("node-bin", "", "astro-node binary for the tcp4 workloads")
	)
	flag.Parse()
	env := environment{root: *root, nodeBin: *nodeBin}
	if *compare {
		os.Exit(compareFiles(env.root, flag.Args()))
	}
	// The main goroutine is the generator's sender; it keeps its own
	// thread so that its sleeps are the kernel's, not the Go scheduler's.
	runtime.LockOSThread()
	host := readHostInfo()
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel)

	if *layers {
		vals, err := runLayers(env)
		if err == nil {
			_, err = printMetrics("metric", layerMetrics, vals)
		}
		if err != nil {
			fatal("layers", err)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)

	var (
		res  result
		code int
		err  error
	)
	if *trace == 0 {
		res, code, err = runEndToEnd(env, w, *seed, *seconds, setupSamples)
	} else {
		res, code, err = runPerLayer(env, w, *seed, *seconds)
	}
	if err != nil {
		fatal(w.name, err)
	}
	if *out != "" {
		if err := appendRow(*out, row{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: host, Info: res.info, result: res}); err != nil {
			fatal("-out", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("result", err)
	}
	fmt.Println(string(line))
	os.Exit(code)
}

func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", what, err)
	os.Exit(1)
}

// printMetrics prints each defined metric by name with its unit, after
// label, and fails on one that was not measured: names must never drift.
func printMetrics(label string, defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%s %s = %s %s\n", label, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// verdict turns failed payments and audit violations into the run's
// correctness and exit code, printing each violation.
func verdict(failed uint64, violations []string, auditErr error) (bool, int) {
	for _, v := range violations {
		fmt.Println("VIOLATION", v)
	}
	if auditErr != nil {
		fmt.Println("VIOLATION audit incomplete:", auditErr)
	}
	if failed > 0 {
		fmt.Printf("VIOLATION %d payments failed to confirm within %v\n", failed, failAfter)
	}
	if len(violations) > 0 || auditErr != nil || failed > 0 {
		return false, exitDirtyAudit
	}
	fmt.Println("audit clean")
	return true, 0
}

// runEndToEnd is an untraced run. The first deployment serves the light
// phase, warm-up, open phase and as much of the sat phase as it may; a
// deployment cannot take more than deploymentPayments, so fresh ones
// continue the sat phase until its time is used up. More measuring time
// means more deployments, not longer ones; the sat phase's figures are
// medians over all of them. The set-ups timed beforehand are thrown away
// once timed.
func runEndToEnd(env environment, w workload, seed uint64, seconds float64, setups int) (result, int, error) {
	ph := splitSeconds(seconds)
	if err := w.fits(ph.light, ph.warm+ph.open); err != nil {
		return result{}, 0, err
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		dep, g, secs, err := setUp(env, w, seed, uint64(i))
		if err != nil {
			return result{}, 0, fmt.Errorf("set-up: %w", err)
		}
		g.close()
		dep.close()
		setupS = append(setupS, secs)
	}
	var (
		windows     []satWindow
		light, open *openPhase
		res         result
		violations  []string
		auditErr    error
		refused     error
		passes      int
	)
	for ; passes == 0 || ph.sat >= minSat; passes++ {
		p, err := runPass(env, w, seed, uint64(passes), ph)
		if err != nil {
			return result{}, 0, err
		}
		setupS = append(setupS, p.setupS)
		windows = append(windows, p.windows...)
		if passes == 0 {
			light, open = p.light, p.open
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		violations = append(violations, p.violations...)
		auditErr = errors.Join(auditErr, p.auditErr)
		refused = errors.Join(refused, p.refused)
		ph = phases{sat: ph.sat - p.satElapsed}
	}
	fmt.Printf("setup_s is the median of %d set-ups; goodput_pps and cpu_us_per_payment are medians of %d sat-phase slices of %v over %d deployments\n",
		len(setupS), len(windows), satSlice, passes)
	fmt.Printf("latency_p50_ms is over the light phase's %d payments at %.0f pps, half of them sent within %.3f ms of due; the loaded percentiles are over the open phase's %d at %.0f pps, half sent within %.3f ms\n",
		light.sent, light.rate, light.sendDelayMedianMS(), open.sent, open.rate, open.sendDelayMedianMS())
	var err error
	if res.Metrics, err = printMetrics("metric", endToEnd, map[string]float64{
		"setup_s":            median(setupS),
		"goodput_pps":        medianPPS(windows),
		"cpu_us_per_payment": medianCPUUS(windows),
		"latency_p50_ms":     light.quantileMS(0.50),
	}); err != nil {
		return result{}, 0, err
	}
	if res.info, err = printMetrics("info", defsOf(infoMetrics), map[string]float64{
		"loaded_latency_p50_ms": open.quantileMS(0.50),
		"loaded_latency_p99_ms": open.quantileMS(0.99),
		"failed_share":          ratio(float64(res.Failed), float64(res.Attempted)),
	}); err != nil {
		return result{}, 0, err
	}
	var code int
	res.Correct, code = verdict(res.Failed, violations, auditErr)
	if refused != nil {
		fmt.Println("REFUSED", refused)
		code = exitUnreportable
	}
	return res, code, nil
}

// runPerLayer is a traced run followed by the layer microbenchmarks.
func runPerLayer(env environment, w workload, seed uint64, seconds float64) (result, int, error) {
	t, err := runTraced(env, w, seed, seconds)
	if err != nil {
		return result{}, 0, fmt.Errorf("traced run: %w", err)
	}
	vals, err := runLayers(env)
	if err != nil {
		return result{}, 0, fmt.Errorf("layers: %w", err)
	}
	for k, v := range t.metrics {
		vals[k] = v
	}
	// run.sh times its two builds; a run started another way reports 0.
	vals["harness.build_s"], _ = strconv.ParseFloat(os.Getenv("ASTRO_BENCH_BUILD_S"), 64)
	res := result{Attempted: t.attempted, Failed: t.failed}
	res.Metrics, err = printMetrics("metric", append(append([]metricDef(nil), layerMetrics...), traceMetrics...), vals)
	if err != nil {
		return result{}, 0, err
	}
	printBudget(w, t)
	var code int
	res.Correct, code = verdict(t.failed, t.violations, nil)
	if t.refused != nil {
		fmt.Println("REFUSED", t.refused)
		code = exitUnreportable
	}
	return res, code, nil
}

func appendRow(path string, r row) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
