package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// TestSmokeNamesMatchSpec runs one tcp4 workload untraced and the
// embedded workload traced, with phases of about a second, and asserts
// that the workload names and the metric names printed are exactly those
// BENCHMARK.json declares: names can never drift from the file later
// issues quote.
func TestSmokeNamesMatchSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("launches deployments; skipped with -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sameNames(t, "workloads", declared, have)

	// Everything the test writes goes under its own scratch root.
	env := environment{root: t.TempDir(), nodeBin: filepath.Join(t.TempDir(), "astro-node")}
	build := exec.Command("go", "build", "-o", env.nodeBin, "./cmd/astro-node")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build astro-node: %v\n%s", err, out)
	}

	// Not a durable workload: phases of a second end long before the
	// WAL snapshot without which such a run is refused.
	tcp, _ := workloadByName("tcp4-mem")
	res, code, err := runEndToEnd(env, tcp, 1, 2, 2)
	if err != nil || code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("tcp4-mem untraced: err=%v exit=%d result=%+v", err, code, res)
	}
	sameMetrics(t, "end_to_end", spec.EndToEnd, res)

	embed, _ := workloadByName("embed2x4-cross")
	res, code, err = runPerLayer(env, embed, 1, 3)
	if err != nil || code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("embed2x4-cross traced: err=%v exit=%d correct=%v failed=%d", err, code, res.Correct, res.Failed)
	}
	sameMetrics(t, "per_layer", spec.PerLayer, res)
	if _, err := os.Stat(filepath.Join(env.root, "benchmark", "out", "trace-embed2x4-cross.jsonl")); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

// sameMetrics checks a result's metric names, and their units, against
// one list of BENCHMARK.json.
func sameMetrics(t *testing.T, what string, declared []specMetric, r result) {
	t.Helper()
	var names, printed []string
	for _, m := range declared {
		names = append(names, m.Name)
		if got, ok := r.Metrics[m.Name]; ok && got.Unit != m.Unit {
			t.Errorf("%s: %s is printed in %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		}
	}
	for name := range r.Metrics {
		printed = append(printed, name)
	}
	sameNames(t, what, names, printed)
}

func sameNames(t *testing.T, what string, declared, printed []string) {
	t.Helper()
	sort.Strings(declared)
	sort.Strings(printed)
	for _, d := range declared {
		if i := sort.SearchStrings(printed, d); i == len(printed) || printed[i] != d {
			t.Errorf("%s: BENCHMARK.json declares %q, the benchmark does not print it", what, d)
		}
	}
	for _, p := range printed {
		if i := sort.SearchStrings(declared, p); i == len(declared) || declared[i] != p {
			t.Errorf("%s: the benchmark prints %q, BENCHMARK.json does not declare it", what, p)
		}
	}
}
