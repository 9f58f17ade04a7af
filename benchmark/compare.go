package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// -compare a.jsonl b.jsonl judges two sets of untraced runs, written with
// -out, by the bounds BENCHMARK.json fixes: for each end-to-end metric
// and workload, whether b's median is better or worse than a's by more
// than the bound, within it, or unresolved because either set's own
// spread is wider than the bound. infoMetrics are judged the same way.
// One workload per row.

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is what the driver judges spread with.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // taken after clamping j, as Python does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// readRows groups the untraced rows of a -out file: workload -> metric ->
// values.
func readRows(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for _, set := range []map[string]metricValue{r.Metrics, r.Info} {
			for name, v := range set {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
		}
	}
	return out, sc.Err()
}

// judge compares two sets of values of one metric.
func judge(m specMetric, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	if len(a) >= 2 && len(b) >= 2 && (spread(a) > m.Bound || spread(b) > m.Bound) {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	change := ratio(mb-ma, ma)
	if ma == 0 && mb != 0 {
		change = math.Copysign(math.Inf(1), mb) // from nothing, any move is beyond every bound
	}
	if m.Better == "lower" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "better"
	case change < -m.Bound:
		return "worse"
	}
	return "within"
}

// compareFiles prints the table and returns the exit code: 1 if any
// pairing is worse or a file cannot be read, 0 otherwise.
func compareFiles(root string, files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
		return 2
	}
	spec, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	a, err := readRows(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	b, err := readRows(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	metrics := append(slices.Clone(spec.EndToEnd), infoMetrics...)
	fmt.Printf("%-16s", "workload")
	for _, m := range metrics {
		fmt.Printf(" %-46s", fmt.Sprintf("%s (%s, %g)", m.Name, m.Better, m.Bound))
	}
	fmt.Println()
	code := 0
	for _, w := range spec.Workloads {
		fmt.Printf("%-16s", w.Name)
		for _, m := range metrics {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			v := judge(m, va, vb)
			if v == "worse" {
				code = 1
			}
			cell := v
			if len(va) > 0 && len(vb) > 0 {
				cell = fmt.Sprintf("%s %.4g->%.4g (iqr %.2f/%.2f)", v, median(va), median(vb), spread(va), spread(vb))
			}
			fmt.Printf(" %-46s", cell)
		}
		fmt.Println()
	}
	return code
}
