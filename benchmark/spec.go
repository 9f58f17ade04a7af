package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names a metric the benchmark prints and gives its unit.
// BENCHMARK.json declares the same names with their direction and, for
// the end-to-end ones, their bound; smoke_test.go keeps the two equal.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run prints, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_pps", "1/s"},
	{"cpu_us_per_payment", "us"},
	{"latency_p50_ms", "ms"},
}

// infoMetrics are the end-to-end figures BENCHMARK.json cannot declare.
// Every untraced run prints them, -out records them and -compare judges
// them like the declared ones. The open phase's latency percentiles move
// more from run to run than the widest bound a declared metric may have
// (README, "Two rates"), so they are judged by that widest bound and read
// unresolved where their spread is wider. failed_share is 0 on every
// clean run, which a relative bound cannot be applied to: any increase is
// worse.
var infoMetrics = []specMetric{
	{Name: "loaded_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "loaded_latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0},
}

func defsOf(ms []specMetric) []metricDef {
	var out []metricDef
	for _, m := range ms {
		out = append(out, metricDef{m.Name, m.Unit})
	}
	return out
}

// layerMetrics come from the microbenchmarks (layers.go); the same for
// every workload.
var layerMetrics = []metricDef{
	{"core.batch_encode_ns_per_payment", "ns"},
	{"core.batch_decode_ns_per_payment", "ns"},
	{"core.settle_hot_ns_per_payment", "ns"},
	{"core.settle_cold_us_per_payment", "us"},
	{"core.full_snapshot_ms_50k", "ms"},
	{"core.flush_dirty_ms_4k", "ms"},
	{"core.restart_ms_50k_resident", "ms"},
	{"core.restart_ms_50k_paged", "ms"},
	{"core.heap_bytes_per_account_resident", "bytes"},
	{"core.heap_bytes_per_account_paged", "bytes"},
	{"crypto.sign_us", "us"},
	{"crypto.verify_us", "us"},
	{"crypto.cert_verify_us_q3", "us"},
	{"crypto.cert_verify_us_q7", "us"},
	{"verifier.batch64_us", "us"},
	{"verifier.memo_hit_ns", "ns"},
	{"sched.submit_to_start_us", "us"},
	{"sched.flow_tasks_per_s", "1/s"},
	{"tcpnet.rtt_us_64B", "us"},
	{"tcpnet.frames_per_s_64B", "1/s"},
	{"tcpnet.mb_per_s_64KiB", "MB/s"},
	{"transport.mux_roundtrip_us_memnet", "us"},
	{"brb.signed_n4_us_per_batch256", "us"},
	{"brb.signed_n4_us_per_batch1", "us"},
	{"brb.signed_n10_us_per_batch256", "us"},
	{"brb.signed_n4_wire_bytes_per_payment", "bytes"},
	{"brb.bracha_n4_us_per_batch256", "us"},
	{"wal.append_us_per_record", "us"},
	{"wal.fsync_us", "us"},
	{"wal.snapshot_write_ms_8MiB", "ms"},
	{"wal.replay_ms_100k_records", "ms"},
	{"kv.put_us", "us"},
	{"kv.get_cold_us", "us"},
	{"kv.publish_ms_50k", "ms"},
}

// traceMetrics come from the traced run (tracerun.go), per confirmed
// payment of its traced sat phase unless the name says otherwise.
var traceMetrics = []metricDef{
	{"client.pay_call_us", "us"},
	{"client.latency_p99_ms", "ms"},
	{"client.latency_p999_ms", "ms"},
	{"transport.frames_per_payment.brb", "count"},
	{"transport.frames_per_payment.payment", "count"},
	{"transport.frames_per_payment.credit", "count"},
	{"transport.bytes_per_payment.brb", "bytes"},
	{"transport.bytes_per_payment.payment", "bytes"},
	{"transport.bytes_per_payment.credit", "bytes"},
	{"transport.send_busy_us_per_payment", "us"},
	{"wal.records_per_payment", "count"},
	{"wal.syncs_per_payment", "count"},
	{"wal.append_busy_us_per_payment", "us"},
	{"wal.sync_busy_us_per_payment", "us"},
	{"wal.snapshots", "count"},
	{"wal.snapshot_ms_max", "ms"},
	{"kv.gets_per_payment", "count"},
	{"kv.puts_per_payment", "count"},
	{"core.pager_faults_per_payment", "count"},
	{"core.credit_sign_ops_per_payment", "count"},
	{"core.credit_ref_hit_ratio", "ratio"},
	{"verifier.memo_hit_ratio", "ratio"},
	{"sched.tasks_per_payment", "count"},
	{"sched.steal_ratio", "ratio"},
	{"cpu_share.brb", "ratio"},
	{"cpu_share.core", "ratio"},
	{"cpu_share.crypto", "ratio"},
	{"cpu_share.sched", "ratio"},
	{"cpu_share.transport", "ratio"},
	{"cpu_share.wal", "ratio"},
	{"cpu_share.kv", "ratio"},
	{"cpu_share.wire", "ratio"},
	{"cpu_share.runtime", "ratio"},
	{"harness.trace_overhead_share", "ratio"},
	{"harness.late_share", "ratio"},
	{"harness.loadgen_cpu_share", "ratio"},
	{"harness.profile_residual_share", "ratio"},
	{"harness.build_s", "s"},
}

// benchmarkSpec is BENCHMARK.json, as far as -compare and the smoke test
// read it.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
