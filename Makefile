# Astro reproduction — build and verification targets.
#
# `make check` is the default gate: build, vet, tests, and the race suite
# over the concurrency-heavy packages. `make verify` remains as an alias.

GO ?= go

.PHONY: all build test vet race fuzz-smoke chaos-smoke chaos-smoke-tcp soak profile-mem bench-compare check verify

all: check

build:
	$(GO) build ./...

# The benchmark harness is a module of its own (benchmark/go.mod), which
# `go test ./...` does not descend into; its -short tests check that it
# still builds against this tree and agrees with BENCHMARK.json, without
# launching deployments.
test:
	$(GO) test ./...
	cd benchmark && $(GO) test -short ./...

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# Race-detector pass over the lane scheduler, transport dispatch, and the
# crypto/broadcast/payment hot path — the packages with cross-goroutine
# completions, flow stealing, and per-channel dispatch (including the PR 4
# chain-reference caches, the tcpnet dial/redial liveness tests, the
# PR 6 WAL writer/crash-recovery paths, the PR 7 Byzantine/chaos
# interposition layer with its always-on auditor, and the PR 10 embedded
# KV store behind the paged account state).
race:
	$(GO) test -race ./internal/sched/... ./internal/types/... ./internal/transport/... ./internal/crypto/... ./internal/brb/... ./internal/core/... ./internal/wal/... ./internal/kv/...
	$(GO) test -race -run 'Byzantine|Equivocation|Chaos|Partition|Reconfiguration|Auditor|LinkDelay' ./internal/sim/

# Benchmark numbers, end to end and per layer, come from the one harness
# in benchmark/ (see benchmark/README.md): `bash benchmark/run.sh
# --workload tcp4-mem --seed 1 --seconds 26 --trace 0`, `-layers`,
# `-compare a.jsonl b.jsonl`; `--trace 1` adds the CPU profile.

# A performance claim is ten alternating pairs of PARENT's committed tree
# against this checkout (bench_compare.sh): seeds 1..PAIRS, every workload
# in WORKLOADS, rows in .bench_build/compare/{parent,change}.jsonl, judged
# by the harness's -compare; exits 1 if any metric is worse than its bound.
# About 100 s a pair and workload. Run nothing else meanwhile.
PARENT ?= HEAD~1
PAIRS ?= 10
WORKLOADS ?= tcp4-mem
bench-compare:
	PARENT='$(PARENT)' PAIRS='$(PAIRS)' WORKLOADS='$(WORKLOADS)' bash bench_compare.sh

# Short fuzz pass over every wire/record decoder harness — the commit and
# chain-reference forms (brb), the credit channel, batches, dependencies,
# durable snapshot, and manifest images (core), the WAL frame scanner (wal), and
# the KV record/index parsers that recovery trusts (kv). ~10s per
# fuzzer; CI-smoke depth, not a soak.
FUZZTIME ?= 10s
fuzz-smoke:
	for f in FuzzScanFrames FuzzFileLoad; do \
		$(GO) test -run=NONE -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) ./internal/wal/ || exit 1; done
	for f in FuzzDecodeKVPage FuzzDecodeKVIndex; do \
		$(GO) test -run=NONE -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) ./internal/kv/ || exit 1; done
	for f in FuzzDecodeCreditChannel FuzzDecodeBatch FuzzDecodeDependency FuzzDecodeReplicaImage FuzzDecodeManifest FuzzDecodePaymentChannel FuzzCreditDependencies; do \
		$(GO) test -run=NONE -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) ./internal/core/ || exit 1; done
	for f in FuzzDecodeChainDef FuzzDecodeCommitRef FuzzDecodeChainNack FuzzDecodeCommitTab; do \
		$(GO) test -run=NONE -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) ./internal/brb/ || exit 1; done
	$(GO) test -run=NONE -fuzz="^FuzzDecodeReconfigChannel$$" -fuzztime=$(FUZZTIME) ./internal/reconfig/

# Seeded Byzantine + chaos scenario matrix under the invariant auditor:
# every malicious behavior at f faulty (clean audit required), the f+1
# collusion that must be detected, chaos/partition soaks, kill -9 under
# partition, and reconfiguration (join + crash-leave) under live load
# with faults active. Deterministic per seed; CI-smoke depth.
chaos-smoke:
	$(GO) test -count=1 -run 'Byzantine|Equivocation|Chaos|Partition|Reconfiguration|Auditor|LinkDelay' ./internal/sim/
	$(GO) test -count=1 -race -run 'NackStorm|NackNonMember|NackUnregistered' ./internal/brb/ ./internal/core/
	$(GO) test -count=1 -run 'ViaFacade' .

# The scenario matrix across real astro-node processes on real TCP:
# Byzantine behavior at f under per-link chaos, a scheduled
# partition→heal with a kill -9/WAL-restart mid-partition, and the
# Byzantine-client storm at a live payment edge — each ending in the
# out-of-process invariant audit over state-transfer snapshots.
# CI-sized (builds astro-node once, ~30s total).
chaos-smoke-tcp:
	$(GO) test -count=1 ./internal/e2e/

# Long-soak survival harness — NOT a CI test. Minutes of randomized
# kill -9/restart cycles, a rotating Byzantine seat, a hostile client,
# and seeded chaos on a durable N>=7 cluster, under the always-on
# auditor, ending in a quiescent conservation check. Tune with e.g.
# SOAK_DURATION=30m, SOAK_FLAGS='-n 10 -clients 16 -seed 7'.
SOAK_DURATION ?= 2m
SOAK_FLAGS ?=
soak:
	$(GO) run ./cmd/astro-soak -duration $(SOAK_DURATION) $(SOAK_FLAGS)

# Heap profile of the paged state at scale: runs the 100k-account rows
# of the bytes/account grid under -memprofile and prints the top
# allocators by allocated space — where the per-account bytes come from
# (benchmark states are dead by profile-write time, so alloc_space is
# the meaningful index; artifacts: core.test, mem.out).
profile-mem:
	$(GO) test -run=NONE -bench 'BenchmarkStateBytesPerAccount/accounts=100000/' -benchtime=1x \
		-memprofile=mem.out -o core.test ./internal/core/
	$(GO) tool pprof -top -nodecount=20 -sample_index=alloc_space core.test mem.out

check: build vet test race chaos-smoke-tcp

verify: check
