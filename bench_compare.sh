#!/usr/bin/env bash
# make bench-compare: paired before/after runs of the one benchmark.
#
# PARENT's committed tree is unpacked into .bench_build/parent and runs
# its own copy of the harness; "change" is this checkout as it stands.
# Pair i runs every workload at seed i on both sides, the parent first
# when i is odd and the change first when it is even, so a host that
# speeds up or slows down during the session does not favour one side.
# Rows go to .bench_build/compare/{parent,change}.jsonl; the harness's
# own -compare judges them by BENCHMARK.json's bounds and the script
# exits 1 if any pairing is worse.
set -euo pipefail
root="$(cd "$(dirname "$0")" && pwd)"
cd "$root"
# The Makefile holds the defaults (HEAD~1, 10, tcp4-mem).
parent_ref="${PARENT:?}" pairs="${PAIRS:?}" workloads="${WORKLOADS:?}"

parent="$root/.bench_build/parent"
out="$root/.bench_build/compare"
rm -rf "$parent" "$out"
mkdir -p "$parent" "$out"
trap 'rm -rf "$parent"' EXIT
git archive "$parent_ref" | tar -x -C "$parent"

run() { # side checkout seed workload
	echo "== pair $3 $4 $1"
	# 3 and 4 are a refused run and a dirty audit: the row is not to be
	# compared, so stop here and say which run it was.
	bash "$2/benchmark/run.sh" --workload "$4" --seed "$3" --trace 0 -out "$out/$1.jsonl" ||
		{ echo "bench-compare: $1 $4 seed $3 exited $?" >&2; exit 1; }
}

for i in $(seq 1 "$pairs"); do
	for w in $workloads; do
		if (( i % 2 )); then
			run parent "$parent" "$i" "$w"
			run change "$root" "$i" "$w"
		else
			run change "$root" "$i" "$w"
			run parent "$parent" "$i" "$w"
		fi
	done
done
bash "$root/benchmark/run.sh" -compare "$out/parent.jsonl" "$out/change.jsonl"
