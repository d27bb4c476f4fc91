#!/usr/bin/env bash
# The benchmark's entry point. It builds the harness once into
# .bench_build/ at the repo root (everything the build and the runs write
# stays under the repo root), then
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       runs one workload in a fresh process (BENCHMARK.json's command);
#   benchmark/run.sh
#       runs the whole suite into benchmark/out/: RUNS (default 3) untraced
#       runs per workload on seeds 1..RUNS, one traced run per workload,
#       and set.json folding the untraced runs for -compare;
#   benchmark/run.sh -compare a.json b.json
#       passes any other flag straight to the harness.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/bcwan-benchmark"

mkdir -p "$build/tmp"
# go build is a no-op when the binary is current.
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	go build -C "$here" -o "$bin" .

cd "$root"
if [ "$#" -gt 0 ]; then
	exec "$bin" "$@"
fi

out="$here/out"
runs="${RUNS:-3}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
mkdir -p "$out"
docs=()
for workload in facade_onchain tcp_channel tcp_onchain sim_federation; do
	for seed in $(seq 1 "$runs"); do
		"$bin" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 \
			-out "$out/${workload}_seed${seed}.json" | sed '$d'
		docs+=("$out/${workload}_seed${seed}.json")
	done
	"$bin" -workload "$workload" -seed 1 -seconds "$seconds" -trace 1 \
		-out "$out/${workload}_traced.json" | sed '$d'
done
"$bin" -merge "$out/set.json" "${docs[@]}"
echo "wrote $out/set.json; compare two of them with: benchmark/run.sh -compare a.json b.json"
