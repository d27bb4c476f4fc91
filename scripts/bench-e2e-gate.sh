#!/usr/bin/env bash
# The end-to-end gate on what a shared host cannot move (make bench-e2e-gate).
#
# It checks out HEAD and HEAD~1 in two git worktrees under WORK, runs
# benchmark/run.sh on sim_federation, facade_onchain, tcp_channel and
# tcp_onchain (the channel and the on-chain settlement, end to end over
# loopback TCP) for each seed, parent and change interleaved run by
# run, folds each side into a set and compares the sets with the
# change's -compare. It fails only on
#   - an alloc_kb_per_delivery breach of the manifest's bound,
#   - a failed delivery (any run with failed > 0 or correct = false), or
#   - sim.virt_delivery_* differing between the two sides for a seed.
# Time rows are printed, not gated: on a shared host they drift by more
# than their bounds with no code change.
#
#   scripts/bench-e2e-gate.sh WORK
#
# WORK must be empty, missing, or left by an earlier gate run (it holds
# the .bench-e2e-gate marker); the gate clears only what it creates there.
# Each run lasts BENCHMARK.json's run_seconds.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
work="${1:?usage: scripts/bench-e2e-gate.sh WORK}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
seeds="1 2 3"
workloads="sim_federation facade_onchain tcp_channel tcp_onchain"

mkdir -p "$work"
work="$(cd "$work" && pwd)"
if [ ! -e "$work/.bench-e2e-gate" ] && [ -n "$(ls -A "$work")" ]; then
	echo "bench-e2e-gate: $work is not empty and was not made by the gate; pick another WORK" >&2
	exit 2
fi
touch "$work/.bench-e2e-gate"

cleanup() {
	for side in parent change; do
		git -C "$root" worktree remove --force "$work/$side" 2>/dev/null || true
	done
	git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
rm -rf "$work/out"
mkdir -p "$work/out"
git -C "$root" worktree add --detach "$work/parent" HEAD~1
git -C "$root" worktree add --detach "$work/change" HEAD

for seed in $seeds; do
	for wl in $workloads; do
		for side in parent change; do
			echo "== $side $wl seed $seed"
			# The last stdout line is the driver's JSON; -out keeps the document.
			bash "$work/$side/benchmark/run.sh" -workload "$wl" -seed "$seed" -seconds "$seconds" \
				-trace 0 -out "$work/out/${side}_${wl}_${seed}.json" | sed '$d'
		done
	done
done
for side in parent change; do
	bash "$work/change/benchmark/run.sh" -merge "$work/out/$side.json" "$work/out/${side}"_*_*.json
done

# -compare exits 1 on any breach, time rows and the workloads not run
# here included; only its own failure (2) stops the gate before the filter.
rc=0
bash "$work/change/benchmark/run.sh" -compare "$work/out/parent.json" "$work/out/change.json" \
	>"$work/out/compare.txt" || rc=$?
if [ "$rc" -gt 1 ]; then
	cat "$work/out/compare.txt"
	exit "$rc"
fi
awk -v workloads=" $workloads " '
	/^BREACH:/ { print; bad = 1; next }
	NR <= 3 || index(workloads, " " $1 " ") == 0 { if (NR <= 3) print; next }
	$2 == "alloc_kb_per_delivery" && ($NF == "BREACH" || /missing from one side/) { print "GATED: " $0; bad = 1; next }
	{ print }
	END {
		print (bad ? "bench-e2e-gate: FAIL" : "bench-e2e-gate: PASS (time rows are reported, not gated)")
		exit bad
	}
' "$work/out/compare.txt"
