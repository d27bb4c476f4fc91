#!/usr/bin/env bash
# Lists every function and method declared in a non-test Go file of
# internal/ or the root package that no binary of the repository links:
# each cmd/* and examples/* program and the benchmark harness, built
# without inlining into a temporary directory and read with go tool nm.
# A report for dead-code sweeps, not a gate: a name it prints has no
# caller outside tests (or is reached only by reflection). Run from
# anywhere: bash scripts/unreached.sh (or make unreached).
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for d in cmd/* examples/*; do
	go build -gcflags=all=-l -o "$tmp/bin/${d//\//_}" "./$d"
done
go build -C benchmark -gcflags=all=-l -o "$tmp/bin/benchmark" .
# Names follow the address and type columns; generic ones hold spaces.
for b in "$tmp"/bin/*; do go tool nm "$b"; done | sed -E 's/^ *([0-9a-f]+ +)?[A-Za-z] +//' | sort -u >"$tmp/syms"
git ls-files '*.go' | grep -Ev '_test\.go$' | grep -E '^(internal/|[^/]*\.go$)' | while read -r f; do
	dir=$(dirname "$f") pkg=bcwan
	[ "$dir" = . ] || pkg="bcwan/$dir"
	sed -nE 's/^func (\(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)[^)]*\) )?([A-Za-z0-9_]+)[[(].*/\3 \4/p' "$f" |
		while read -r recv name; do
			[ -n "$name" ] || { name=$recv recv=; }
			[ "$name" = init ] && continue
			if [ -n "$recv" ]; then re="^$pkg\.(\(\*)?$recv(\[.*\])?\)?\.$name$" label="$recv.$name"; else re="^$pkg\.$name(\[.*\])?$" label=$name; fi
			grep -qE "$re" "$tmp/syms" || echo "$f: $label"
		done
done
