#!/usr/bin/env bash
# Builds the benchmark harness and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload rbtree-read --seed 1 --seconds 20 --trace 0
#
# Every build output and Go cache stays under .bench_build/ in the
# repository root, so the benchmark reads and writes only inside the tree.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -f cmd/figures/main.go || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/figures, perfbench)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/xdg-config" "$out/xdg-cache"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/xdg-config" XDG_CACHE_HOME="$out/xdg-cache"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

# The harness replays the figures in-process; building it with the
# shipped profile, when there is one, makes that code the code the child
# runs.
pgo=off
if [[ -f cmd/figures/default.pgo ]]; then
	pgo="$root/cmd/figures/default.pgo"
fi
go -C perfbench build -pgo="$pgo" -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" --out "$out" "$@"
