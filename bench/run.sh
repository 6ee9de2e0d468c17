#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the repository root (binary and Go build cache,
# so nothing is written outside the checkout) and runs it from the root.
#
#   bash bench/run.sh                         # all workloads, every metric
#   bash bench/run.sh --workload hot_shard --seed 7 --seconds 20 --trace 0
#   bash bench/run.sh -compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
SCCBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SCCBENCH_COMMIT
# HOME too, so the go command's own config and telemetry files stay inside.
HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
	go build -C "$here" -o "$build/sccbench" .
cd "$root"
exec "$build/sccbench" "$@"
