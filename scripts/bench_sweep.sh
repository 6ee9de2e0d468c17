#!/usr/bin/env bash
# Standard bench sweep: run sccload's four canonical scenarios against a
# fresh sccserve each, collect every run's -bench-out JSON, and merge
# them into one artifact (default BENCH.json). The checked-in
# BENCH_<pr>.json trajectory files are produced by this script, so a
# performance change reviews as an artifact diff. Run via
# `make bench-sweep [BENCH_OUT=BENCH_7.json]`.
set -euo pipefail

OUT=${1:-BENCH.json}
ADDR=127.0.0.1:7399
SCRATCH=$(mktemp -d)
SERVER_PID=

# The artifact stamps the core count the sweep ran on: bench numbers
# from different machines are only comparable at the same parallelism,
# and a GOMAXPROCS=1 run (cgroup-capped CI, taskset) serializes the
# server and the load generator onto one core — flag it loudly.
CPUS=${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}
if [ "$CPUS" -le 1 ]; then
    echo "bench-sweep: WARNING: running with 1 CPU (GOMAXPROCS=${GOMAXPROCS:-unset}); throughput and latency are not comparable to multi-core artifacts" >&2
fi

cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$SCRATCH"
}
trap cleanup EXIT

echo "bench-sweep: building binaries"
go build -o "$SCRATCH/sccserve" ./cmd/sccserve
go build -o "$SCRATCH/sccload" ./cmd/sccload

wait_ready() {
    for _ in $(seq 1 100); do
        if "$SCRATCH/sccload" -addr "$ADDR" -verify-only -run-id 1 -keys 0 >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "bench-sweep: server on $ADDR never became ready" >&2
    exit 1
}

NAMES=()
FILES=()

# run <name> "<server flags>" "<load flags>"
run() {
    local name=$1 serve_flags=$2 load_flags=$3
    local file="$SCRATCH/$name.json"
    echo "bench-sweep: scenario $name"
    # shellcheck disable=SC2086
    "$SCRATCH/sccserve" -addr "$ADDR" -log-level warn $serve_flags &
    SERVER_PID=$!
    wait_ready
    # shellcheck disable=SC2086
    "$SCRATCH/sccload" -addr "$ADDR" $load_flags \
        -trace-sample 20 -bench-out "$file"
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=
    NAMES+=("$name")
    FILES+=("$file")
}

run pipelined-low \
    "-shards 16" \
    "-clients 32 -ops 200 -mix low -pipeline 16"
run pipelined-high-contention \
    "-shards 16" \
    "-clients 32 -ops 200 -mix high -pipeline 16"
run interactive-two-class \
    "-shards 16" \
    "-clients 32 -ops 100 -mix two -interactive -pipeline 8"
run single-shard-group-commit \
    "-shards 16" \
    "-clients 32 -ops 200 -mix single -pipeline 16"
# Same load as pipelined-low but durable: the delta against it prices
# the WAL write path, and since PR 7 that includes the cross-shard
# intent + decision records (2PC round per multi-shard commit).
run durable-cross-intents \
    "-shards 16 -fsync group -data-dir $SCRATCH/dur-data" \
    "-clients 32 -ops 200 -mix low -pipeline 16"

{
    printf '{\n  "schema": "scc-bench-sweep/v1",\n  "cpus": %d,\n  "runs": [\n' "$CPUS"
    for i in "${!FILES[@]}"; do
        [ "$i" -gt 0 ] && printf ',\n'
        printf '    {\n      "name": "%s",\n      "result":\n' "${NAMES[$i]}"
        sed 's/^/      /' "${FILES[$i]}"
        printf '    }'
    done
    printf '\n  ]\n}\n'
} >"$OUT"

echo "bench-sweep: wrote $OUT"
