#!/usr/bin/env bash
# Kill-and-recover e2e: start a durable sccserve, drive a balanced load
# with a pinned run id, SIGKILL the server mid-flight of nothing (after
# acks), restart it over the same data directory, and assert that
#   1. conservation still holds over the run's keyspace (sccload
#      -verify-only re-sums the balanced deltas to zero), and
#   2. the server reports recovered_index > 0 (it really replayed the
#      WAL, it is not just an empty store agreeing that 0 == 0).
# Run via `make e2e-recover`.
set -euo pipefail

ADDR=127.0.0.1:7097
RUN_ID=424242
KEYS=128
SCRATCH=$(mktemp -d)
DATA="$SCRATCH/data"
SERVER_PID=

cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$SCRATCH"
}
trap cleanup EXIT

echo "e2e-recover: building binaries"
go build -o "$SCRATCH/sccserve" ./cmd/sccserve
go build -o "$SCRATCH/sccload" ./cmd/sccload

wait_ready() {
    for _ in $(seq 1 100); do
        if "$SCRATCH/sccload" -addr "$ADDR" -verify-only -run-id 1 -keys 0 >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "e2e-recover: server on $ADDR never became ready" >&2
    exit 1
}

echo "e2e-recover: starting durable server"
"$SCRATCH/sccserve" -addr "$ADDR" -shards 8 -data-dir "$DATA" \
    -fsync group -ckpt-every 512 &
SERVER_PID=$!
wait_ready

echo "e2e-recover: driving load (run-id $RUN_ID)"
"$SCRATCH/sccload" -addr "$ADDR" -clients 16 -ops 100 -mix low \
    -keys "$KEYS" -pipeline 8 -run-id "$RUN_ID"

echo "e2e-recover: SIGKILL the server"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

echo "e2e-recover: restarting over $DATA"
"$SCRATCH/sccserve" -addr "$ADDR" -shards 8 -data-dir "$DATA" \
    -fsync group -ckpt-every 512 &
SERVER_PID=$!
wait_ready

echo "e2e-recover: auditing recovered state"
"$SCRATCH/sccload" -addr "$ADDR" -verify-only -run-id "$RUN_ID" \
    -keys "$KEYS" -expect-recovered

echo "e2e-recover: PASS (conservation held across SIGKILL + recovery)"
