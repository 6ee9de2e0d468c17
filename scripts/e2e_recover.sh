#!/usr/bin/env bash
# Kill-and-recover e2e: start a durable sccserve under OCC-BC (the
# paper's baseline protocol; -mode scc-2s is the default every other
# script runs), drive a balanced load with a pinned run id, read the
# server's telemetry over HTTP, SIGKILL the server mid-flight of nothing
# (after acks), restart it over the same data directory, and assert that
#   1. GET /metrics reports scc_commits_total > 0 and GET /debug/events
#      returns at least one flight-recorder event line,
#   2. conservation still holds over the run's keyspace (sccload
#      -verify-only re-sums the balanced deltas to zero), and
#   3. the server reports recovered_index > 0 (it really replayed the
#      WAL, it is not just an empty store agreeing that 0 == 0).
# Run via `make e2e-recover`.
set -euo pipefail

ADDR=127.0.0.1:7097
METRICS_PORT=7197
RUN_ID=424242
KEYS=128
SCRATCH=$(mktemp -d)
DATA="$SCRATCH/data"
SERVER_PID=

. "$(dirname "${BASH_SOURCE[0]}")/stop_servers.sh"
cleanup() {
    stop_servers "$SERVER_PID"
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

# http_get <path> prints the body of one HTTP/1.0 GET against the
# server's -metrics-addr listener, over bash's /dev/tcp because curl may
# be missing. The body starts after the first blank line.
http_get() {
    exec 4<>"/dev/tcp/127.0.0.1/$METRICS_PORT"
    printf 'GET %s HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n' "$1" >&4
    sed '1,/^\r\{0,1\}$/d' <&4
    exec 4<&- 4>&-
}

SERVE_FLAGS=(-addr "$ADDR" -shards 8 -mode occ-bc -data-dir "$DATA"
    -fsync group -ckpt-every 512 -metrics-addr "127.0.0.1:$METRICS_PORT")

echo "e2e-recover: starting durable OCC-BC server"
"$SCRATCH/sccserve" "${SERVE_FLAGS[@]}" &
SERVER_PID=$!
wait_ready

echo "e2e-recover: driving load (run-id $RUN_ID)"
"$SCRATCH/sccload" -addr "$ADDR" -clients 16 -ops 100 -mix low \
    -keys "$KEYS" -pipeline 8 -run-id "$RUN_ID"

echo "e2e-recover: reading GET /metrics and GET /debug/events"
http_get /metrics >"$SCRATCH/metrics.txt"
awk '$1 == "scc_commits_total" && $2 > 0 { ok = 1 } END { exit !ok }' "$SCRATCH/metrics.txt" || {
    echo "e2e-recover: GET /metrics lacks scc_commits_total > 0:" >&2
    grep '^scc_commits' "$SCRATCH/metrics.txt" >&2 || head -5 "$SCRATCH/metrics.txt" >&2
    exit 1
}
http_get /debug/events >"$SCRATCH/events.txt"
EVENTS=$(grep -c ' txn=[0-9]* shard=' "$SCRATCH/events.txt" || true)
[ "$EVENTS" -gt 0 ] || {
    echo "e2e-recover: GET /debug/events returned no event line:" >&2
    head -5 "$SCRATCH/events.txt" >&2
    exit 1
}
echo "e2e-recover: telemetry ok ($(awk '$1 == "scc_commits_total" { print $2 }' "$SCRATCH/metrics.txt") commits, $EVENTS events)"

echo "e2e-recover: SIGKILL the server"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

echo "e2e-recover: restarting over $DATA"
"$SCRATCH/sccserve" "${SERVE_FLAGS[@]}" &
SERVER_PID=$!
wait_ready

echo "e2e-recover: auditing recovered state"
"$SCRATCH/sccload" -addr "$ADDR" -verify-only -run-id "$RUN_ID" \
    -keys "$KEYS" -expect-recovered

echo "e2e-recover: PASS (conservation held across SIGKILL + recovery)"
