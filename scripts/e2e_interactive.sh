#!/usr/bin/env bash
# Interactive-session e2e: start a live sccserve, drive an interactive
# TXN workload (sccload -interactive: one session per transaction, one
# round trip per operation with think time in between, pipelined
# sessions multiplexed per connection), and rely on sccload's built-in
# self-checks:
#   1. conservation — the balanced ± deltas of every committed session
#      must sum to zero over the run's keyspace (a torn or doubly
#      applied interactive commit breaks it), and
#   2. no lost updates — every committed session bumped its client's
#      audit counter exactly once.
# A second phase mixes one-shot UPD traffic into the same keyspace to
# check the two surfaces share one commit path without stepping on each
# other. Run via `make e2e-interactive`.
set -euo pipefail

ADDR=127.0.0.1:7098
RUN_ID=515151
KEYS=128
SCRATCH=$(mktemp -d)
SERVER_PID=

. "$(dirname "${BASH_SOURCE[0]}")/stop_servers.sh"
cleanup() {
    stop_servers "$SERVER_PID"
    rm -rf "$SCRATCH"
}
trap cleanup EXIT

echo "e2e-interactive: building binaries"
go build -o "$SCRATCH/sccserve" ./cmd/sccserve
go build -o "$SCRATCH/sccload" ./cmd/sccload

wait_ready() {
    for _ in $(seq 1 100); do
        if "$SCRATCH/sccload" -addr "$ADDR" -verify-only -run-id 1 -keys 0 >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "e2e-interactive: server on $ADDR never became ready" >&2
    exit 1
}

echo "e2e-interactive: starting server"
"$SCRATCH/sccserve" -addr "$ADDR" -shards 8 &
SERVER_PID=$!
wait_ready

echo "e2e-interactive: blocking interactive sessions with think time"
"$SCRATCH/sccload" -addr "$ADDR" -clients 8 -ops 40 -mix low -keys "$KEYS" \
    -interactive -think 1ms -run-id "$RUN_ID"

echo "e2e-interactive: pipelined concurrent sessions per connection"
"$SCRATCH/sccload" -addr "$ADDR" -clients 4 -ops 60 -mix two -keys "$KEYS" \
    -interactive -pipeline 4 -think 200us -run-id $((RUN_ID + 1))

echo "e2e-interactive: one-shot UPD traffic through the same commit path"
"$SCRATCH/sccload" -addr "$ADDR" -clients 8 -ops 60 -mix low -keys "$KEYS" \
    -pipeline 8 -run-id $((RUN_ID + 2))

echo "e2e-interactive: re-audit the interactive run's conservation"
"$SCRATCH/sccload" -addr "$ADDR" -verify-only -run-id "$RUN_ID" -mix low -keys "$KEYS"

echo "e2e-interactive: PASS"
