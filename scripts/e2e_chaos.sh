#!/usr/bin/env bash
# Chaos e2e: crash atomicity and sync gating on real processes. Three
# rounds of faults (see internal/durable/fault.go and internal/repl for
# the SCC_FAULT_* env hooks) against a durable sccserve, each audited
# with sccload's conservation + acked-commit invariants:
#
#   1. kill -9 — SIGKILL the server mid cross-shard load, restart, and
#      assert no acked commit was lost AND no multi-shard write was
#      half-recovered (the balanced deltas still sum to zero). One kill
#      is a smoke test: the proof is internal/durable's TestCrashPoints,
#      which recovers every crash point of a seeded run.
#   2. fsync failure — after N fsyncs every sync fails; the server must
#      fail-stop (no OK verdict an unsynced WAL cannot back), and the
#      restart must still hold every commit acked before the failure.
#   3. stalled replica — a replica applying with an injected per-round
#      stall is audited continuously while cross-shard load streams in:
#      the replica holds a prefix of the primary's one commit order,
#      installing each round of whole records at once, so every replica read
#      shows transfers all-shards-at-once and conservation holds
#      mid-catch-up too.
#
# Round 2 also audits the flight recorder's black-box duty: the failing
# server must auto-dump its event journal to <data-dir>/flight before
# fail-stopping, and `sccload -events-merge` must read the dump into a
# causal timeline. Set CHAOS_OUT to a directory to keep the dumps (CI
# uploads them as a workflow artifact).
#
# Run via `make e2e-chaos`.
set -euo pipefail

CHAOS_OUT=${CHAOS_OUT:-}

ADDR=127.0.0.1:7099
REPL_ADDR=127.0.0.1:7199
KEYS=128
SCRATCH=$(mktemp -d)
DATA="$SCRATCH/data"
SERVER_PID=
REPLICA_PID=

. "$(dirname "${BASH_SOURCE[0]}")/stop_servers.sh"
cleanup() {
    stop_servers "$REPLICA_PID" "$SERVER_PID"
    rm -rf "$SCRATCH"
}
trap cleanup EXIT

echo "e2e-chaos: building binaries"
go build -o "$SCRATCH/sccserve" ./cmd/sccserve
go build -o "$SCRATCH/sccload" ./cmd/sccload

wait_ready() {
    local addr=$1
    for _ in $(seq 1 150); do
        if "$SCRATCH/sccload" -addr "$addr" -verify-only -run-id 1 -keys 0 >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "e2e-chaos: server on $addr never became ready" >&2
    exit 1
}

kill_server() {
    kill -9 "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=
}

SERVE_FLAGS=(-addr "$ADDR" -shards 8 -data-dir "$DATA"
    -fsync group -ckpt-every 256 -log-level warn)

# ---- Round 1: kill -9 mid cross-shard load. -------------------------
RUN_ID=7101
echo "e2e-chaos: round 1: start server, kill -9 mid-load (run-id $RUN_ID)"
"$SCRATCH/sccserve" "${SERVE_FLAGS[@]}" &
SERVER_PID=$!
wait_ready "$ADDR"

"$SCRATCH/sccload" -addr "$ADDR" -clients 8 -ops 2000 -mix low \
    -keys "$KEYS" -pipeline 8 -run-id "$RUN_ID" \
    -acked-out "$SCRATCH/acked.kill" >"$SCRATCH/load.kill.log" 2>&1 &
LOAD_PID=$!
sleep 0.5
kill_server
wait "$LOAD_PID" 2>/dev/null || true
[ -f "$SCRATCH/acked.kill" ] || { echo "e2e-chaos: no acked file from the killed load" >&2; exit 1; }

echo "e2e-chaos: round 1: restart + audit"
"$SCRATCH/sccserve" "${SERVE_FLAGS[@]}" &
SERVER_PID=$!
wait_ready "$ADDR"
"$SCRATCH/sccload" -addr "$ADDR" -verify-only -run-id "$RUN_ID" \
    -keys "$KEYS" -acked-in "$SCRATCH/acked.kill" -expect-recovered
# No crash is under test here: stop the recovered server cleanly, so a
# coverage build writes its counters.
stop_servers "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

# ---- Round 2: injected fsync failures force a fail-stop. --------------
# After 200 successful fsyncs every further sync fails. Verdicts are
# sync-gated, so the failure surfaces as ERR (never OK) and the server
# fail-stops; everything acked before the first failure must survive the
# restart.
RUN_ID=7110
echo "e2e-chaos: round 2: fsync failures after 200 syncs (run-id $RUN_ID)"
SCC_FAULT_FSYNC_ERR_AFTER=200 "$SCRATCH/sccserve" "${SERVE_FLAGS[@]}" \
    >"$SCRATCH/server.fsync.log" 2>&1 &
SERVER_PID=$!
wait_ready "$ADDR"
"$SCRATCH/sccload" -addr "$ADDR" -clients 8 -ops 500 -mix low \
    -keys "$KEYS" -pipeline 8 -run-id "$RUN_ID" \
    -acked-out "$SCRATCH/acked.fsync" >"$SCRATCH/load.fsync.log" 2>&1 || true
for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "e2e-chaos: server survived failing fsyncs instead of fail-stopping" >&2
    exit 1
fi
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
grep -q "write-ahead log failed" "$SCRATCH/server.fsync.log" || {
    echo "e2e-chaos: fail-stop log does not mention the WAL error:" >&2
    cat "$SCRATCH/server.fsync.log" >&2
    exit 1
}
# The black box must have dumped itself before the fail-stop.
ls "$DATA"/flight/*-walfail.events >/dev/null 2>&1 || {
    echo "e2e-chaos: failing server left no walfail flight dump in $DATA/flight" >&2
    exit 1
}
echo "e2e-chaos: round 2: walfail flight dump written"

echo "e2e-chaos: round 2: restart + audit (acked before the fault must survive)"
"$SCRATCH/sccserve" "${SERVE_FLAGS[@]}" &
SERVER_PID=$!
wait_ready "$ADDR"
"$SCRATCH/sccload" -addr "$ADDR" -verify-only -run-id "$RUN_ID" \
    -keys "$KEYS" -acked-in "$SCRATCH/acked.fsync" -expect-recovered

# Read every dump the fault produced into one causal timeline (the Go
# test TestFlightDumpsAndMergedTimeline pins the failed epoch's story
# deterministically; here it rides real fault timing).
"$SCRATCH/sccload" -events-merge "$DATA"/flight/*.events >"$SCRATCH/timeline.txt"
grep -q "dump node=.*reason=walfail" "$SCRATCH/timeline.txt" || {
    echo "e2e-chaos: merged timeline lost the walfail dump:" >&2
    cat "$SCRATCH/timeline.txt" >&2
    exit 1
}
echo "e2e-chaos: round 2: merged timeline ok"

if [ -n "$CHAOS_OUT" ]; then
    mkdir -p "$CHAOS_OUT"
    cp "$DATA"/flight/*.events "$CHAOS_OUT"/ 2>/dev/null || true
    cp "$SCRATCH/timeline.txt" "$CHAOS_OUT"/ 2>/dev/null || true
fi

# ---- Round 3: stalled replica, audited mid-catch-up. ------------------
# The primary from round 2 keeps serving. The replica applies with a
# stall before each round, so it lags far behind while cross-shard
# transfers stream in; every conservation sample taken against it
# mid-catch-up must balance — a round installs under one latch hold, so
# the replica is a prefix of the primary's commit order at every instant
# and no transfer surfaces on one shard before the other.
RUN_ID=7120
echo "e2e-chaos: round 3: stalled replica under cross-shard load (run-id $RUN_ID)"
SCC_FAULT_APPLY_DELAY_MS=2 "$SCRATCH/sccserve" -addr "$REPL_ADDR" -shards 8 \
    -replica-of "$ADDR" -log-level warn &
REPLICA_PID=$!
wait_ready "$REPL_ADDR"

"$SCRATCH/sccload" -addr "$ADDR" -clients 8 -ops 150 -mix low \
    -keys "$KEYS" -pipeline 8 -run-id "$RUN_ID" -acked-out "$SCRATCH/acked.repl" &
LOAD_PID=$!
SAMPLES=0
while kill -0 "$LOAD_PID" 2>/dev/null; do
    "$SCRATCH/sccload" -addr "$REPL_ADDR" -verify-only -run-id "$RUN_ID" \
        -keys "$KEYS" >/dev/null || {
        echo "e2e-chaos: replica conservation broke mid-catch-up (half-visible cross commit)" >&2
        exit 1
    }
    SAMPLES=$((SAMPLES + 1))
done
wait "$LOAD_PID"
[ "$SAMPLES" -gt 0 ] || { echo "e2e-chaos: replica auditor never sampled" >&2; exit 1; }
echo "e2e-chaos: round 3: $SAMPLES mid-catch-up conservation samples balanced"

echo "e2e-chaos: round 3: waiting for the stalled replica to catch up"
CAUGHT_UP=
for _ in $(seq 1 600); do
    if "$SCRATCH/sccload" -addr "$REPL_ADDR" -verify-only -run-id "$RUN_ID" \
        -keys "$KEYS" -acked-in "$SCRATCH/acked.repl" >/dev/null 2>&1; then
        CAUGHT_UP=1
        break
    fi
    sleep 0.2
done
[ -n "$CAUGHT_UP" ] || { echo "e2e-chaos: replica never converged on the acked counts" >&2; exit 1; }
"$SCRATCH/sccload" -addr "$REPL_ADDR" -verify-only -run-id "$RUN_ID" \
    -keys "$KEYS" -acked-in "$SCRATCH/acked.repl"

echo "e2e-chaos: PASS (crash-atomic cross-shard commits, sync-gated verdicts, prefix-consistent replica)"
