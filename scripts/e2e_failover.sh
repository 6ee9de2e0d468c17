#!/usr/bin/env bash
# Failover e2e: start a clustered primary+replica pair (semi-sync
# replication, short lease), SIGKILL the primary mid-load while sccload
# drives both addresses, and assert that
#   1. the replica promotes itself under fencing epoch 2 (TOPO),
#   2. the load rides the ERR not-primary redirects to completion with
#      conservation intact (sccload's own audit must PASS, and it must
#      report redirects followed > 0 — proof the kill landed mid-load),
#   3. the acked-commit ledger holds on the promoted node: no commit
#      acknowledged before the kill is missing (-verify-only -acked-in),
#   4. a restarted old primary fences itself off the higher epoch it
#      discovers during its boot probe: raw writes draw ERR not-primary
#      before a single write can be acknowledged.
# Run via `make e2e-failover`.
set -euo pipefail

ADDR_A=127.0.0.1:7098
ADDR_B=127.0.0.1:7099
RUN_ID=313131
KEYS=128
SCRATCH=$(mktemp -d)
PRIMARY_PID=
REPLICA_PID=

. "$(dirname "${BASH_SOURCE[0]}")/stop_servers.sh"
cleanup() {
    stop_servers "$PRIMARY_PID" "$REPLICA_PID"
    wait 2>/dev/null || true
    rm -rf "$SCRATCH"
}
trap cleanup EXIT

echo "e2e-failover: building binaries"
go build -o "$SCRATCH/sccserve" ./cmd/sccserve
go build -o "$SCRATCH/sccload" ./cmd/sccload

wait_ready() {
    for _ in $(seq 1 100); do
        if "$SCRATCH/sccload" -addr "$1" -verify-only -run-id 1 -keys 0 >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "e2e-failover: server on $1 never became ready" >&2
    exit 1
}

# One request-reply line over a raw TCP connection (the sccload pool
# would follow the very redirect the fencing assertions are about).
ask() {
    local host=${1%%:*} port=${1##*:} reply
    exec 3<>"/dev/tcp/$host/$port" || return 1
    printf '%s\n' "$2" >&3
    IFS= read -r reply <&3 || true
    exec 3<&- 3>&-
    printf '%s\n' "$reply"
}

echo "e2e-failover: starting clustered primary ($ADDR_A) and replica ($ADDR_B)"
"$SCRATCH/sccserve" -addr "$ADDR_A" -shards 8 \
    -repl-sync -repl-sync-timeout 2s \
    -cluster-self "$ADDR_A" -cluster-peers "$ADDR_B" -cluster-lease 250ms &
PRIMARY_PID=$!
wait_ready "$ADDR_A"
"$SCRATCH/sccserve" -addr "$ADDR_B" -shards 8 -replica-of "$ADDR_A" \
    -cluster-self "$ADDR_B" -cluster-peers "$ADDR_A" -cluster-lease 250ms &
REPLICA_PID=$!
wait_ready "$ADDR_B"

echo "e2e-failover: driving load against $ADDR_A,$ADDR_B (run-id $RUN_ID)"
"$SCRATCH/sccload" -addr "$ADDR_A,$ADDR_B" -clients 16 -ops 800 -mix low \
    -keys "$KEYS" -run-id "$RUN_ID" -acked-out "$SCRATCH/acked" \
    >"$SCRATCH/load.out" 2>&1 &
LOAD_PID=$!

sleep 0.5
echo "e2e-failover: SIGKILL the primary mid-load"
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null || true
PRIMARY_PID=

echo "e2e-failover: waiting for the replica to promote itself"
promoted=
for _ in $(seq 1 150); do
    topo=$(ask "$ADDR_B" TOPO 2>/dev/null || true)
    case "$topo" in
    "OK role=primary epoch="*) promoted=$topo; break ;;
    esac
    sleep 0.1
done
if [ -z "$promoted" ]; then
    echo "e2e-failover: replica never promoted (last TOPO: ${topo:-none})" >&2
    exit 1
fi
echo "e2e-failover: promoted -> $promoted"

if ! wait "$LOAD_PID"; then
    echo "e2e-failover: load failed its own audit across the failover" >&2
    cat "$SCRATCH/load.out" >&2
    exit 1
fi
cat "$SCRATCH/load.out"
if ! grep -Eq 'redirects followed [1-9]' "$SCRATCH/load.out"; then
    echo "e2e-failover: load followed no redirects — the kill missed the load window" >&2
    exit 1
fi

echo "e2e-failover: auditing the acked-commit ledger on the promoted node"
"$SCRATCH/sccload" -addr "$ADDR_B" -verify-only -run-id "$RUN_ID" \
    -keys "$KEYS" -acked-in "$SCRATCH/acked"

echo "e2e-failover: restarting the old primary (must fence itself)"
"$SCRATCH/sccserve" -addr "$ADDR_A" -shards 8 \
    -repl-sync -repl-sync-timeout 2s \
    -cluster-self "$ADDR_A" -cluster-peers "$ADDR_B" -cluster-lease 250ms &
PRIMARY_PID=$!
wait_ready "$ADDR_A"

topo=$(ask "$ADDR_A" TOPO)
case "$topo" in
"OK role=fenced epoch="*) echo "e2e-failover: old primary fenced -> $topo" ;;
*)
    echo "e2e-failover: restarted old primary is not fenced: $topo" >&2
    exit 1
    ;;
esac
reply=$(ask "$ADDR_A" "ADD fencecheck 1")
case "$reply" in
"ERR not-primary"*) echo "e2e-failover: write rejected -> $reply" ;;
*)
    echo "e2e-failover: fenced old primary accepted a write: $reply" >&2
    exit 1
    ;;
esac

echo "e2e-failover: PASS (promotion, redirects, ledger, and fencing all held)"
