# stop_servers PID... ends the servers an e2e script left running: SIGTERM
# first, which sccserve answers with a clean shutdown (so a binary built
# with -cover writes its counters), then SIGKILL for any still alive after
# 5 s. Empty PIDs are skipped. Sourced by the e2e scripts' cleanup; the
# mid-run SIGKILLs that test crash recovery stay where they are.
stop_servers() {
    local pid alive
    for pid in "$@"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    for _ in $(seq 1 50); do
        alive=
        for pid in "$@"; do
            [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null && alive=1
        done
        [ -z "$alive" ] && return 0
        sleep 0.1
    done
    for pid in "$@"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    done
}
