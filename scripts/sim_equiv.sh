#!/usr/bin/env bash
# sim_equiv.sh proves that a change leaves the simulator's output exactly
# as it was. It builds cmd/sccsim at BASE (checked out in a temporary git
# worktree) and from the working tree, runs three outputs on both:
#
#   sccsim -exp all -quick -nochart   every registry experiment, quick scale
#   sccsim -exp fig13a -nochart       the baseline sweep at full scale
#   sccsim -fig all                   the paper's illustrative schedules
#
# and diffs them. Only the "(quick mode in …)" and "(full scale in …)"
# wall-time lines are removed before the diff. It prints each diff and
# exits 1 if any output differs.
#
#   bash scripts/sim_equiv.sh <rev>    # make sim-equiv BASE=<rev>
#
# Takes about a minute on 2 vCPUs: the full-scale fig13a runs twice.
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:?usage: sim_equiv.sh <base-rev>}
work=$(mktemp -d)
cleanup() {
    git worktree remove --force "$work/base" 2>/dev/null || true
    git worktree prune
    rm -rf "$work"
}
trap cleanup EXIT

git worktree add --quiet --detach "$work/base" "$base"
(cd "$work/base" && go build -o "$work/sccsim.base" ./cmd/sccsim)
go build -o "$work/sccsim.head" ./cmd/sccsim

status=0
run() { # name, sccsim args...
    local name=$1
    shift
    for side in base head; do
        "$work/sccsim.$side" "$@" | grep -Ev '^\((quick mode|full scale) in .*\)$' >"$work/$name.$side"
    done
    if diff -u "$work/$name.base" "$work/$name.head"; then
        echo "sim-equiv: $name identical ($(wc -l <"$work/$name.head") lines)"
    else
        echo "sim-equiv: $name DIFFERS" >&2
        status=1
    fi
}
run exp-all-quick -exp all -quick -nochart
run fig13a-full -exp fig13a -nochart
run fig-all -fig all
exit $status
