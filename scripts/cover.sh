#!/usr/bin/env bash
# cover.sh measures which production code (internal/ and cmd/) anything
# reaches: the tier-1 tests (go test ./...) and the four e2e scripts, run
# unedited with coverage-instrumented binaries (their `go build -o`
# honours GOFLAGS, and each binary that exits normally writes its counters
# to GOCOVERDIR, one per script; a SIGKILLed server writes none). The
# profiles merge block by block, keeping the larger count, and the table
# lists the tier-1 total, the merged total, every function the tier-1
# tests miss with the scripts that reach it, and every function nothing
# reaches.
#
#   bash scripts/cover.sh [table-file]   # make cover; default COVER.txt
#
# Takes a few minutes: the whole test suite runs once, then the e2e
# scripts (about 15 s together).
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-COVER.txt}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "cover: tier-1 tests"
go test -count=1 -coverpkg=./internal/...,./cmd/... -coverprofile="$work/unit.out" ./... >"$work/test.log" 2>&1 ||
    { tail -40 "$work/test.log"; echo "cover: go test failed" >&2; exit 1; }

scripts="recover failover chaos interactive"
for s in $scripts; do
    echo "cover: scripts/e2e_$s.sh"
    mkdir "$work/e2e_$s"
    GOFLAGS='-cover -coverpkg=repro/internal/...,repro/cmd/...' GOCOVERDIR="$work/e2e_$s" \
        bash "scripts/e2e_$s.sh" >"$work/e2e_$s.log" 2>&1 ||
        { tail -20 "$work/e2e_$s.log"; echo "cover: scripts/e2e_$s.sh failed" >&2; exit 1; }
    go tool covdata textfmt -i="$work/e2e_$s" -o "$work/e2e_$s.out"
done

# A block is "file:start,end statements count"; the same block appears
# once per test binary and per e2e script, so keep its largest count.
awk 'FNR == 1 { next }
     { k = $1 " " $2; if (!(k in n) || $3 > n[k]) n[k] = $3 }
     END { print "mode: set"; for (k in n) print k, n[k] }' \
    "$work/unit.out" "$work"/e2e_*.out >"$work/merged.out"

total() { go tool cover -func="$1" | awk '$1 == "total:" { print $3 }'; }
# funcs prints "file:line: name percent" per function of a profile.
funcs() { go tool cover -func="$1" | awk '$1 != "total:" { sub(/^repro\//, "", $1); print $1, $2, $3 }'; }
funcs "$work/merged.out" | awk '$3 == "0.0%" { print "  " $1 " " $2 }' >"$work/never"
for s in $scripts; do
    funcs "$work/e2e_$s.out" | awk -v s="$s" '$3 != "0.0%" { print $1, $2, s }'
done >"$work/reach"
funcs "$work/unit.out" >"$work/unit.funcs"
# Each function tier-1 misses, with the scripts that reach it in run order.
awk 'FILENAME == ARGV[1] { k = $1 " " $2; if (k in by) by[k] = by[k] ", " $3; else by[k] = $3; next }
     $3 == "0.0%" && ($1 " " $2) in by { print "  " $1 " " $2 "  (" by[$1 " " $2] ")" }' \
    "$work/reach" "$work/unit.funcs" >"$work/scripts"
{
    echo "tier-1 tests:           $(total "$work/unit.out") of statements"
    echo "tier-1 + e2e scripts:   $(total "$work/merged.out") of statements"
    echo "missed by tier-1, reached by e2e scripts ($(wc -l <"$work/scripts") functions):"
    cat "$work/scripts"
    echo "never reached ($(wc -l <"$work/never") functions):"
    cat "$work/never"
} | tee "$out"
