GO ?= go

.PHONY: check build vet test race bench-smoke bench bench-sweep bench-race fuzz e2e e2e-recover e2e-failover e2e-interactive e2e-chaos scenario-matrix sim-equiv paper-fake lint docs loc loc-check cover clean-data

check: build vet race bench-smoke

# lint is the fast CI gate: gofmt drift fails loudly, then go vet.
lint:
	@drift=$$(gofmt -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi
	$(GO) vet ./...

# docs checks every tracked markdown file for broken relative links, and
# runs the exercised-by ratchets: a verb, flag, option token or env var
# that nothing reaches, or a STATS key, metric family or flight event
# that nothing reads, fails here, before the race jobs start.
docs:
	$(GO) test -run '^(TestDocLinks|TestWireSurface|TestTelemetrySurface)$$' .

# loc prints non-test Go lines per top-level package of the root module
# (bench/ is its own module), so a code-diet PR quotes a command's
# before/after instead of hand-counting.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); k = n > 3 ? p[2] "/" p[3] : n > 2 ? p[2] : "."; \
			loc[k] += $$1; sum += $$1 } END { for (k in loc) printf "%7d %s\n", loc[k], k; printf "%7d total\n", sum }' | sort -k2

# loc-check is the code-diet ratchet (CI's lint job runs it): it fails
# when loc's total exceeds LOC_MAX, the total of the last PR that
# lowered it. A diet PR sets LOC_MAX to its own result; a PR that must
# raise it says why in CHANGES.md.
LOC_MAX = 17437
loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_MAX) ]; then \
		echo "make loc: total $$total exceeds LOC_MAX $(LOC_MAX)"; exit 1; fi; \
	echo "make loc: total $$total <= LOC_MAX $(LOC_MAX)"

# cover runs the tier-1 tests and the four e2e scripts with coverage on,
# merges them, and prints the tier-1 total, the merged total, every
# function tier-1 misses with the scripts that reach it, and every
# production function nothing reaches; the table also lands in COVER_OUT.
# See scripts/cover.sh.
COVER_OUT ?= COVER.txt
cover:
	bash scripts/cover.sh $(COVER_OUT)

# sim-equiv is the simulator's byte-identity check for a refactor: it
# builds sccsim at BASE and from the working tree and diffs `-exp all
# -quick`, full-scale `-exp fig13a` and `-fig all`, wall-time lines
# aside; see scripts/sim_equiv.sh.
sim-equiv:
	bash scripts/sim_equiv.sh $(BASE)

# paper-fake runs the engine on the paper's baseline workload in fake
# time (testing/synctest, go1.24's GOEXPERIMENT=synctest): both engine
# modes beside the simulator's SCC-2S and OCC-BC at seeds 1-2 and 50 /
# 100 / 150 txn/s, and the lockstep hot-key test. It prints the tables;
# it asserts that every arrival resolves, that a rerun of a seed is
# identical, and that the hot key loses no update. Plain `go test ./...`
# skips both files. About 10 s on 2 vCPUs.
paper-fake:
	GOEXPERIMENT=synctest $(GO) test -count=1 -v -run '^(TestPaperWorkloadFakeTime|TestLockstepHotKey)$$' ./internal/harness ./internal/engine

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-smoke vets and tests the repo benchmark's module. bench/ is a
# module of its own (replace => ../), so `go build ./...` at the root
# does not notice when an internal/ signature it calls changes; this
# does, in a few seconds.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 0.5s .

# bench-sweep runs the old sccserve/sccload scenario sweep that produced
# the checked-in BENCH_{6,7,9}.json; see scripts/bench_sweep.sh. It is
# not a source of performance claims — `bash bench/run.sh` is, and
# `bash bench/run.sh -compare A.json B.json` compares two of its runs —
# and stays only because bench/README.md still links it.
BENCH_OUT ?= BENCH.json
bench-sweep:
	bash scripts/bench_sweep.sh $(BENCH_OUT)

# bench-race is the CI guard that the instrumented hot path stays
# race-clean under benchmark load: one pass of the pipelined benchmark
# with the race detector on.
bench-race:
	$(GO) test -race -run '^$$' -bench 'BenchmarkPipelined' -benchtime 1x .

fuzz:
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzDispatch$$' -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzSplitFields$$' -fuzztime 30s
	$(GO) test ./internal/server/opts -run '^$$' -fuzz '^FuzzParseToken$$' -fuzztime 30s
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzParseTrace$$' -fuzztime 30s
	$(GO) test ./internal/durable -run '^$$' -fuzz '^FuzzNextFrame$$' -fuzztime 30s

# scenario-matrix runs the full workload × value-function grid against
# live in-process servers (internal/scenario via sccload -matrix): every
# cell boots its own topology, is audited for conservation + the
# acked-commit ledger, and the merged scc-scenario/v1 artifact lands in
# SCENARIO_OUT. Tier-1 tests keep a 2-cell smoke grid; this is the
# nightly-sized run.
SCENARIO_OUT ?= SCENARIO.json
scenario-matrix:
	$(GO) run ./cmd/sccload -matrix full -matrix-out $(SCENARIO_OUT)

e2e:
	$(GO) test ./internal/server -race -count=2

# e2e-recover runs a durable OCC-BC sccserve, reads GET /metrics and
# GET /debug/events after a load, SIGKILLs it and asserts the restart
# recovers every acknowledged commit (conservation + recovered_index);
# see scripts/e2e_recover.sh.
e2e-recover:
	bash scripts/e2e_recover.sh

# e2e-failover SIGKILLs the primary of a clustered primary+replica pair
# mid-load and asserts the replica promotes itself under a higher
# fencing epoch, the load rides the ERR not-primary redirects with no
# acked commit lost, and a restarted old primary fences itself; see
# scripts/e2e_failover.sh.
e2e-failover:
	bash scripts/e2e_failover.sh

# e2e-chaos injects faults (a kill -9 mid cross-shard load, fsync errors
# and stalled replica apply via the SCC_FAULT_* env hooks) and audits
# crash-atomicity of cross-shard commits, sync-gated verdicts +
# fail-stop, and prefix-consistent replica reads on real processes;
# see scripts/e2e_chaos.sh.
e2e-chaos:
	bash scripts/e2e_chaos.sh

# e2e-interactive drives interactive TXN sessions (think time, pipelined
# sessions, mixed with one-shot traffic) against a live sccserve and
# checks sccload's conservation + lost-update invariants; see
# scripts/e2e_interactive.sh.
e2e-interactive:
	bash scripts/e2e_interactive.sh

# clean-data removes the local durability directory the README quickstart
# uses, so repeated local runs start cold instead of accreting state.
clean-data:
	rm -rf ./data
