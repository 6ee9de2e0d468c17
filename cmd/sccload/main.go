// Command sccload is the command-line front end of internal/loadgen, the
// concurrent closed-loop load generator for sccserve.
//
//	sccload -addr :7070 -clients 64 -ops 200 -mix low
//	sccload -addr :7070 -clients 64 -ops 200 -mix low -pipeline 16
//
// Flags select the worker shape (one blocking round trip per
// transaction; -pipeline n in flight per connection; -interactive TXN
// sessions with -think time), the workload mix, and the run's key
// namespace. Every run audits itself — see the loadgen package comment
// for the transaction rendering and the two invariants — and exits
// non-zero on a violation.
//
// Against a cluster, -addr takes the comma-separated member list: the
// per-round-trip path then follows ERR not-primary redirects across a
// failover and the summary reports the redirects and reconnects it cost.
//
// The conservation invariant also audits crash recovery: run a load with
// a pinned -run-id against a durable server, SIGKILL and restart the
// server, then re-run with -verify-only -run-id <id> (plus
// -expect-recovered to assert the restart actually replayed a data
// directory, and -acked-in to audit the ledger a previous -acked-out
// recorded). scripts/e2e_recover.sh automates the cycle.
//
// Mixes: low (Sec. 4 baseline spread over -keys pages), high (the same
// class squeezed onto 16 hot pages with 4 accesses), two (the Fig. 14(b)
// two-class value mix: 10% long/tight/high-value, 90% short/routine),
// single (one-key transactions on the audit counters only — 100%
// single-shard fast path, the mix that exercises group commit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/loadgen"
	"repro/internal/model"
	"repro/internal/obs/flight"
	"repro/internal/scenario"
	"repro/internal/server/client"
	"repro/internal/workload"
)

func mixConfig(mix string, keys int, seed int64) workload.Config {
	switch mix {
	case "low", "single":
		// single reuses the baseline class for deadlines/values; its
		// transactions touch only the client's audit counter (one key,
		// one shard), so it exercises the fast path and group commit.
		cfg := workload.Baseline(100, seed)
		cfg.DBPages = keys
		return cfg
	case "high":
		cfg := workload.Baseline(100, seed)
		cfg.DBPages = 16
		cfg.Classes[0].NumOps = 4
		return cfg
	case "two":
		cfg := workload.TwoClass(100, seed)
		cfg.DBPages = keys
		return cfg
	}
	log.Fatalf("sccload: unknown -mix %q (want low, high, two, or single)", mix)
	return workload.Config{}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "sccserve address, or a comma-separated cluster member list (the per-round-trip path then follows ERR not-primary redirects across failover)")
	clients := flag.Int("clients", 64, "concurrent closed-loop clients")
	ops := flag.Int("ops", 200, "transactions per client")
	keys := flag.Int("keys", 256, "keyspace size for the low/two mixes")
	mix := flag.String("mix", "low", "workload mix: low | high | two | single")
	pipeline := flag.Int("pipeline", 0, "transactions kept in flight per connection via REQ/RES pipelining (0 = one blocking round trip per transaction); with -interactive: concurrent sessions per connection")
	interactive := flag.Bool("interactive", false, "drive each transaction as an interactive TXN session (BEGIN, one round trip per op, COMMIT) instead of a one-shot UPD")
	think := flag.Duration("think", 0, "with -interactive: client think time before each operation of a session")
	runIDFlag := flag.Int64("run-id", 0, "key-namespace nonce (0 = derive from the clock); pin it to audit a run across a server restart")
	verifyOnly := flag.Bool("verify-only", false, "skip the load phase: only re-check conservation over -run-id's keyspace (the kill-and-restart self-check)")
	expectRecovered := flag.Bool("expect-recovered", false, "fail unless the server's STATS report recovered_index > 0 (assert the server restarted from a data directory)")
	ackedOut := flag.String("acked-out", "", "record each client's acknowledged-commit count to this file after the load phase (written even when the server died mid-run), for a later -verify-only -acked-in audit")
	ackedIn := flag.String("acked-in", "", "with -verify-only: audit the counter keys against the acked counts this file recorded — counters below the acked count are lost acked commits (fail); counters above it are commits whose ack the crash swallowed (tolerated)")
	traceSample := flag.Int("trace-sample", 0, "request a server-side lifecycle trace (trace=1) on every nth transaction and report per-stage p50/p99 offsets (0 = off)")
	benchOut := flag.String("bench-out", "", "write the run summary as JSON to this file (the BENCH_<n>.json artifact schema)")
	matrix := flag.String("matrix", "", "run a scenario-matrix preset (smoke | full) instead of a single load: boots one in-process server per cell (ignoring -addr), drives the grid, audits every cell, and emits one scc-scenario/v1 JSON artifact")
	matrixOut := flag.String("matrix-out", "", "with -matrix: write the scc-scenario/v1 artifact to this file instead of stdout")
	eventsMerge := flag.Bool("events-merge", false, "merge the flight-recorder dump files named as positional arguments (from <data-dir>/flight on primary and replicas) into one causal timeline on stdout, grouped by global commit epoch; no load is run")
	flag.Parse()

	if *eventsMerge {
		if err := mergeEvents(flag.Args()); err != nil {
			log.Fatalf("sccload: -events-merge: %v", err)
		}
		return
	}
	if *matrix != "" {
		if err := runMatrix(*matrix, *matrixOut); err != nil {
			log.Fatalf("sccload: matrix: %v", err)
		}
		return
	}

	pool := loadgen.NewPool(*addr)
	if pool.Len() == 0 {
		log.Fatal("sccload: -addr needs at least one address")
	}
	// A pinned -run-id makes the key namespace reproducible, so a later
	// -verify-only invocation can re-audit the same keys.
	runID := *runIDFlag
	if runID == 0 {
		runID = time.Now().UnixNano() % 1e9
	}
	// Conservation must be checked over the page span the mix actually
	// wrote (the high mix pins DBPages=16 regardless of -keys; the
	// single mix writes no value keys at all).
	pages := 0
	if *mix != "single" {
		pages = mixConfig(*mix, *keys, 0).DBPages
	}

	if *verifyOnly {
		if *runIDFlag == 0 {
			log.Fatal("sccload: -verify-only needs the -run-id of the run to audit")
		}
		if pages <= 0 && *keys > 0 {
			// -mix single writes no value keys: summing zero keys would
			// "pass" while auditing nothing. (-keys 0 stays allowed as
			// the documented connectivity probe.)
			log.Fatalf("sccload: -verify-only has nothing to audit for -mix %s (no value keys); rerun with the mix the load used", *mix)
		}
		if !verify(pool, runID, pages, *ackedIn) || (*expectRecovered && !checkRecovered(pool)) {
			os.Exit(1)
		}
		return
	}

	res, runErr := loadgen.Run(loadgen.Config{
		Pool:        pool,
		Clients:     *clients,
		Ops:         *ops,
		Pipeline:    *pipeline,
		Interactive: *interactive,
		Workload: func(seed int64) workload.Config {
			cfg := mixConfig(*mix, *keys, seed)
			if *think > 0 {
				cfg.Think = workload.ThinkTime{Kind: workload.ThinkFixed, Mean: think.Seconds()}
			}
			return cfg
		},
		Opts: func(t *model.Txn) client.TxOpts {
			return client.TxOpts{
				Value:    t.Class.Value,
				Deadline: time.Duration(t.RelDeadline() * float64(time.Second)),
				Gradient: t.PenaltyGradient(),
			}
		},
		Pages:      pages,
		Seed:       1,
		RunID:      runID,
		TraceEvery: *traceSample,
	})

	framing := "per-round-trip"
	if *pipeline > 0 {
		framing = fmt.Sprintf("pipelined(depth=%d)", *pipeline)
	}
	if *interactive {
		framing = fmt.Sprintf("interactive(think=%s, sessions=%d)", *think, max(1, *pipeline))
	}
	fmt.Printf("sccload: mix=%s clients=%d ops/client=%d wire=%s run-id=%d\n", *mix, *clients, *ops, framing, runID)
	printSummary(res, pool)

	// Record the acked counts before verifying: when a chaos harness
	// kills the server mid-run, this run's audit fails on the dead
	// connection, but the acked file must still reach the post-restart
	// -verify-only -acked-in audit.
	if *ackedOut != "" {
		if err := res.Acked.Save(*ackedOut); err != nil {
			log.Printf("sccload: -acked-out: %v", err)
		}
	}
	if runErr != nil {
		log.Printf("sccload: %v", runErr)
	}
	// The exact ledger form needs every ack accounted for: an errored
	// round trip or a failover retry may have committed unacknowledged.
	atLeast := res.Errors > 0 || res.Redirects > 0 || res.Reconnects > 0
	if runErr != nil || !audit(pool, runID, pages, &res.Acked, atLeast) {
		fmt.Println("  invariants FAIL")
		os.Exit(1)
	}
	fmt.Println("  invariants PASS (value conserved, no lost updates)")
	printServer(pool)
	if *benchOut != "" {
		if err := writeJSON(*benchOut, res); err != nil {
			log.Fatalf("sccload: -bench-out: %v", err)
		}
		fmt.Printf("  bench-out  %s\n", *benchOut)
	}
	if *expectRecovered && !checkRecovered(pool) {
		os.Exit(1)
	}
}

// printSummary prints the run's client-side account.
func printSummary(res *loadgen.Result, pool *loadgen.Pool) {
	fmt.Printf("  committed  %d (shed %d, errors %d) in %.2fs\n", res.Committed, res.Shed, res.Errors, res.ElapsedSec)
	fmt.Printf("  throughput %.0f txn/s\n", res.Throughput)
	if res.Committed > 0 {
		fmt.Printf("  latency    p50 %.2fms  p99 %.2fms  mean %.2fms\n", res.P50Ms, res.P99Ms, res.MeanMs)
	}
	fmt.Printf("  deadlines  missed %.1f%%  avg tardiness %.2fms\n", res.MissedPct, res.TardinessMs)
	fmt.Printf("  value      accrued %.1f%% of max (%.0f / %.0f)\n", res.ValuePct, res.ValueSum, res.MaxValue)
	if pool.Len() > 1 {
		fmt.Printf("  failover   redirects followed %d, reconnects %d (primary %s)\n",
			res.Redirects, res.Reconnects, pool.Primary())
	}
	if res.TraceSampled > 0 {
		fmt.Printf("  traces     sampled %d, carried %d; stage offsets from submit:\n",
			res.TraceSampled, res.TraceCarried)
		// Offsets are submit-relative, so ordering by median offset (ties
		// by name) lays the stages out in lifecycle order.
		names := make([]string, 0, len(res.Stages))
		for name := range res.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		sort.SliceStable(names, func(i, j int) bool { return res.Stages[names[i]].P50Ms < res.Stages[names[j]].P50Ms })
		for _, name := range names {
			st := res.Stages[name]
			fmt.Printf("    %-10s n=%-6d p50 %8.3fms  p99 %8.3fms\n", name, st.N, st.P50Ms, st.P99Ms)
		}
	}
}

// printServer prints the server-side counters the run moved.
func printServer(pool *loadgen.Pool) {
	st, err := pool.Stats()
	if err != nil {
		log.Printf("sccload: STATS: %v", err)
		return
	}
	fmt.Printf("  server     cross=%s cross_restarts=%s cross_shed=%s shed=%s commit_batches=%s commits=%s\n",
		st["cross"], st["cross_restarts"], st["cross_shed"], st["shed"], st["commit_batches"], st["commits"])
	if wa, ok := st["wal_appends"]; ok {
		fmt.Printf("  durability wal_appends=%s wal_fsyncs=%s ckpt_count=%s recovered_index=%s\n",
			wa, st["wal_fsyncs"], st["ckpt_count"], st["recovered_index"])
	}
}

// audit checks the two invariants against any live member: the run's
// page keys must sum to zero, and (acked nil skips it — the bare
// -verify-only shape, where no acks survived the restart) every client's
// counters must cover its acknowledged commits. It reports whether both
// held.
func audit(pool *loadgen.Pool, runID int64, pages int, acked *loadgen.Acked, atLeast bool) bool {
	c, err := pool.Dial()
	if err != nil {
		log.Printf("sccload: verify: %v", err)
		return false
	}
	defer c.Close()
	ok := true
	switch sum, err := loadgen.AuditConservation(c, runID, pages); {
	case err != nil:
		log.Printf("sccload: verify SUM: %v", err)
		ok = false
	case sum != 0:
		log.Printf("sccload: CONSERVATION VIOLATED: sum over %d keys = %d, want 0", pages, sum)
		ok = false
	}
	if acked != nil {
		violations, err := loadgen.AuditLedger(c, *acked, atLeast)
		if err != nil {
			log.Printf("sccload: verify %v", err)
			ok = false
		}
		for _, v := range violations {
			log.Printf("sccload: %s", v)
			ok = false
		}
	}
	return ok
}

// verify is the -verify-only audit of a finished run's keyspace. No
// per-client results survive a restart unless the load phase recorded
// them with -acked-out: the baseline audit is the conservation invariant
// (all-or-nothing recovery of cross-shard commits is exactly what keeps
// it true). With -acked-in the ledger audit runs too, in its atLeast
// form: the crash may have swallowed acks.
func verify(pool *loadgen.Pool, runID int64, pages int, ackedIn string) bool {
	var acked *loadgen.Acked
	if ackedIn != "" {
		a, err := loadgen.LoadAcked(ackedIn, runID)
		if err != nil {
			log.Fatalf("sccload: -acked-in: %v", err)
		}
		acked = &a
	}
	if !audit(pool, runID, pages, acked, true) {
		fmt.Println("  invariants FAIL")
		return false
	}
	fmt.Printf("sccload: verify-only run %d: conservation holds over %d keys\n", runID, pages)
	if acked != nil {
		fmt.Printf("sccload: acked-commit audit over %d clients: no acked commit lost\n", len(acked.Counts))
	}
	return true
}

// checkRecovered asserts the server reports a nonzero recovered_index —
// the kill-and-restart e2e's proof that the serving process actually
// rebuilt its state from the data directory.
func checkRecovered(pool *loadgen.Pool) bool {
	st, err := pool.Stats()
	n, _ := strconv.ParseInt(st["recovered_index"], 10, 64)
	if err != nil || n <= 0 {
		log.Printf("sccload: recovered_index=%q (STATS error: %v), want > 0 (durability off, or a cold start?)", st["recovered_index"], err)
		return false
	}
	fmt.Printf("sccload: server recovered_index=%d\n", n)
	return true
}

// writeJSON writes v, indented, to path ("" = stdout).
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// mergeEvents joins flight-recorder dump files into one causal timeline
// on stdout.
func mergeEvents(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("needs one or more dump files (usage: sccload -events-merge <dump.events>...)")
	}
	dumps := make([]flight.Dump, 0, len(paths))
	for _, path := range paths {
		d, err := flight.ParseDumpFile(path)
		if err != nil {
			return err
		}
		dumps = append(dumps, d)
	}
	return flight.MergeTimeline(dumps, os.Stdout)
}

// runMatrix drives a scenario-matrix preset: internal/scenario boots a
// fresh in-process server topology per cell, runs the cell's workload ×
// value-function point against it, audits conservation and the
// acked-commit ledger, and the merged scc-scenario/v1 artifact lands on
// stdout or -matrix-out. Cell progress goes to stderr so the artifact
// stream stays clean.
func runMatrix(preset, out string) error {
	art, err := scenario.RunGrid(preset, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if err != nil {
		return err
	}
	failed := 0
	for _, row := range art.Cells {
		ok := row.ConservationOK && row.LedgerOK && (row.OracleOK == nil || *row.OracleOK)
		if !ok {
			failed++
			fmt.Fprintf(os.Stderr, "sccload: matrix cell %s FAILED audits (conservation=%v ledger=%v)\n",
				row.Cell, row.ConservationOK, row.LedgerOK)
		}
	}
	if err := writeJSON(out, art); err != nil {
		return err
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "sccload: matrix artifact (%d cells) written to %s\n", len(art.Cells), out)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d cells failed audits", failed, len(art.Cells))
	}
	return nil
}
