package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wireUse is one entry of an exercised-by table. Either file and token
// name a non-test user that reaches the name (the file must still
// contain the token), or test names a test that asserts it (the test's
// file must contain token: the name or the Go handle it reads), or
// reason says which deployment setting keeps the name without either.
type wireUse struct {
	file, token string
	test        string
	reason      string
}

func user(file, token string) wireUse { return wireUse{file: file, token: token} }
func pin(test, token string) wireUse  { return wireUse{test: test, token: token} }
func kept(reason string) wireUse      { return wireUse{reason: reason} }

// wireSurface maps every name on the operator surface — wire verbs,
// option tokens, vf= families, sccserve and sccload flags, environment
// variables and HTTP paths — to what reaches it. TestWireSurface reads
// the names from their single sources, so a name nothing reaches fails
// the build until it is deleted or its user is named here, and an entry
// for a name that is gone fails until the entry goes too.
var wireSurface = map[string]wireUse{
	// Verbs: the case labels of dispatchVerb, follower.read and handleTXN.
	"verb PING":  user("bench/probe.go", "muxes[0].Ping()"),
	"verb GET":   user("bench/run.go", "e.muxes[0].Get(k)"),
	"verb ADD":   user("scripts/e2e_failover.sh", "ADD fencecheck 1"),
	"verb UPD":   user("internal/loadgen/loadgen.go", "s.loop(r.Pipeline, m.Batch)"),
	"verb SUM":   user("internal/loadgen/audit.go", "c.Sum(keys...)"),
	"verb STATS": user("internal/loadgen/pool.go", "c.Stats()"),
	"verb HEAD":  user("internal/repl/replica.go", `"HEAD\n"`),
	"verb TOPO":  user("internal/cluster/node.go", `"TOPO\n"`),
	"verb TXN":   user("internal/loadgen/loadgen.go", "m.Do(r.Opts"),
	"verb REQ":   user("internal/loadgen/loadgen.go", "client.DialMux(r.Pool.Primary())"),
	"verb REPL":  user("internal/repl/replica.go", `"REPL %d\n"`),
	"verb ACK":   user("internal/repl/replica.go", `"ACK %d\n"`),
	"verb SNAP":  user("internal/repl/replica.go", `"SNAP\n"`),

	"verb TXN BEGIN":  user("bench/driver.go", "m.Begin(client.TxOpts"),
	"verb TXN R":      user("internal/loadgen/loadgen.go", "t.Get(op.Key)"),
	"verb TXN W":      user("internal/loadgen/loadgen.go", "t.Add(op.Key, op.Delta)"),
	"verb TXN COMMIT": user("internal/loadgen/loadgen.go", "t.Commit()"),
	"verb TXN ABORT":  user("bench/driver.go", "tx.Abort()"),

	// Option tokens (opts.ParseToken) and vf= families (opts.ParseFamily).
	"token v=":     user("cmd/sccload/main.go", "Value:    t.Class.Value"),
	"token dl=":    user("cmd/sccload/main.go", "Deadline: time.Duration(t.RelDeadline()"),
	"token grad=":  user("cmd/sccload/main.go", "Gradient: t.PenaltyGradient()"),
	"token vf=":    user("internal/scenario/run.go", "Family: fam"),
	"token trace=": user("bench/driver.go", "Trace: phases[p].trace"),
	"vf linear":    user("internal/scenario/scenario.go", `families := []string{"linear"`),
	"vf cliff":     user("internal/scenario/scenario.go", `Family:      "cliff"`),
	"vf step":      user("internal/scenario/scenario.go", `"step:0.5"`),
	"vf renew":     user("internal/scenario/scenario.go", `"renew:4"`),

	// sccserve flags.
	"flag sccserve -addr":              user("scripts/e2e_recover.sh", `SERVE_FLAGS=(-addr "$ADDR"`),
	"flag sccserve -shards":            user("scripts/e2e_recover.sh", "-shards 8 -mode occ-bc"),
	"flag sccserve -mode":              user("scripts/e2e_recover.sh", "-mode occ-bc"),
	"flag sccserve -concurrency":       kept("deployment capacity: admission slots, sized to the host's cores"),
	"flag sccserve -queue":             kept("deployment capacity: admission queue bound, sized to the host's memory and the clients' patience"),
	"flag sccserve -replica-of":        user("scripts/e2e_chaos.sh", `-replica-of "$ADDR"`),
	"flag sccserve -data-dir":          user("scripts/e2e_recover.sh", `-data-dir "$DATA"`),
	"flag sccserve -fsync":             user("scripts/e2e_chaos.sh", "-fsync group -ckpt-every 256"),
	"flag sccserve -ckpt-every":        user("scripts/e2e_recover.sh", "-ckpt-every 512"),
	"flag sccserve -metrics-addr":      user("scripts/e2e_recover.sh", `-metrics-addr "127.0.0.1:$METRICS_PORT"`),
	"flag sccserve -log-level":         user("scripts/e2e_chaos.sh", "-log-level warn"),
	"flag sccserve -cluster-self":      user("scripts/e2e_failover.sh", `-cluster-self "$ADDR_B"`),
	"flag sccserve -cluster-peers":     user("scripts/e2e_failover.sh", `-cluster-peers "$ADDR_A"`),
	"flag sccserve -cluster-lease":     user("scripts/e2e_failover.sh", "-cluster-lease 250ms"),
	"flag sccserve -repl-sync":         user("scripts/e2e_failover.sh", "-repl-sync -repl-sync-timeout 2s"),
	"flag sccserve -repl-sync-timeout": user("scripts/e2e_failover.sh", "-repl-sync -repl-sync-timeout 2s"),

	// sccload flags.
	"flag sccload -addr":             user("scripts/e2e_failover.sh", `sccload" -addr "$ADDR_A,$ADDR_B"`),
	"flag sccload -clients":          user("scripts/e2e_recover.sh", "-clients 16 -ops 100 -mix low"),
	"flag sccload -ops":              user("scripts/e2e_recover.sh", "-clients 16 -ops 100 -mix low"),
	"flag sccload -mix":              user("scripts/e2e_interactive.sh", "-mix two"),
	"flag sccload -keys":             user("scripts/e2e_recover.sh", `-keys "$KEYS" -pipeline 8`),
	"flag sccload -pipeline":         user("scripts/e2e_recover.sh", `-pipeline 8 -run-id "$RUN_ID"`),
	"flag sccload -interactive":      user("scripts/e2e_interactive.sh", "-interactive -think 1ms"),
	"flag sccload -think":            user("scripts/e2e_interactive.sh", "-interactive -think 1ms"),
	"flag sccload -run-id":           user("scripts/e2e_recover.sh", `-verify-only -run-id "$RUN_ID"`),
	"flag sccload -verify-only":      user("scripts/e2e_recover.sh", `-verify-only -run-id "$RUN_ID"`),
	"flag sccload -expect-recovered": user("scripts/e2e_recover.sh", "-expect-recovered"),
	"flag sccload -acked-out":        user("scripts/e2e_chaos.sh", `-acked-out "$SCRATCH/acked.kill"`),
	"flag sccload -acked-in":         user("scripts/e2e_chaos.sh", `-acked-in "$SCRATCH/acked.kill"`),
	"flag sccload -trace-sample":     user("scripts/bench_sweep.sh", "-trace-sample 20"),
	"flag sccload -bench-out":        user("scripts/bench_sweep.sh", `-bench-out "$file"`),
	"flag sccload -matrix":           user("Makefile", "-matrix full"),
	"flag sccload -matrix-out":       user("Makefile", "-matrix-out $(SCENARIO_OUT)"),
	"flag sccload -events-merge":     user("scripts/e2e_chaos.sh", `sccload" -events-merge`),

	// Environment variables and HTTP paths.
	"env SCC_FAULT_FSYNC_ERR_AFTER": user("scripts/e2e_chaos.sh", "SCC_FAULT_FSYNC_ERR_AFTER=200"),
	"env SCC_FAULT_APPLY_DELAY_MS":  user("scripts/e2e_chaos.sh", "SCC_FAULT_APPLY_DELAY_MS=2"),
	"env SCCBENCH_COMMIT":           user("bench/run.sh", "export SCCBENCH_COMMIT"),
	"http /metrics":                 user("scripts/e2e_recover.sh", "http_get /metrics"),
	"http /debug/events":            user("scripts/e2e_recover.sh", "http_get /debug/events"),
}

// telemetrySurface maps every name on the telemetry surface — STATS
// keys, metric families and flight event names — to what reads it: a
// binary, script or benchmark file outside the code that binds the
// name, or a test that asserts it. A deployment reason keeps only the
// failure signals in failureSignals. TestTelemetrySurface reads the
// names from their single sources, so a number nothing reads fails the
// build until it goes, and a number read on one surface has no home on
// the other.
var telemetrySurface = map[string]wireUse{
	// STATS keys: statRows in internal/server/metrics.go.
	"stats shards":             user("internal/repl/replica.go", `strings.CutPrefix(f, "shards=")`),
	"stats req_inline":         pin("TestStatsCountInlineAndFlushes", `st["req_inline"]`),
	"stats wire_responses":     pin("TestStatsCountInlineAndFlushes", `st["wire_responses"]`),
	"stats wire_flushes":       pin("TestStatsCountInlineAndFlushes", `st["wire_flushes"]`),
	"stats commits":            user("cmd/sccload/main.go", `st["commits"]`),
	"stats fast":               pin("TestE2EConservation", "st.FastPath"),
	"stats cross":              user("cmd/sccload/main.go", `st["cross"]`),
	"stats cross_restarts":     user("cmd/sccload/main.go", `st["cross_restarts"]`),
	"stats cross_shed":         user("cmd/sccload/main.go", `st["cross_shed"]`),
	"stats aborts":             pin("TestTxnSpeculationAcrossRoundTrips", "st.Engine.Aborts"),
	"stats restarts":           pin("TestConflictRules", "st.Restarts"),
	"stats forks":              pin("TestTxnSpeculationAcrossRoundTrips", "st.Engine.Forks"),
	"stats promotions":         pin("TestTxnSpeculationAcrossRoundTrips", "st.Engine.Promotions"),
	"stats deferrals":          pin("TestStatsCountsADeferral", `statsOf(srv)["deferrals"]`),
	"stats commit_batches":     user("cmd/sccload/main.go", `st["commit_batches"]`),
	"stats shed":               user("cmd/sccload/main.go", `st["shed"]`),
	"stats txn_active":         pin("TestTxnReap", "txn_active=0"),
	"stats txn_reaped":         pin("TestTxnReap", "txn_reaped=1"),
	"stats repl_subs":          pin("TestReplicationConverges", `pst["repl_subs"]`),
	"stats log_trimmed":        pin("TestCheckpointAndRecovery", "log_trimmed=0"),
	"stats repl_sync_degraded": pin("TestSyncAcksDegradesWithoutSubscriber", `statsOf(srv)["repl_sync_degraded"]`),
	"stats repl_applied":       pin("TestReplicationConverges", `st["repl_applied"]`),
	"stats repl_lag":           pin("TestReplicaLagAccounting", "repl_lag=10000"),
	"stats repl_shed":          pin("TestReplicaLagAccounting", "repl_shed=1"),
	"stats cluster_epoch":      kept("deployment: the fencing epoch a cluster member holds, the failure signal of a failover"),
	"stats cluster_role":       user("internal/scenario/failover.go", `st["cluster_role"] == "primary"`),
	"stats wal_appends":        user("cmd/sccload/main.go", `st["wal_appends"]`),
	"stats wal_fsyncs":         user("cmd/sccload/main.go", `st["wal_fsyncs"]`),
	"stats ckpt_count":         user("cmd/sccload/main.go", `st["ckpt_count"]`),
	"stats recovered_index":    user("cmd/sccload/main.go", `st["recovered_index"]`),
	"stats dur_errors":         kept("deployment: WAL and checkpoint failures, the failure signal before a fail-stop"),

	// Metric families: statRows' family fields and the families
	// internal/server registers natively.
	"family scc_commits_total":            user("scripts/e2e_recover.sh", `$1 == "scc_commits_total"`),
	"family scc_requests_total":           pin("TestMetricsExposition", `samples["scc_requests_total"]`),
	"family scc_request_seconds":          user("bench/metrics.go", `scc_request_seconds_bucket{verb="`),
	"family scc_stage_seconds":            pin("TestMetricsExposition", "scc_stage_seconds"),
	"family scc_txn_session_ops":          pin("TestSessionOpsCountsEveryExit", "scc_txn_session_ops_count"),
	"family scc_conflict_key_scans_total": user("bench/metrics.go", `series["scc_conflict_key_scans_total"]`),
	"family scc_value_submitted_total":    pin("TestMetricsExposition", `samples["scc_value_submitted_total"]`),
	"family scc_value_realized_total":     pin("TestMetricsExposition", `samples["scc_value_realized_total"]`),
	"family scc_value_lost_total":         pin("TestMetricsExposition", "scc_value_lost_total{"),
	"family scc_traces_total":             pin("TestMetricsExposition", `samples["scc_traces_total"]`),
	"family scc_repl_resumes_total":       pin("TestDurableReplicaResumesWithoutReSnap", "Resumes.Value()"),
	"family scc_repl_snapshots_total":     pin("TestDurableReplicaResumesWithoutReSnap", "Snapshots.Value()"),

	// Flight event names: the flight.Ev* constants and the obs.Stage*
	// lifecycle names the server ring records.
	"event enqueue":         pin("TestTraceLifecyclePromotion", "obspkg.StageEnqueue"),
	"event admit":           user("bench/trace.go", "case obs.StageAdmit:"),
	"event fork":            user("bench/trace.go", "obs.StageFork"),
	"event park":            user("bench/trace.go", "case obs.StagePark:"),
	"event resume":          user("bench/trace.go", "case obs.StageResume:"),
	"event promotion":       user("bench/trace.go", "obs.StagePromotion"),
	"event restart":         user("bench/trace.go", "obs.StageRestart"),
	"event defer":           user("bench/trace.go", "obs.StageDefer"),
	"event install":         user("bench/trace.go", "case obs.StageInstall:"),
	"event commit":          user("bench/trace.go", "case obs.StageCommit:"),
	"event wal_fsync":       pin("TestFsyncEventOnlyWhenFsyncRan", "flight.EvFsync"),
	"event wal_fsync_error": pin("TestFlightDumpsAndMergedTimeline", "flight.EvFsyncError"),
	"event wal_error":       pin("TestFlightDumpsAndMergedTimeline", "flight.EvWalError"),
	"event repl_apply":      pin("TestReplicationConverges", "flight.EvReplApply"),
	"event repl_shed":       kept("deployment: a replica read shed for lag, the failure signal of a lagging replica"),
	"event promote":         pin("TestFailoverFollowsNewPrimary", "flight.EvPromote"),
	"event demote":          pin("TestDeposedPrimaryFencesAndDumps", "flight.EvDemote"),
	"event fence_reject":    pin("TestSessionWriteFenceRecordsReject", "flight.EvFenceReject"),
}

// failureSignals are the telemetry names a deployment reason may keep:
// the signals an operator alerts on, which a healthy run never moves.
var failureSignals = map[string]bool{
	"stats dur_errors": true, "stats repl_sync_degraded": true, "stats cluster_epoch": true,
	"event wal_error": true, "event wal_fsync_error": true, "event demote": true,
	"event fence_reject": true, "event promote": true, "event repl_shed": true,
}

// wireName is one name on the operator surface as its source defines
// it. owner is the path prefix of the code that defines or binds the
// name; a user there does not count, because it would name itself.
type wireName struct {
	key, src, owner string
}

// TestWireSurface is the exercised-by ratchet for the wire and the
// command lines: every verb, option token, vf= family, flag,
// environment variable and HTTP path must have an entry in wireSurface,
// and every entry must still hold. The planted cases check that the
// ratchet catches what it exists to catch, each with a message that
// names the fix.
func TestWireSurface(t *testing.T) {
	names := wireNames(t)
	r := ratchet{table: "wireSurface", entries: wireSurface, tests: testFiles(t),
		unread: "nothing on the operator surface is known to reach it; delete it, or name its user in wireSurface"}
	for _, e := range r.errors(names) {
		t.Error(e)
	}

	r.entries = maps.Clone(wireSurface)
	// A user that binds its own name, and a user that lost its token.
	r.entries["verb PING"] = user("internal/server/client/client.go", `m.do("PING")`)
	r.entries["flag sccload -mix"] = user("scripts/e2e_interactive.sh", "-mix nonesuch")
	planted := append(slices.Clip(names),
		wireName{key: "verb FROB", src: "internal/server/server.go", owner: "internal/server/"},
		wireName{key: "flag sccserve -frob", src: "cmd/sccserve/main.go", owner: "cmd/sccserve/"})
	checkPlanted(t, r.errors(planted), map[string]string{
		"verb FROB":           "verb FROB (internal/server/server.go): nothing on the operator surface is known to reach it; delete it, or name its user in wireSurface",
		"flag sccserve -frob": "flag sccserve -frob (cmd/sccserve/main.go): nothing on the operator surface is known to reach it; delete it, or name its user in wireSurface",
		"verb PING":           "verb PING: internal/server/client/client.go binds it, so it is not a user; name a driver outside internal/server/",
		"flag sccload -mix":   `flag sccload -mix: scripts/e2e_interactive.sh no longer contains "-mix nonesuch"; delete the name, or name its current user in wireSurface`,
	})
}

// TestTelemetrySurface is the exercised-by ratchet for the telemetry
// surface: every STATS key, metric family and flight event name must
// have an entry in telemetrySurface naming what reads it, and every
// entry must still hold. The planted cases check each way an entry can
// fail, each with a message that names the fix.
func TestTelemetrySurface(t *testing.T) {
	names := telemetryNames(t)
	r := ratchet{table: "telemetrySurface", entries: telemetrySurface, tests: testFiles(t), deployOnly: failureSignals,
		unread: "nothing is known to read it; delete it, or name its reader in telemetrySurface"}
	for _, e := range r.errors(names) {
		t.Error(e)
	}

	r.entries = maps.Clone(telemetrySurface)
	r.entries["family scc_commits_total"] = pin("TestStatsTableOneSource", "statRows")
	r.entries["stats forks"] = kept("deployment: an operator watches it")
	r.entries["event checkpoint"] = pin("TestCheckpointAndRecovery", "ckpt_count")
	planted := append(slices.Clip(names),
		wireName{key: "stats frob", src: "internal/server/metrics.go", owner: "internal/server/"},
		wireName{key: "event frob", src: "internal/obs/flight/flight.go", owner: "internal/"})
	checkPlanted(t, r.errors(planted), map[string]string{
		"stats frob":               "stats frob (internal/server/metrics.go): nothing is known to read it; delete it, or name its reader in telemetrySurface",
		"event frob":               "event frob (internal/obs/flight/flight.go): nothing is known to read it; delete it, or name its reader in telemetrySurface",
		"family scc_commits_total": "family scc_commits_total: TestStatsTableOneSource is a table test, not a pin; name a test that asserts the number, or delete the name",
		"stats forks":              "stats forks: a deployment reason keeps only a failure signal; name its reader, or a test that asserts it",
		"telemetrySurface lists event checkpoint": "telemetrySurface lists event checkpoint, which no source defines any more; drop the entry",
	})
}

// checkPlanted asserts that errs holds exactly want's message for each
// planted key.
func checkPlanted(t *testing.T, errs []string, want map[string]string) {
	t.Helper()
	for key, msg := range want {
		var got []string
		for _, e := range errs {
			if strings.HasPrefix(e, key+" ") || strings.HasPrefix(e, key+":") || strings.HasPrefix(e, key+",") {
				got = append(got, e)
			}
		}
		if len(got) != 1 || got[0] != msg {
			t.Errorf("planted %s: errors %q, want [%q]", key, got, msg)
		}
	}
}

// ratchet is one exercised-by table and the rules its entries answer to.
type ratchet struct {
	table      string // the table's name, for messages
	entries    map[string]wireUse
	unread     string              // the message for a name with no entry
	deployOnly map[string]bool     // if set, the only names a deployment reason may keep
	tests      map[string][]string // test name -> the files that define it
}

// tableTests walk a whole vocabulary, so a name they mention is not
// thereby asserted: they are not pins.
var tableTests = map[string]bool{
	"TestStatsTableOneSource": true, "TestMetricsConformance": true, "TestMetricsConcurrentStress": true,
	"TestEventNameConformance": true, "TestWireSurface": true, "TestTelemetrySurface": true,
}

// errors checks names against the table and returns one message per
// violation, sorted.
func (r ratchet) errors(names []wireName) []string {
	var errs []string
	defined := map[string]bool{}
	for _, n := range names {
		defined[n.key] = true
		use, ok := r.entries[n.key]
		switch {
		case !ok:
			errs = append(errs, n.key+" ("+n.src+"): "+r.unread)
		case use.reason != "":
			if !strings.Contains(use.reason, "deployment") {
				errs = append(errs, n.key+": kept for "+strconv.Quote(use.reason)+", which names no deployment setting")
			} else if r.deployOnly != nil && !r.deployOnly[n.key] {
				errs = append(errs, n.key+": a deployment reason keeps only a failure signal; name its reader, or a test that asserts it")
			}
		case use.test != "":
			if e := r.pinError(use); e != "" {
				errs = append(errs, n.key+": "+e)
			}
		case strings.HasPrefix(use.file, n.owner):
			errs = append(errs, n.key+": "+use.file+" binds it, so it is not a user; name a driver outside "+n.owner)
		case strings.HasSuffix(use.file, "_test.go"):
			errs = append(errs, n.key+": "+use.file+" is test code; a test that asserts the name is a pin, not a user")
		default:
			body, err := readFile(use.file)
			if err != nil {
				errs = append(errs, n.key+": user "+use.file+": "+err.Error())
			} else if !strings.Contains(body, use.token) {
				errs = append(errs, n.key+": "+use.file+" no longer contains "+strconv.Quote(use.token)+
					"; delete the name, or name its current user in "+r.table)
			}
		}
	}
	for key := range r.entries {
		if !defined[key] {
			errs = append(errs, r.table+" lists "+key+", which no source defines any more; drop the entry")
		}
	}
	sort.Strings(errs)
	return errs
}

// pinError says what is wrong with a pin, or returns "".
func (r ratchet) pinError(use wireUse) string {
	files := r.tests[use.test]
	switch {
	case tableTests[use.test]:
		return use.test + " is a table test, not a pin; name a test that asserts the number, or delete the name"
	case len(files) == 0:
		return "no test file defines " + use.test
	}
	for _, f := range files {
		if body, err := readFile(f); err == nil && strings.Contains(body, use.token) {
			return ""
		}
	}
	return strings.Join(files, ", ") + " no longer contains " + strconv.Quote(use.token) +
		"; delete the name, or name the test that asserts it in " + r.table
}

var testFunc = regexp.MustCompile(`(?m)^func (Test\w+)\(`)

// testFiles maps every test function in the repository to the files
// that define it.
func testFiles(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	err := walkRepo(func(path string, body []byte) {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllSubmatch(body, -1) {
				out[string(m[1])] = append(out[string(m[1])], path)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// walkRepo calls fn with the slash path and contents of every .go file
// outside dot directories.
func walkRepo(fn func(path string, body []byte)) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(path), body)
		return nil
	})
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

// wireNames reads every name on the operator surface from its single
// source, parsing (not building) the files that define them.
func wireNames(t *testing.T) []wireName {
	t.Helper()
	var names []wireName
	add := func(key, src, owner string) { names = append(names, wireName{key, src, owner}) }

	const server = "internal/server/server.go"
	sf := parseGo(t, server)
	for fn, prefix := range map[string]string{"dispatchVerb": "", "read": "", "handleTXN": "TXN "} {
		for _, v := range stringLabels(funcDecl(t, sf, fn)) {
			add("verb "+prefix+v, server, "internal/server/")
		}
	}

	const opts = "internal/server/opts/opts.go"
	of := parseGo(t, opts)
	ast.Inspect(funcDecl(t, of, "ParseToken"), func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isCall(call, "strings", "HasPrefix") && len(call.Args) == 2 {
			if s, ok := stringLit(call.Args[1]); ok {
				add("token "+s, opts, "internal/server/")
			}
		}
		return true
	})
	consts := stringConsts(of)
	ast.Inspect(funcDecl(t, of, "ParseFamily"), func(n ast.Node) bool {
		if cc, ok := n.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				if id, ok := e.(*ast.Ident); ok && consts[id.Name] != "" {
					add("vf "+consts[id.Name], opts, "internal/server/")
				}
			}
		}
		return true
	})

	for _, cmd := range []string{"sccserve", "sccload"} {
		src := "cmd/" + cmd + "/main.go"
		ast.Inspect(parseGo(t, src), func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 3 && isCall(call, "flag", "") {
				if s, ok := stringLit(call.Args[0]); ok {
					add("flag "+cmd+" -"+s, src, "cmd/"+cmd+"/")
				}
			}
			return true
		})
	}

	err := walkRepo(func(path string, body []byte) {
		cmdFile := strings.HasPrefix(path, "cmd/")
		if strings.HasSuffix(path, "_test.go") ||
			!strings.Contains(string(body), "os.Getenv(") && !(cmdFile && strings.Contains(string(body), "http.Handle")) {
			return
		}
		ast.Inspect(parseGo(t, path), func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			s, ok := stringLit(call.Args[0])
			switch {
			case !ok:
			case isCall(call, "os", "Getenv"):
				add("env "+s, path, path)
			case cmdFile && (isCall(call, "http", "HandleFunc") || isCall(call, "http", "Handle")):
				add("http "+s, path, filepath.ToSlash(filepath.Dir(path))+"/")
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	// A name bound in two places (REPL in follower.read and in dispatchVerb's
	// REQ-framing refusal) is one name.
	sort.Slice(names, func(i, j int) bool { return names[i].key < names[j].key })
	return slices.CompactFunc(names, func(a, b wireName) bool { return a.key == b.key })
}

// telemetryNames reads every name on the telemetry surface from its
// single source: statRows' keys and families, the scc_* families
// internal/server registers natively, and the flight event names.
func telemetryNames(t *testing.T) []wireName {
	t.Helper()
	var names []wireName
	const metrics, server = "internal/server/metrics.go", "internal/server/"
	for _, d := range parseGo(t, metrics).Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR || gd.Specs[0].(*ast.ValueSpec).Names[0].Name != "statRows" {
			continue
		}
		for _, row := range gd.Specs[0].(*ast.ValueSpec).Values[0].(*ast.CompositeLit).Elts {
			for _, f := range row.(*ast.CompositeLit).Elts {
				kv := f.(*ast.KeyValueExpr)
				field := kv.Key.(*ast.Ident).Name
				if s, ok := stringLit(kv.Value); ok && (field == "key" || field == "family") {
					kind := map[string]string{"key": "stats ", "family": "family "}[field]
					names = append(names, wireName{kind + s, metrics, server})
				}
			}
		}
	}
	files, err := filepath.Glob(server + "*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		ast.Inspect(parseGo(t, path), func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) > 0 {
				if _, sel := call.Fun.(*ast.SelectorExpr); sel {
					if s, ok := stringLit(call.Args[0]); ok && strings.HasPrefix(s, "scc_") {
						names = append(names, wireName{"family " + s, path, server})
					}
				}
			}
			return true
		})
	}
	// Every recorder of an event lives under internal/, so a reader is
	// outside it.
	for src, prefix := range map[string]string{"internal/obs/flight/flight.go": "Ev", "internal/obs/trace.go": "Stage"} {
		for name, v := range stringConsts(parseGo(t, src)) {
			if strings.HasPrefix(name, prefix) {
				names = append(names, wireName{"event " + v, src, "internal/"})
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("no telemetry names found: the sources moved, so move telemetryNames with them")
	}
	return names
}

func parseGo(t *testing.T, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func funcDecl(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no func %s in %s: the wire surface moved, so move wireNames with it", name, f.Name.Name)
	return nil
}

// stringLabels returns the string literals fn's switch statements
// branch on — case labels, and the operand of a `== "..."` test.
func stringLabels(fn *ast.FuncDecl) []string {
	var out []string
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CaseClause:
			for _, e := range n.List {
				if s, ok := stringLit(e); ok {
					out = append(out, s)
				}
			}
		case *ast.BinaryExpr:
			if s, ok := stringLit(n.Y); ok && n.Op == token.EQL {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// stringConsts maps f's string constants to their values.
func stringConsts(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					if s, ok := stringLit(vs.Values[i]); ok {
						out[name.Name] = s
					}
				}
			}
		}
	}
	return out
}

// isCall reports whether call is pkg.fn(...); fn "" matches any name.
func isCall(call *ast.CallExpr, pkg, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg && (fn == "" || sel.Sel.Name == fn)
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
