// Telemetry tests: exposition format, the value-conservation ledger,
// lifecycle traces, doc conformance, and a concurrency stress run for
// the registry (raced by `make e2e`).
package server

import (
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	obspkg "repro/internal/obs"
	"repro/internal/server/client"
)

// parseExposition maps every sample line of a Prometheus text exposition
// to its value, keyed by the full series name including labels.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed exposition value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsExposition drives real traffic and checks the exposition's
// shape plus the value-conservation invariant: submitted value equals
// realized value plus the sum of every lost row.
func TestMetricsExposition(t *testing.T) {
	srv, addr := startServer(t, Config{
		Shards:      4,
		Mode:        engine.SCC2S,
		GroupCommit: engine.GroupCommit{MaxBatch: 16},
	})
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Committed one-shots, one of them traced.
	for i := 0; i < 20; i++ {
		ops := []client.Op{
			{Key: fmt.Sprintf("m%d", i%5), Delta: 1, Write: true},
			{Key: fmt.Sprintf("m%d", (i+1)%5), Delta: -1, Write: true},
		}
		opts := client.TxOpts{Value: 2, Deadline: time.Minute, Trace: i == 0}
		if i == 0 {
			if r := c.Batch([]client.UpdateReq{{Ops: ops, Opts: opts}})[0]; r.Err != nil || r.Trace == "" {
				t.Fatalf("traced update = trace %q, %v", r.Trace, r.Err)
			}
		} else if _, err := c.Update(ops, opts); err != nil {
			t.Fatal(err)
		}
	}
	// A client abort books its session value as client_abort loss.
	tx, err := c.Begin(client.TxOpts{Value: 3, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Add("m0", 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	c.Close() // checkStatsTable samples once no connection is open

	var b strings.Builder
	srv.Metrics().Expose(&b)
	text := b.String()
	if !strings.HasPrefix(text, "# HELP ") {
		t.Fatalf("exposition does not open with # HELP: %q", text[:min(len(text), 80)])
	}
	samples := parseExposition(t, text)

	// Histograms end at +Inf and carry _sum/_count.
	for _, h := range []string{"scc_request_seconds", "scc_txn_session_ops"} {
		if !strings.Contains(text, h+`_bucket{`) {
			t.Errorf("%s has no bucket series", h)
		}
		if !strings.Contains(text, `le="+Inf"`) {
			t.Errorf("exposition has no +Inf bucket")
		}
	}
	infRe := regexp.MustCompile(`scc_request_seconds_bucket\{verb="upd",le="\+Inf"\} (\d+)`)
	cntRe := regexp.MustCompile(`scc_request_seconds_count\{verb="upd"\} (\d+)`)
	im, cm := infRe.FindStringSubmatch(text), cntRe.FindStringSubmatch(text)
	if im == nil || cm == nil || im[1] != cm[1] {
		t.Errorf("upd +Inf bucket and _count disagree: %v vs %v", im, cm)
	}

	if samples["scc_requests_total"] == 0 || samples["scc_commits_total"] == 0 {
		t.Errorf("derived counters flat: reqs=%v commits=%v",
			samples["scc_requests_total"], samples["scc_commits_total"])
	}
	if samples["scc_traces_total"] != 1 {
		t.Errorf("scc_traces_total = %v, want 1", samples["scc_traces_total"])
	}
	if n := samples[`scc_value_lost_total{reason="client_abort"}`]; n != 3 {
		t.Errorf("client_abort loss = %v, want the aborted session's value 3", n)
	}

	// Conservation: submitted == realized + sum(lost) on a quiescent server.
	var lost float64
	for series, v := range samples {
		if strings.HasPrefix(series, "scc_value_lost_total{") {
			lost += v
		}
	}
	sub, real := samples["scc_value_submitted_total"], samples["scc_value_realized_total"]
	if sub == 0 {
		t.Fatal("no value submitted")
	}
	if diff := math.Abs(sub - (real + lost)); diff > 1e-6*sub {
		t.Errorf("value leak: submitted %v != realized %v + lost %v (diff %v)", sub, real, lost, diff)
	}

	// STATS and the exposition sample the same counters, row by row.
	checkStatsTable(t, "traffic", srv, "")
}

// TestConflictScansExposed: scc_conflict_key_scans_total samples the
// engine's own count. An UPD of two keys beside an open session scans
// the session's transaction at each of its two reads and two writes.
func TestConflictScansExposed(t *testing.T) {
	srv, _ := startServer(t, Config{Shards: 1, Mode: engine.SCC2S})
	id := strings.TrimPrefix(srv.dispatchLine("TXN BEGIN"), "OK ")
	if got := srv.dispatchLine("TXN R " + id + " a"); got != "OK 0" {
		t.Fatalf("TXN R = %q", got)
	}
	if got := srv.dispatchLine("UPD w:b:1 w:c:1"); got != "OK 1 1" {
		t.Fatalf("UPD = %q", got)
	}
	if got := srv.dispatchLine("TXN COMMIT " + id); got != "OK" {
		t.Fatalf("TXN COMMIT = %q", got)
	}
	var b strings.Builder
	srv.Metrics().Expose(&b)
	got := parseExposition(t, b.String())["scc_conflict_key_scans_total"]
	if want := srv.Store().Stats().Engine.ConflictScans; got != float64(want) || want != 4 {
		t.Errorf("scc_conflict_key_scans_total = %v, engine ConflictScans = %d; want both 4", got, want)
	}
}

// statsOf parses srv's STATS reply into its key=value pairs.
func statsOf(srv *Server) map[string]string {
	st := make(map[string]string)
	for _, kv := range strings.Fields(strings.TrimPrefix(srv.dispatchLine("STATS"), "OK ")) {
		k, v, _ := strings.Cut(kv, "=")
		st[k] = v
	}
	return st
}

// TestStatsCountsADeferral: a lower-value UPD that conflicts with a live
// higher-value session yields to it under the value-cognizant Commit
// Rule, commits once the session has, and moves STATS deferrals by one.
func TestStatsCountsADeferral(t *testing.T) {
	srv, _ := startServer(t, Config{Shards: 1})
	id := strings.TrimPrefix(srv.dispatchLine("TXN BEGIN v=100"), "OK ")
	if got := srv.dispatchLine("TXN W " + id + " k =5"); got != "OK 5" {
		t.Fatalf("TXN W = %q, want OK 5", got)
	}
	if got := statsOf(srv)["deferrals"]; got != "0" {
		t.Fatalf("deferrals = %q before any conflict, want 0", got)
	}
	upd := make(chan string, 1)
	go func() { upd <- srv.dispatchLine("UPD v=10 w:k:+1") }()
	for deadline := time.Now().Add(2 * time.Second); statsOf(srv)["deferrals"] == "0"; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("STATS deferrals never moved while the UPD conflicted with the session")
		}
	}
	if got := srv.dispatchLine("TXN COMMIT " + id); got != "OK 5" {
		t.Fatalf("TXN COMMIT = %q, want OK 5", got)
	}
	if got := <-upd; got != "OK 6" {
		t.Fatalf("deferred UPD = %q, want OK 6 (after the session's write)", got)
	}
	if got := statsOf(srv)["deferrals"]; got != "1" {
		t.Errorf("deferrals = %q after one yield, want 1", got)
	}
}

// checkStatsTable walks statRows on a quiescent server: every row with
// both a STATS key and a metric family reports the same number on both
// surfaces, and the role-conditional keys emitted are exactly roleKeys —
// what docs/PROTOCOL.md "STATS keys" promises for the roles the caller
// configured. The caller closes its connections first; the walk waits
// until the server has none open, because a connection's writer counts a
// flush after it returns — the client may hold its reply by then.
func checkStatsTable(t *testing.T, name string, srv *Server, roleKeys string) {
	t.Helper()
	open := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}
	for deadline := time.Now().Add(10 * time.Second); open() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d connections still open; the server never went quiescent", name, open())
		}
	}
	roleKey := make(map[string]bool)
	for _, row := range statRows {
		roleKey[row.key] = row.when != nil
	}
	stats := make(map[string]string)
	var emittedRoleKeys []string
	for _, kv := range strings.Fields(strings.TrimPrefix(srv.statsLine(), "OK ")) {
		k, v, _ := strings.Cut(kv, "=")
		if _, dup := stats[k]; dup {
			t.Errorf("%s: STATS emits %s twice", name, k)
		}
		stats[k] = v
		if roleKey[k] {
			emittedRoleKeys = append(emittedRoleKeys, k)
		}
	}
	if got := strings.Join(emittedRoleKeys, " "); got != roleKeys {
		t.Errorf("%s: role-conditional STATS keys = %q, want %q", name, got, roleKeys)
	}
	var b strings.Builder
	srv.Metrics().Expose(&b)
	samples := parseExposition(t, b.String())
	sn := srv.snap()
	for _, row := range statRows {
		got, emitted := stats[row.key]
		if !emitted || row.family == "" || row.when != nil && !row.when(sn) {
			continue
		}
		sample, ok := samples[row.family]
		if !ok {
			t.Errorf("%s: STATS emits %s but the exposition has no %s", name, row.key, row.family)
		} else if want := strconv.FormatInt(int64(sample), 10); got != want {
			t.Errorf("%s: STATS %s=%s disagrees with %s=%s", name, row.key, got, row.family, want)
		}
	}
}

// TestStatsTableOneSource holds STATS and METRICS to one source on each
// server role, after traffic that moves the role's own counters.
func TestStatsTableOneSource(t *testing.T) {
	_, priAddr := startServer(t, Config{Shards: 2, Repl: ReplOptions{Primary: true}})
	const primaryKeys = "repl_subs log_trimmed"
	for _, c := range []struct {
		name     string
		cfg      Config
		roleKeys string
	}{
		{"plain", Config{Shards: 2}, ""},
		{"primary", Config{Shards: 2, Repl: ReplOptions{Primary: true}}, primaryKeys},
		{"durable", Config{Shards: 2, Durable: durable.Options{Dir: t.TempDir()}},
			"wal_appends wal_fsyncs ckpt_count recovered_index dur_errors"},
		{"replica", Config{Shards: 2, ReplicaOf: priAddr},
			"repl_applied repl_lag repl_shed"},
		{"clustered", Config{Shards: 2, Repl: ReplOptions{Primary: true, SyncAcks: true, SyncTimeout: time.Millisecond}, Cluster: ClusterConfig{Self: "127.0.0.1:0"}},
			primaryKeys + " repl_sync_degraded cluster_epoch cluster_role"},
	} {
		srv, err := Open(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		if c.name == "clustered" {
			// A silent subscriber: commits wait out the semi-sync
			// timeout, so repl_sync_degraded moves too.
			sub := srv.Feed().Subscribe()
			t.Cleanup(sub.Close)
		}
		for _, line := range []string{
			"ADD a 1", "UPD v=1 dl=60000 w:a:1 w:b:2 r:c", "SUM a b", "UPD v=1 dl=0.000001 grad=1e9 w:a:1",
		} {
			srv.dispatchLine(line)
		}
		for _, verdict := range []string{"ABORT", "COMMIT"} {
			id := strings.TrimPrefix(srv.dispatchLine("TXN BEGIN v=1"), "OK ")
			srv.dispatchLine("TXN R " + id + " a")
			srv.dispatchLine("TXN " + verdict + " " + id)
		}
		if d := srv.Durable(); d != nil {
			if _, err := d.CheckpointAll(); err != nil {
				t.Fatal(err)
			}
		}
		checkStatsTable(t, c.name, srv, c.roleKeys)
	}
}

// TestTraceLifecyclePromotion is the acceptance test for session
// tracing: the TestTxnSpeculationAcrossRoundTrips scenario run with
// trace=1 must return a timeline whose park precedes its promotion —
// the Blocking Rule visible from the client.
func TestTraceLifecyclePromotion(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1, Mode: engine.SCC2S})
	a, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	tx, err := a.Begin(client.TxOpts{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("x"); err != nil {
		t.Fatal(err)
	}
	// B's conflicting commit forks a speculative shadow for A and parks
	// it at A's read (Write Rule + Blocking Rule).
	if _, err := b.Update([]client.Op{{Key: "x", Delta: 5, Write: true}}, client.TxOpts{}); err != nil {
		t.Fatal(err)
	}
	if n, err := tx.Add("x", 1); err != nil || n != 6 {
		t.Fatalf("Add(x,1) = %d, %v", n, err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	events := obspkg.ParseTrace(tx.Trace())
	if events == nil {
		t.Fatalf("commit reply carried no parsable trace (%q)", tx.Trace())
	}
	idx := func(stage string) int {
		for i, e := range events {
			if e.Stage == stage {
				return i
			}
		}
		return -1
	}
	for _, stage := range []string{obspkg.StageEnqueue, obspkg.StageAdmit, obspkg.StagePark,
		obspkg.StagePromotion, obspkg.StageInstall, obspkg.StageCommit} {
		if idx(stage) < 0 {
			t.Errorf("trace %q is missing stage %q", tx.Trace(), stage)
		}
	}
	if p, pr := idx(obspkg.StagePark), idx(obspkg.StagePromotion); p >= 0 && pr >= 0 && p > pr {
		t.Errorf("park after promotion in %q", tx.Trace())
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Errorf("trace offsets not monotone: %q", tx.Trace())
		}
	}
}

// TestMetricsConformance cross-checks the telemetry surface against
// docs/PROTOCOL.md in both directions: every registered metric family is
// documented, every documented family exists, every STATS key a server
// can emit is documented, and every documented STATS key is emitted by
// some server role.
func TestMetricsConformance(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}

	// The four server roles whose registries together cover every family.
	primary, priAddr := startServer(t, Config{Shards: 2, Repl: ReplOptions{Primary: true}})
	dsrv, _ := startServer(t, Config{Shards: 2, Durable: durable.Options{Dir: t.TempDir()}})
	gsrv, _ := startServer(t, Config{Shards: 2, ReplicaOf: priAddr})
	csrv, _ := startServer(t, Config{Shards: 2, Repl: ReplOptions{Primary: true, SyncAcks: true}, Cluster: ClusterConfig{Self: "127.0.0.1:0"}})

	registered := make(map[string]bool)
	for _, s := range []*Server{primary, dsrv, gsrv, csrv} {
		var b strings.Builder
		s.Metrics().Expose(&b)
		for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(b.String(), -1) {
			registered[m[1]] = true
		}
	}

	documented := make(map[string]bool)
	for _, m := range regexp.MustCompile(`scc_[a-z_]*[a-z]`).FindAllString(string(doc), -1) {
		documented[m] = true
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("metric family %s is registered but absent from docs/PROTOCOL.md", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/PROTOCOL.md documents %s, which no server role registers", name)
		}
	}

	// STATS keys, both directions. The doc's key vocabulary is every
	// backticked snake_case token in the "## STATS keys" section.
	_, statsDoc, found := strings.Cut(string(doc), "## STATS keys")
	if !found {
		t.Fatal("docs/PROTOCOL.md lost its STATS keys section")
	}
	docKeys := make(map[string]bool)
	for _, m := range regexp.MustCompile("`([a-z][a-z0-9_]*)`").FindAllStringSubmatch(statsDoc, -1) {
		if m[1] == "sccserve" { // prose mention, not a key
			continue
		}
		docKeys[m[1]] = true
	}
	emitted := make(map[string]bool)
	for _, s := range []*Server{primary, dsrv, gsrv, csrv} {
		for _, kv := range strings.Fields(strings.TrimPrefix(s.statsLine(), "OK ")) {
			k, _, ok := strings.Cut(kv, "=")
			if !ok {
				t.Fatalf("malformed STATS token %q", kv)
			}
			emitted[k] = true
		}
	}
	for k := range emitted {
		if !docKeys[k] {
			t.Errorf("STATS emits %s, which docs/PROTOCOL.md does not document", k)
		}
	}
	for k := range docKeys {
		if !emitted[k] {
			t.Errorf("docs/PROTOCOL.md documents STATS key %s, which no server role emits", k)
		}
	}
}

// TestMetricsConcurrentStress hammers the registry from many
// connections — mixed verbs, traced updates, expositions beside them —
// so `make e2e` (-race -count=2) can catch unsynchronized
// instrument access.
func TestMetricsConcurrentStress(t *testing.T) {
	srv, addr := startServer(t, Config{
		Shards:      4,
		GroupCommit: engine.GroupCommit{MaxBatch: 8},
	})
	const workers, iters = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.DialMux(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			key := fmt.Sprintf("s%d", w%3)
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					ops := []client.Op{{Key: key, Delta: 1, Write: true}}
					if i%2 == 0 {
						err = c.Batch([]client.UpdateReq{{Ops: ops, Opts: client.TxOpts{Value: 1, Deadline: time.Minute, Trace: true}}})[0].Err
					} else {
						_, err = c.Update(ops, client.TxOpts{})
					}
				case 1:
					_, err = c.Add(key, 1)
				case 2:
					_, _, err = c.Get(key)
				case 3:
					_, err = c.Stats()
				case 4:
					srv.Metrics().Expose(io.Discard)
					err = c.Ping()
				}
				if err != nil {
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.Metrics().Expose(io.Discard)
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	var buf strings.Builder
	srv.Metrics().Expose(&buf)
	samples := parseExposition(t, buf.String())
	if samples["scc_requests_total"] < workers*iters {
		t.Errorf("scc_requests_total = %v, want >= %d", samples["scc_requests_total"], workers*iters)
	}
}
