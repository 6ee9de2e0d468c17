// Server-side telemetry: one obs.Registry per Server, exposed via
// Server.Metrics as Prometheus text exposition 0.0.4 on an operator HTTP
// endpoint (cmd/sccserve -metrics-addr, GET /metrics), beside the STATS
// line. Every number has one home: the surface something reads it on.
// The exercised-by ratchet (surface_test.go, TestTelemetrySurface) names
// the reader of every STATS key, metric family and flight event name.
//
//   - Native instruments — latency histograms, value counters — are
//     updated on the hot path. Each observation is one or two uncontended
//     atomic adds; the histograms use power-of-two buckets so no floating
//     point ever runs per request.
//   - statRows, the STATS line's one listing, reads the layers' Stats
//     structs at render time, so the hot path is never billed twice for
//     a number a layer already maintains. A row with a family is sampled
//     into /metrics through the same read function.
//
// The value accounting is conservation-shaped, after the paper's Def. 2:
// every valued request contributes its submit-time value to
// scc_value_submitted_total; at the verdict the surviving value (the
// value function evaluated at verdict time, clamped at zero) goes to
// scc_value_realized_total if it committed, and everything not realized
// goes to scc_value_lost_total{reason} attributed to the stage that
// caused the loss. submitted == realized + sum(lost) over any quiescent
// interval, which is what makes the meter trustworthy.
package server

import (
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/shard"
)

// serverMetrics owns the registry and the pre-resolved hot-path series.
type serverMetrics struct {
	reg *obs.Registry

	// scc_request_seconds has a series for the two verbs bench/ reads; no
	// other verb pays a clock read for it.
	updSeconds, txnSeconds *obs.Histogram
	sessionOps             *obs.Histogram // ops per interactive session

	submitted    *obs.FloatCounter
	realized     *obs.FloatCounter
	lost         *obs.FloatCounterVec
	lostByReason map[string]*obs.FloatCounter
	traces       *obs.Counter
	requests     *obs.Counter // request lines dispatched

	// replResumes and replSnapshots count the replication streams this
	// server started (as a replica, or following a new primary) by how
	// each bootstrapped.
	replResumes, replSnapshots *obs.Counter

	// Event counters the server itself owns; statRows exposes them.
	requestsInline obs.Counter // REQ-framed UPDs their connection's reader ran without handing off
	wireResponses  obs.Counter // lines written to connections' response writers
	wireFlushes    obs.Counter // successful flushes of those writers (one write(2) each, or nearly)
	crossShed      obs.Counter // cross-shard retries shed past their zero-crossing
	syncDegraded   obs.Counter // SyncAcks waits that timed out (commit acked anyway)
	txnReaped      obs.Counter // TXN sessions reaped at their zero crossing or idle cap
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		sessionOps: reg.Histogram("scc_txn_session_ops",
			"Operations per interactive TXN session at its verdict.", 0, 10, 1),
		submitted: reg.FloatCounter("scc_value_submitted_total",
			"Sum of Def. 2 value-function values at transaction submit."),
		realized: reg.FloatCounter("scc_value_realized_total",
			"Sum of value-function values at commit (clamped at zero)."),
		lost: reg.FloatCounterVec("scc_value_lost_total",
			"Submitted value not realized, attributed to the lifecycle stage that lost it.", "reason"),
		traces: reg.Counter("scc_traces_total",
			"Requests that asked for a trace= lifecycle timeline."),
		requests: reg.Counter("scc_requests_total", "Wire requests dispatched."),
	}
	verbs := reg.NsHistogramVec("scc_request_seconds",
		"Wire request latency by verb (dispatch to reply).", "verb")
	m.updSeconds, m.txnSeconds = verbs.With("upd"), verbs.With("txn")
	m.lostByReason = make(map[string]*obs.FloatCounter)
	for _, r := range []string{
		obs.LossExecution, obs.LossSession, obs.LossAdmissionShed,
		obs.LossCrossShed, obs.LossConflictAbort, obs.LossClientAbort,
		obs.LossReap, obs.LossError, obs.LossReplicaLag, obs.LossWALError,
	} {
		m.lostByReason[r] = m.lost.With(r)
	}
	m.replResumes = reg.Counter("scc_repl_resumes_total",
		"Replica: subscriptions resumed from a persisted primary position.")
	m.replSnapshots = reg.Counter("scc_repl_snapshots_total",
		"Replica: snapshot bootstraps fetched via SNAP.")
	return m
}

// lostValue attributes v of lost value to reason (no-op for v <= 0).
func (m *serverMetrics) lostValue(reason string, v float64) {
	if c, ok := m.lostByReason[reason]; ok {
		c.Add(v)
		return
	}
	m.lost.With(reason).Add(v)
}

// verbSeconds returns verb's scc_request_seconds series, nil for a verb
// that has none.
func (m *serverMetrics) verbSeconds(verb string) *obs.Histogram {
	switch verb {
	case "UPD":
		return m.updSeconds
	case "TXN":
		return m.txnSeconds
	}
	return nil
}

// statSnap is one reader's view of the server: the role pointers and
// the cluster state are loaded once (a promotion mid-render cannot nil
// a gate a row is about to read, and epoch and role stay one consistent
// pair), and each layer's Stats() is taken at most once, on first use.
type statSnap struct {
	s     *Server
	feed  *repl.Feed
	gate  *repl.LagGate
	epoch uint64
	crole cluster.Role
	st    *shard.Stats
	ad    *AdmissionStats
	dur   *durable.Stats
}

func (s *Server) snap() *statSnap {
	sn := &statSnap{s: s, feed: s.Feed(), gate: s.replGate()}
	if s.cluster != nil {
		sn.epoch, sn.crole, _ = s.cluster.Snapshot()
	}
	return sn
}

// lazy fills *p from get on first use and returns it.
func lazy[T any](p **T, get func() T) *T {
	if *p == nil {
		v := get()
		*p = &v
	}
	return *p
}

func (sn *statSnap) store() *shard.Stats     { return lazy(&sn.st, sn.s.store.Stats) }
func (sn *statSnap) adm() *AdmissionStats    { return lazy(&sn.ad, sn.s.adm.Stats) }
func (sn *statSnap) durable() *durable.Stats { return lazy(&sn.dur, sn.s.durable.Stats) }

// Role predicates for role-conditional rows: STATS emits such a row's
// key only while the server holds the role.
func primary(sn *statSnap) bool   { return sn.feed != nil }
func semiSync(sn *statSnap) bool  { return sn.feed != nil && sn.s.syncAcks }
func replica(sn *statSnap) bool   { return sn.gate != nil }
func clustered(sn *statSnap) bool { return sn.s.cluster != nil }
func hasWAL(sn *statSnap) bool    { return sn.s.durable != nil }

// statRow is one STATS key. A row with a family is also a /metrics
// counter — then both surfaces show the same number, because both call
// read — which only a number read on both surfaces earns.
type statRow struct {
	key    string
	family string // counter family on every server; "" = STATS only
	help   string
	when   func(*statSnap) bool // role predicate; nil = every server
	read   func(*statSnap) float64
	text   func(*statSnap) string // rows that are not plain integers
}

// statRows is the server's one stats listing. Row order is STATS key
// order; docs/PROTOCOL.md documents every key and family, and
// TestMetricsConformance holds them to it.
var statRows = []statRow{
	{key: "shards", read: func(sn *statSnap) float64 { return float64(sn.s.store.NumShards()) }},
	{key: "req_inline", read: func(sn *statSnap) float64 { return float64(sn.s.met.requestsInline.Value()) }},
	{key: "wire_responses", read: func(sn *statSnap) float64 { return float64(sn.s.met.wireResponses.Value()) }},
	{key: "wire_flushes", read: func(sn *statSnap) float64 { return float64(sn.s.met.wireFlushes.Value()) }},

	{key: "commits", family: "scc_commits_total", help: "Committed transactions across all shards.",
		read: func(sn *statSnap) float64 { return float64(sn.store().TotalCommits()) }},
	{key: "fast", read: func(sn *statSnap) float64 { return float64(sn.store().FastPath) }},
	{key: "cross", read: func(sn *statSnap) float64 { return float64(sn.store().CrossCommits) }},
	{key: "cross_restarts", read: func(sn *statSnap) float64 { return float64(sn.store().CrossRestarts) }},
	{key: "cross_shed", read: func(sn *statSnap) float64 { return float64(sn.s.met.crossShed.Value()) }},
	{key: "aborts", read: func(sn *statSnap) float64 { return float64(sn.store().Engine.Aborts) }},
	{key: "restarts", read: func(sn *statSnap) float64 { return float64(sn.store().Engine.Restarts) }},
	{key: "forks", read: func(sn *statSnap) float64 { return float64(sn.store().Engine.Forks) }},
	{key: "promotions", read: func(sn *statSnap) float64 { return float64(sn.store().Engine.Promotions) }},
	{key: "deferrals", read: func(sn *statSnap) float64 { return float64(sn.store().Engine.Deferrals) }},
	{key: "commit_batches", read: func(sn *statSnap) float64 { return float64(sn.store().Engine.CommitBatches) }},
	{key: "shed", read: func(sn *statSnap) float64 { return float64(sn.adm().Shed) }},

	{key: "txn_active", read: func(sn *statSnap) float64 { return float64(sn.s.sessions.active()) }},
	{key: "txn_reaped", read: func(sn *statSnap) float64 { return float64(sn.s.met.txnReaped.Value()) }},

	{key: "repl_subs", when: primary, read: func(sn *statSnap) float64 { return float64(sn.feed.Subscribers()) }},
	{key: "log_trimmed", when: primary, read: func(sn *statSnap) float64 { return float64(sn.feed.Log().Trimmed()) }},
	{key: "repl_sync_degraded", when: semiSync, read: func(sn *statSnap) float64 { return float64(sn.s.met.syncDegraded.Value()) }},

	{key: "repl_applied", when: replica, read: func(sn *statSnap) float64 { return float64(sn.gate.Applied()) }},
	{key: "repl_lag", when: replica, read: func(sn *statSnap) float64 { return float64(sn.gate.LagRecords()) }},
	{key: "repl_shed", when: replica, read: func(sn *statSnap) float64 { return float64(sn.gate.Shed()) }},

	{key: "cluster_epoch", when: clustered, read: func(sn *statSnap) float64 { return float64(sn.epoch) }},
	{key: "cluster_role", when: clustered, text: func(sn *statSnap) string { return sn.crole.String() }},

	{key: "wal_appends", when: hasWAL, read: func(sn *statSnap) float64 { return float64(sn.durable().WALAppends) }},
	{key: "wal_fsyncs", when: hasWAL, read: func(sn *statSnap) float64 { return float64(sn.durable().WALFsyncs) }},
	{key: "ckpt_count", when: hasWAL, read: func(sn *statSnap) float64 { return float64(sn.durable().Checkpoints) }},
	{key: "recovered_index", when: hasWAL, read: func(sn *statSnap) float64 { return float64(sn.durable().RecoveredIndex) }},
	{key: "dur_errors", when: hasWAL, read: func(sn *statSnap) float64 { return float64(sn.durable().Errors) }},
}

// registerStats bridges the rows with a family into the registry as
// func-backed counters, in row order, then the layer counters /metrics
// alone reads. Called once from Open; exposition samples them live
// through the same read functions STATS uses.
func (s *Server) registerStats() {
	for i := range statRows {
		if row := &statRows[i]; row.family != "" {
			s.met.reg.CounterFunc(row.family, row.help, func() float64 { return row.read(s.snap()) })
		}
	}
	s.met.reg.CounterFunc("scc_conflict_key_scans_total",
		"In-flight transactions the engine's Read/Write Rule conflict scans examined.",
		func() float64 { return float64(s.store.Stats().Engine.ConflictScans) })
}

// statsLine renders the STATS reply: every row whose role the server
// holds, in row order, from one snapshot.
func (s *Server) statsLine() string {
	sn := s.snap()
	var b strings.Builder
	b.WriteString("OK")
	for i := range statRows {
		row := &statRows[i]
		if row.when != nil && !row.when(sn) {
			continue
		}
		b.WriteByte(' ')
		b.WriteString(row.key)
		b.WriteByte('=')
		if row.text != nil {
			b.WriteString(row.text(sn))
		} else {
			b.WriteString(strconv.FormatInt(int64(row.read(sn)), 10))
		}
	}
	return b.String()
}

// Metrics exposes the server's telemetry registry (operator binaries
// mount it on an HTTP endpoint).
func (s *Server) Metrics() *obs.Registry { return s.met.reg }
