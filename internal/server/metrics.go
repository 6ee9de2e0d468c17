// Server-side telemetry: one obs.Registry per Server, exposed via
// Server.Metrics as Prometheus text exposition 0.0.4 on an operator HTTP
// endpoint (cmd/sccserve -metrics-addr, GET /metrics). Two kinds of
// series coexist:
//
//   - Native instruments — latency histograms, lost-value counters —
//     updated on the hot path. Each observation is one or two uncontended
//     atomic adds; the histograms use power-of-two buckets so no floating
//     point ever runs per request.
//   - Derived series — commit, fork, promotion, admission counters — are
//     func-backed bridges sampled from the layers' Stats structs at
//     exposition time, so the hot path is never billed twice for a number
//     a layer already maintains. They are the rows of statRows, the one
//     table the STATS line is rendered from too: a counter has one
//     source and one listing, whichever surface reads it.
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
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/shard"
)

// metricVerbs are the dispatch verbs that get their own
// scc_request_seconds series; anything else shares "other", so a typo
// storm cannot mint unbounded label values.
var metricVerbs = []string{
	"PING", "GET", "ADD", "UPD", "SUM", "STATS", "HEAD", "TXN", "TOPO",
}

// serverMetrics owns the registry and the pre-resolved hot-path series.
type serverMetrics struct {
	reg *obs.Registry

	verbSeconds map[string]*obs.Histogram // per-verb request latency
	otherVerb   *obs.Histogram

	stage      *obs.HistogramVec // scc_stage_seconds{stage=...}
	admitWait  *obs.Histogram    // stage="admission_wait"
	service    *obs.Histogram    // stage="service": one execAdmitted call, admit to engine verdict
	sessionOps *obs.Histogram    // ops per interactive session

	batchSize     *obs.Histogram // commits per group-commit flush
	conflictScans *obs.Counter

	submitted    *obs.FloatCounter
	realized     *obs.FloatCounter
	lost         *obs.FloatCounterVec
	lostByReason map[string]*obs.FloatCounter
	traces       *obs.Counter

	// Event counters the server itself owns; statRows exposes them.
	requests       obs.Counter // request lines dispatched
	requestsInline obs.Counter // REQ-framed UPDs their connection's reader ran without handing off
	wireResponses  obs.Counter // lines written to connections' response writers
	wireFlushes    obs.Counter // successful flushes of those writers (one write(2) each, or nearly)
	crossShed      obs.Counter // cross-shard retries shed past their zero-crossing
	syncDegraded   obs.Counter // SyncAcks waits that timed out (commit acked anyway)
	txnBegun       obs.Counter
	txnCommitted   obs.Counter
	txnAborted     obs.Counter
	txnReaped      obs.Counter
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		stage: reg.NsHistogramVec("scc_stage_seconds",
			"Time spent in one transaction lifecycle stage.", "stage"),
		sessionOps: reg.Histogram("scc_txn_session_ops",
			"Operations per interactive TXN session at its verdict.", 0, 10, 1),
		batchSize: reg.Histogram("scc_commit_batch_size",
			"Commits processed per commit-latch acquisition.", 0, 10, 1),
		conflictScans: reg.Counter("scc_conflict_key_scans_total",
			"Key comparisons performed by the engine's Read/Write Rule conflict scans."),
		submitted: reg.FloatCounter("scc_value_submitted_total",
			"Sum of Def. 2 value-function values at transaction submit."),
		realized: reg.FloatCounter("scc_value_realized_total",
			"Sum of value-function values at commit (clamped at zero)."),
		lost: reg.FloatCounterVec("scc_value_lost_total",
			"Submitted value not realized, attributed to the lifecycle stage that lost it.", "reason"),
		traces: reg.Counter("scc_traces_total",
			"Requests that asked for a trace= lifecycle timeline."),
	}
	verbs := reg.NsHistogramVec("scc_request_seconds",
		"Wire request latency by verb (dispatch to reply).", "verb")
	m.verbSeconds = make(map[string]*obs.Histogram, len(metricVerbs))
	for _, v := range metricVerbs {
		m.verbSeconds[v] = verbs.With(strings.ToLower(v))
	}
	m.otherVerb = verbs.With("other")
	m.admitWait = m.stage.With("admission_wait")
	m.service = m.stage.With("service")
	m.lostByReason = make(map[string]*obs.FloatCounter)
	for _, r := range []string{
		obs.LossExecution, obs.LossSession, obs.LossAdmissionShed,
		obs.LossCrossShed, obs.LossConflictAbort, obs.LossClientAbort,
		obs.LossReap, obs.LossError, obs.LossReplicaLag, obs.LossWALError,
	} {
		m.lostByReason[r] = m.lost.With(r)
	}
	return m
}

// engineMetrics builds the instrument set internal/engine observes into;
// the flush and park stages share scc_stage_seconds with the server's own
// stages so one family carries the whole lifecycle.
func (m *serverMetrics) engineMetrics() *engine.Metrics {
	return &engine.Metrics{
		BatchSize:     m.batchSize,
		FlushSeconds:  m.stage.With("commit_flush"),
		ParkSeconds:   m.stage.With("park"),
		ConflictScans: m.conflictScans,
	}
}

// lostValue attributes v of lost value to reason (no-op for v <= 0).
func (m *serverMetrics) lostValue(reason string, v float64) {
	if c, ok := m.lostByReason[reason]; ok {
		c.Add(v)
		return
	}
	m.lost.With(reason).Add(v)
}

// observeVerb records one dispatch round trip.
func (m *serverMetrics) observeVerb(verb string, d time.Duration) {
	h, ok := m.verbSeconds[verb]
	if !ok {
		h = m.otherVerb
	}
	h.Observe(int64(d))
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
// key, and its derived series reads its source, only while the server
// holds the role.
func primary(sn *statSnap) bool   { return sn.feed != nil }
func semiSync(sn *statSnap) bool  { return sn.feed != nil && sn.s.syncAcks }
func replica(sn *statSnap) bool   { return sn.gate != nil }
func clustered(sn *statSnap) bool { return sn.s.cluster != nil }
func hasWAL(sn *statSnap) bool    { return sn.s.durable != nil }

// statRow is one number the server reports about itself: a STATS key, a
// derived metric family, or both — then both surfaces show the same
// number, because both call read.
type statRow struct {
	key    string // STATS key; "" = /metrics only
	family string // derived metric family; "" = STATS only
	help   string
	gauge  bool                 // family type: gauge, else counter
	when   func(*statSnap) bool // role predicate; nil = every server
	read   func(*statSnap) float64
	text   func(*statSnap) string // STATS-only rows that are not plain integers
	// promotable marks primary-side families: registration happens once,
	// at Open, but promotion can mint a feed later, so a cluster member
	// registers them up front and they answer zero until the role is held.
	promotable bool
}

// replLagKey is emitted by both replication roles — a primary's worst
// subscriber lag and a replica's own lag. A chained primary-and-replica
// reports both; the replica-side one comes last and wins in last-wins
// k=v parsers.
const replLagKey = "repl_lag"

func us(seconds float64, prec int) string {
	return strconv.FormatFloat(seconds*1e6, 'f', prec, 64)
}

func memStats() *runtime.MemStats {
	// ReadMemStats stops the world briefly — exposition time only, never
	// on the request path.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &ms
}

// statRows is the server's one stats listing. Row order is STATS key
// order and exposition order; docs/PROTOCOL.md documents both
// vocabularies and TestMetricsConformance holds them to it.
var statRows = []statRow{
	{key: "shards", family: "scc_shards", help: "Partition count of the backing store.", gauge: true,
		read: func(sn *statSnap) float64 { return float64(sn.s.store.NumShards()) }},
	{key: "reqs", family: "scc_requests_total", help: "Wire requests dispatched (the STATS reqs counter).",
		read: func(sn *statSnap) float64 { return float64(sn.s.met.requests.Value()) }},
	{key: "req_inline", family: "scc_requests_inline_total", help: "REQ-framed UPDs read, run and answered by one goroutine, the connection's reader, without promoting a follower.",
		read: func(sn *statSnap) float64 { return float64(sn.s.met.requestsInline.Value()) }},
	{key: "wire_responses", family: "scc_wire_responses_total", help: "Lines handed to connections' response writers (responses and pushed lines).",
		read: func(sn *statSnap) float64 { return float64(sn.s.met.wireResponses.Value()) }},
	{key: "wire_flushes", family: "scc_wire_flushes_total", help: "Successful response-writer flushes; wire_responses / wire_flushes is lines per write(2).",
		read: func(sn *statSnap) float64 { return float64(sn.s.met.wireFlushes.Value()) }},
	{family: "scc_flight_events_total", help: "Events recorded by the always-on flight recorder.",
		read: func(sn *statSnap) float64 { return float64(sn.s.flight.Seq()) }},
	{family: "scc_go_goroutines", help: "Live goroutines in the server process.", gauge: true,
		read: func(*statSnap) float64 { return float64(runtime.NumGoroutine()) }},
	{family: "scc_go_heap_inuse_bytes", help: "Bytes of heap memory in use (runtime.MemStats.HeapInuse).", gauge: true,
		read: func(*statSnap) float64 { return float64(memStats().HeapInuse) }},
	{family: "scc_go_gc_total", help: "Completed garbage-collection cycles.",
		read: func(*statSnap) float64 { return float64(memStats().NumGC) }},

	{key: "commits", family: "scc_commits_total", help: "Committed transactions across all shards.",
		read: func(sn *statSnap) float64 { return float64(sn.store().TotalCommits()) }},
	{key: "fast", family: "scc_commits_fast_total", help: "Single-shard fast-path commits.",
		read: func(sn *statSnap) float64 { return float64(sn.store().FastPath) }},
	{key: "cross", family: "scc_commits_cross_total", help: "Cross-shard commits (one node-log record each).",
		read: func(sn *statSnap) float64 { return float64(sn.store().CrossCommits) }},
	{key: "cross_restarts", family: "scc_cross_restarts_total", help: "Cross-shard validation restarts.",
		read: func(sn *statSnap) float64 { return float64(sn.store().CrossRestarts) }},
	{key: "cross_shed", family: "scc_cross_shed_total", help: "Cross-shard retries shed past their value zero-crossing.",
		read: func(sn *statSnap) float64 { return float64(sn.s.met.crossShed.Value()) }},
	{key: "cross_batches", family: "scc_cross_batches_total", help: "Cross-shard commit batches.",
		read: func(sn *statSnap) float64 { return float64(sn.store().CrossBatches) }},
	{key: "aborts", family: "scc_aborts_total", help: "Engine transaction aborts.",
		read: func(sn *statSnap) float64 { return float64(sn.store().Engine.Aborts) }},
	{key: "restarts", family: "scc_restarts_total", help: "Engine transaction restarts.",
		read: func(sn *statSnap) float64 { return float64(sn.store().Engine.Restarts) }},
	{key: "forks", family: "scc_forks_total", help: "Speculative shadows forked (SCC Conflict Rule).",
		read: func(sn *statSnap) float64 { return float64(sn.store().Engine.Forks) }},
	{key: "promotions", family: "scc_promotions_total", help: "Speculative shadows promoted at commit.",
		read: func(sn *statSnap) float64 { return float64(sn.store().Engine.Promotions) }},
	{key: "deferrals", family: "scc_deferrals_total", help: "Commits deferred by the value-cognizant Commit Rule.",
		read: func(sn *statSnap) float64 { return float64(sn.store().Engine.Deferrals) }},
	{key: "commit_batches", family: "scc_commit_batches_total", help: "Group-commit flushes.",
		read: func(sn *statSnap) float64 { return float64(sn.store().Engine.CommitBatches) }},
	{key: "views", family: "scc_views_total", help: "Read-only snapshot transactions.",
		read: func(sn *statSnap) float64 { return float64(sn.store().Views) }},

	{key: "admitted", family: "scc_admission_admitted_total", help: "Admission grants, including readmitted retries.",
		read: func(sn *statSnap) float64 { return float64(sn.adm().Admitted) }},
	{key: "shed", family: "scc_admission_shed_total", help: "Transactions refused admission (zero-crossed or evicted).",
		read: func(sn *statSnap) float64 { return float64(sn.adm().Shed) }},
	{key: "readmits", family: "scc_admission_readmits_total", help: "Cross-shard retries re-entering the admission queue.",
		read: func(sn *statSnap) float64 { return float64(sn.adm().Readmits) }},
	{key: "depth", family: "scc_admission_queue_depth", help: "Waiters queued for admission.", gauge: true,
		read: func(sn *statSnap) float64 { return float64(sn.adm().Depth) }},
	{key: "inflight", family: "scc_admission_inflight", help: "Admitted transactions currently holding slots.", gauge: true,
		read: func(sn *statSnap) float64 { return float64(sn.adm().InFlight) }},
	{family: "scc_admission_op_time_seconds", help: "Online per-operation service-time estimate.", gauge: true,
		read: func(sn *statSnap) float64 { return sn.adm().OpTime }},
	{key: "op_time_us", text: func(sn *statSnap) string { return us(sn.adm().OpTime, 1) }},
	// Lifetime quantiles of the service stage, interpolated inside its
	// power-of-two buckets; an idle server reports zeros.
	{key: "p50_us", text: func(sn *statSnap) string { return us(sn.s.met.service.Quantile(0.50), 0) }},
	{key: "p99_us", text: func(sn *statSnap) string { return us(sn.s.met.service.Quantile(0.99), 0) }},

	{key: "txn_active", family: "scc_txn_active", help: "Open interactive TXN sessions.", gauge: true,
		read: func(sn *statSnap) float64 { return float64(sn.s.sessions.active()) }},
	{key: "txn_begun", family: "scc_txn_begun_total", help: "TXN sessions begun.",
		read: func(sn *statSnap) float64 { return float64(sn.s.met.txnBegun.Value()) }},
	{key: "txn_committed", family: "scc_txn_committed_total", help: "TXN sessions committed.",
		read: func(sn *statSnap) float64 { return float64(sn.s.met.txnCommitted.Value()) }},
	{key: "txn_aborted", family: "scc_txn_aborted_total", help: "TXN sessions aborted.",
		read: func(sn *statSnap) float64 { return float64(sn.s.met.txnAborted.Value()) }},
	{key: "txn_reaped", family: "scc_txn_reaped_total", help: "TXN sessions reaped at their value zero crossing or idle cap.",
		read: func(sn *statSnap) float64 { return float64(sn.s.met.txnReaped.Value()) }},

	{key: "repl_subs", family: "scc_repl_subscribers", help: "Live replication subscriptions.", gauge: true, when: primary, promotable: true,
		read: func(sn *statSnap) float64 { return float64(sn.feed.Subscribers()) }},
	{key: replLagKey, family: "scc_repl_max_lag_records", help: "Largest subscriber lag in log parts.", gauge: true, when: primary, promotable: true,
		read: func(sn *statSnap) float64 { return float64(sn.feed.MaxLag()) }},
	{key: "log_trimmed", family: "scc_log_trimmed_total", help: "Commit-log parts trimmed below the retention and ack floors.", when: primary, promotable: true,
		read: func(sn *statSnap) float64 { return float64(sn.feed.Log().Trimmed()) }},
	{key: "repl_sync_degraded", family: "scc_repl_sync_degraded_total", help: "Semi-sync ack waits that timed out (commit acked anyway).", when: semiSync, promotable: true,
		read: func(sn *statSnap) float64 { return float64(sn.s.met.syncDegraded.Value()) }},

	{key: "repl_applied", family: "scc_repl_applied_records", help: "Replica: primary position applied through.", gauge: true, when: replica,
		read: func(sn *statSnap) float64 { return float64(sn.gate.Applied()) }},
	{key: replLagKey, family: "scc_repl_lag_records", help: "Replica: log parts the primary is ahead.", gauge: true, when: replica,
		read: func(sn *statSnap) float64 { return float64(sn.gate.LagRecords()) }},
	{key: "repl_shed", family: "scc_repl_shed_total", help: "Replica: reads shed for lag-priced value loss.", when: replica,
		read: func(sn *statSnap) float64 { return float64(sn.gate.Shed()) }},

	{key: "cluster_epoch", family: "scc_cluster_epoch", help: "Current fencing epoch of this cluster member.", gauge: true, when: clustered,
		read: func(sn *statSnap) float64 { return float64(sn.epoch) }},
	{key: "cluster_role", when: clustered, text: func(sn *statSnap) string { return sn.crole.String() }},
	{family: "scc_cluster_primary", help: "1 when this node is the cluster primary, else 0.", gauge: true, when: clustered,
		read: func(sn *statSnap) float64 {
			if sn.crole == cluster.RolePrimary {
				return 1
			}
			return 0
		}},

	{key: "wal_appends", family: "scc_wal_appends_total", help: "Records appended to the node WAL.", when: hasWAL,
		read: func(sn *statSnap) float64 { return float64(sn.durable().WALAppends) }},
	{key: "wal_fsyncs", family: "scc_wal_fsyncs_total", help: "WAL fsync batches.", when: hasWAL,
		read: func(sn *statSnap) float64 { return float64(sn.durable().WALFsyncs) }},
	{key: "ckpt_count", family: "scc_checkpoints_total", help: "Shard checkpoints taken.", when: hasWAL,
		read: func(sn *statSnap) float64 { return float64(sn.durable().Checkpoints) }},
	{key: "recovered_index", family: "scc_recovered_index", help: "Committed records recovered at the last boot.", gauge: true, when: hasWAL,
		read: func(sn *statSnap) float64 { return float64(sn.durable().RecoveredIndex) }},
	{key: "dur_errors", family: "scc_durable_errors_total", help: "Durability-layer errors (WAL or checkpoint failures).", when: hasWAL,
		read: func(sn *statSnap) float64 { return float64(sn.durable().Errors) }},
	{key: "dur_cross_records", family: "scc_wal_cross_records_total", help: "Cross-shard commits appended to the node WAL, one record each.", when: hasWAL,
		read: func(sn *statSnap) float64 { return float64(sn.durable().Intents) }},
}

// registerStats bridges statRows into the registry as func-backed
// series, in row order. Called once from Open, after the server's
// subsystems exist; exposition samples them live through the same read
// functions STATS uses, so /metrics and STATS can never disagree about
// what a counter is, only about when it was read.
func (s *Server) registerStats() {
	boot := s.snap()
	for i := range statRows {
		row := &statRows[i]
		registers := row.when == nil || row.when(boot) || row.promotable && clustered(boot)
		if row.family == "" || !registers {
			continue
		}
		sample := func() float64 {
			if sn := s.snap(); row.when == nil || row.when(sn) {
				return row.read(sn)
			}
			return 0
		}
		if row.gauge {
			s.met.reg.GaugeFunc(row.family, row.help, sample)
		} else {
			s.met.reg.CounterFunc(row.family, row.help, sample)
		}
	}
}

// statsLine renders the STATS reply: every keyed row whose role the
// server holds, in row order, from one snapshot.
func (s *Server) statsLine() string {
	sn := s.snap()
	var b strings.Builder
	b.WriteString("OK")
	for i := range statRows {
		row := &statRows[i]
		if row.key == "" || row.when != nil && !row.when(sn) {
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

// replicaMetrics registers a replica's apply-path instruments, which
// every stream the replica runs observes into.
func (m *serverMetrics) replicaMetrics() *repl.ReplicaMetrics {
	return &repl.ReplicaMetrics{
		ApplySeconds: m.reg.NsHistogram("scc_repl_apply_seconds",
			"Replica: one round's install, latch hold plus local commit-log sync."),
		ApplyBatch: m.reg.Histogram("scc_repl_apply_batch",
			"Replica: log parts installed per round, under one latch hold and one sync.", 0, 10, 1),
		Resumes: m.reg.Counter("scc_repl_resumes_total",
			"Replica: subscriptions resumed from a persisted primary position."),
		Snapshots: m.reg.Counter("scc_repl_snapshots_total",
			"Replica: snapshot bootstraps fetched via SNAP."),
	}
}

// Metrics exposes the server's telemetry registry (operator binaries
// mount it on an HTTP endpoint).
func (s *Server) Metrics() *obs.Registry { return s.met.reg }
