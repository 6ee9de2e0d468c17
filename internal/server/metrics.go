// Server-side telemetry: one obs.Registry per Server, exposed over the
// wire by the METRICS verb (Prometheus text exposition 0.0.4) and, via
// Server.Metrics, by an operator HTTP endpoint (cmd/sccserve
// -metrics-addr). Two kinds of series coexist:
//
//   - Native instruments — latency histograms, lost-value counters —
//     updated on the hot path. Each observation is one or two uncontended
//     atomic adds; the histograms use power-of-two buckets so no floating
//     point ever runs per request.
//   - Derived series — commit, fork, promotion, admission counters — are
//     func-backed bridges sampled from the existing Stats structs at
//     exposition time, so the hot path is never billed twice for a number
//     STATS already maintains.
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
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/repl"
)

// metricVerbs are the dispatch verbs that get their own
// scc_request_seconds series; anything else shares "other", so a typo
// storm cannot mint unbounded label values.
var metricVerbs = []string{
	"PING", "GET", "PUT", "ADD", "UPD", "SUM", "STATS", "HEAD", "CKPT", "TXN",
	"TOPO",
}

// serverMetrics owns the registry and the pre-resolved hot-path series.
type serverMetrics struct {
	reg *obs.Registry

	verbSeconds map[string]*obs.Histogram // per-verb request latency
	otherVerb   *obs.Histogram

	stage      *obs.HistogramVec // scc_stage_seconds{stage=...}
	admitWait  *obs.Histogram    // stage="admission_wait"
	sessionOps *obs.Histogram    // ops per interactive session

	batchSize     *obs.Histogram // commits per group-commit flush
	conflictScans *obs.Counter

	submitted    *obs.FloatCounter
	realized     *obs.FloatCounter
	lost         *obs.FloatCounterVec
	lostByReason map[string]*obs.FloatCounter
	traces       *obs.Counter
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
	m.lostByReason = make(map[string]*obs.FloatCounter)
	for _, r := range []string{
		obs.LossExecution, obs.LossSession, obs.LossAdmissionShed,
		obs.LossCrossShed, obs.LossConflictAbort, obs.LossClientAbort,
		obs.LossReap, obs.LossError, obs.LossReplicaLag, obs.LossWALError,
		obs.LossTenantBudget,
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

// registerDerived bridges the server's existing counters into the
// registry as func-backed series. Registration order is exposition
// order. Called once from Open, after the server's subsystems exist;
// exposition samples them live, so METRICS and STATS can never disagree
// about what a counter is, only about when it was read.
func (s *Server) registerDerived() {
	reg := s.met.reg
	reg.GaugeFunc("scc_shards", "Partition count of the backing store.",
		func() float64 { return float64(s.store.NumShards()) })
	reg.CounterFunc("scc_requests_total", "Wire requests dispatched (the STATS reqs counter).",
		func() float64 { return float64(s.requests.Load()) })
	reg.CounterFunc("scc_flight_events_total", "Events recorded by the always-on flight recorder.",
		func() float64 { return float64(s.flight.Seq()) })

	// Go runtime health, sampled at exposition time only (ReadMemStats
	// stops the world briefly — never on the request path).
	reg.GaugeFunc("scc_go_goroutines", "Live goroutines in the server process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("scc_go_heap_inuse_bytes", "Bytes of heap memory in use (runtime.MemStats.HeapInuse).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapInuse)
		})
	reg.CounterFunc("scc_go_gc_total", "Completed garbage-collection cycles.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})

	reg.CounterFunc("scc_commits_total", "Committed transactions across all shards.",
		func() float64 { return float64(s.store.Stats().TotalCommits()) })
	reg.CounterFunc("scc_commits_fast_total", "Single-shard fast-path commits.",
		func() float64 { return float64(s.store.Stats().FastPath) })
	reg.CounterFunc("scc_commits_cross_total", "Cross-shard two-phase commits.",
		func() float64 { return float64(s.store.Stats().CrossCommits) })
	reg.CounterFunc("scc_cross_restarts_total", "Cross-shard validation restarts.",
		func() float64 { return float64(s.store.Stats().CrossRestarts) })
	reg.CounterFunc("scc_cross_shed_total", "Cross-shard retries shed past their value zero-crossing.",
		func() float64 { return float64(s.crossShed.Load()) })
	reg.CounterFunc("scc_cross_batches_total", "Cross-shard commit batches.",
		func() float64 { return float64(s.store.Stats().CrossBatches) })
	reg.CounterFunc("scc_aborts_total", "Engine transaction aborts.",
		func() float64 { return float64(s.store.Stats().Engine.Aborts) })
	reg.CounterFunc("scc_restarts_total", "Engine transaction restarts.",
		func() float64 { return float64(s.store.Stats().Engine.Restarts) })
	reg.CounterFunc("scc_forks_total", "Speculative shadows forked (SCC Conflict Rule).",
		func() float64 { return float64(s.store.Stats().Engine.Forks) })
	reg.CounterFunc("scc_promotions_total", "Speculative shadows promoted at commit.",
		func() float64 { return float64(s.store.Stats().Engine.Promotions) })
	reg.CounterFunc("scc_deferrals_total", "Commits deferred by the value-cognizant Commit Rule.",
		func() float64 { return float64(s.store.Stats().Engine.Deferrals) })
	reg.CounterFunc("scc_commit_batches_total", "Group-commit flushes.",
		func() float64 { return float64(s.store.Stats().Engine.CommitBatches) })
	reg.CounterFunc("scc_views_total", "Read-only snapshot transactions.",
		func() float64 { return float64(s.store.Stats().Views) })

	reg.CounterFunc("scc_admission_admitted_total", "Admission grants, including readmitted retries.",
		func() float64 { return float64(s.adm.Stats().Admitted) })
	reg.CounterFunc("scc_admission_shed_total", "Transactions refused admission (zero-crossed or evicted).",
		func() float64 { return float64(s.adm.Stats().Shed) })
	reg.CounterFunc("scc_admission_tenant_shed_total", "Admission sheds caused by per-tenant value budgets.",
		func() float64 { return float64(s.adm.Stats().TenantShed) })
	reg.CounterFunc("scc_admission_readmits_total", "Cross-shard retries re-entering the admission queue.",
		func() float64 { return float64(s.adm.Stats().Readmits) })
	reg.GaugeFunc("scc_admission_queue_depth", "Waiters queued for admission.",
		func() float64 { return float64(s.adm.Stats().Depth) })
	reg.GaugeFunc("scc_admission_inflight", "Admitted transactions currently holding slots.",
		func() float64 { return float64(s.adm.Stats().InFlight) })
	reg.GaugeFunc("scc_admission_op_time_seconds", "Online per-operation service-time estimate.",
		func() float64 { return s.adm.Stats().OpTime })

	reg.GaugeFunc("scc_txn_active", "Open interactive TXN sessions.",
		func() float64 { return float64(s.sessions.active()) })
	reg.CounterFunc("scc_txn_begun_total", "TXN sessions begun.",
		func() float64 { return float64(s.txnBegun.Load()) })
	reg.CounterFunc("scc_txn_committed_total", "TXN sessions committed.",
		func() float64 { return float64(s.txnCommitted.Load()) })
	reg.CounterFunc("scc_txn_aborted_total", "TXN sessions aborted.",
		func() float64 { return float64(s.txnAborted.Load()) })
	reg.CounterFunc("scc_txn_reaped_total", "TXN sessions reaped by the value-cognizant reaper.",
		func() float64 { return float64(s.txnReaped.Load()) })

	// Promotion can mint a feed (and retire the gate) after registration,
	// so clustered servers register both families unconditionally and the
	// closures read through the atomic accessors, answering zero while
	// the role doesn't apply.
	if s.Feed() != nil || s.cluster != nil {
		reg.GaugeFunc("scc_repl_subscribers", "Live replication subscriptions.",
			func() float64 {
				if feed := s.Feed(); feed != nil {
					return float64(feed.Subscribers())
				}
				return 0
			})
		reg.GaugeFunc("scc_repl_max_lag_records", "Largest subscriber lag in log records.",
			func() float64 {
				if feed := s.Feed(); feed != nil {
					return float64(feed.MaxLag())
				}
				return 0
			})
		reg.CounterFunc("scc_log_trimmed_total", "Commit-log records trimmed below retention/checkpoint floors.",
			func() float64 {
				if feed := s.Feed(); feed != nil {
					return float64(feed.Trimmed())
				}
				return 0
			})
	}
	if s.replGate() != nil {
		reg.GaugeFunc("scc_repl_applied_records", "Replica: log records applied locally.",
			func() float64 {
				if gate := s.replGate(); gate != nil {
					return float64(gate.Applied())
				}
				return 0
			})
		reg.GaugeFunc("scc_repl_lag_records", "Replica: records the primary is ahead.",
			func() float64 {
				if gate := s.replGate(); gate != nil {
					return float64(gate.LagRecords())
				}
				return 0
			})
		reg.CounterFunc("scc_repl_shed_total", "Replica: reads shed for lag-priced value loss.",
			func() float64 {
				if gate := s.replGate(); gate != nil {
					return float64(gate.Shed())
				}
				return 0
			})
	}
	if s.cluster != nil {
		reg.GaugeFunc("scc_cluster_epoch", "Current fencing epoch of this cluster member.",
			func() float64 { return float64(s.cluster.Epoch()) })
		reg.GaugeFunc("scc_cluster_primary", "1 when this node is the cluster primary, else 0.",
			func() float64 {
				if s.cluster.IsPrimary() {
					return 1
				}
				return 0
			})
		reg.CounterFunc("scc_repl_sync_degraded_total", "Semi-sync ack waits that timed out (commit acked anyway).",
			func() float64 { return float64(s.syncDegraded.Load()) })
	}
	if s.durable != nil {
		reg.CounterFunc("scc_wal_appends_total", "Records appended to the per-shard WALs.",
			func() float64 { return float64(s.durable.Stats().WALAppends) })
		reg.CounterFunc("scc_wal_fsyncs_total", "WAL fsync batches.",
			func() float64 { return float64(s.durable.Stats().WALFsyncs) })
		reg.CounterFunc("scc_checkpoints_total", "Shard checkpoints taken.",
			func() float64 { return float64(s.durable.Stats().Checkpoints) })
		reg.GaugeFunc("scc_recovered_index", "Committed records recovered at the last boot.",
			func() float64 { return float64(s.durable.Stats().RecoveredIndex) })
		reg.CounterFunc("scc_durable_errors_total", "Durability-layer errors (WAL or checkpoint failures).",
			func() float64 { return float64(s.durable.Stats().Errors) })
		reg.CounterFunc("scc_wal_intents_total", "Cross-shard intent records appended to the per-shard WALs.",
			func() float64 { return float64(s.durable.Stats().Intents) })
		reg.CounterFunc("scc_recovery_reconciled_total", "Undecided cross-shard epochs discarded by recovery reconciliation at the last boot.",
			func() float64 { return float64(s.durable.Stats().Reconciled) })
	}
}

// NewReplicaMetrics registers the replication client's instruments in
// reg and returns the set repl.StartReplica observes into. cmd/sccserve
// calls this with the serving Server's registry so a replica process
// exposes its apply path next to its serving metrics.
func NewReplicaMetrics(reg *obs.Registry) *repl.ReplicaMetrics {
	return &repl.ReplicaMetrics{
		ApplySeconds: reg.NsHistogram("scc_repl_apply_seconds",
			"Replica: one applied batch's latch hold plus local commit-log sync."),
		ApplyBatch: reg.Histogram("scc_repl_apply_batch",
			"Replica: records installed per latch hold.", 0, 10, 1),
		Resumes: reg.Counter("scc_repl_resumes_total",
			"Replica: shard subscriptions resumed from persisted primary offsets."),
		Snapshots: reg.Counter("scc_repl_snapshots_total",
			"Replica: shard snapshot bootstraps fetched via SNAP."),
	}
}

// Metrics exposes the server's telemetry registry (the METRICS verb's
// source; operator binaries mount it on an HTTP endpoint).
func (s *Server) Metrics() *obs.Registry { return s.met.reg }
