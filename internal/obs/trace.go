package obs

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/flight"
)

// Canonical lifecycle stage names. The trace timeline, the per-stage
// latency histograms, and docs/PROTOCOL.md all use these spellings; a
// stage string appearing anywhere else is a bug the conformance test
// should catch.
const (
	StageEnqueue   = "enqueue"   // entered the admission queue
	StageAdmit     = "admit"     // dispatched by admission control
	StageFork      = "fork"      // speculative shadow forked (Read/Write Rule)
	StagePark      = "park"      // speculative shadow parked at its gate
	StageResume    = "resume"    // gate opened; shadow re-reads and continues
	StagePromotion = "promotion" // speculative shadow committed the transaction
	StageRestart   = "restart"   // from-scratch re-execution (OCC-BC / give-up path)
	StageDefer     = "defer"     // yielded to a higher-value conflicter (VW rule)
	StageInstall   = "install"   // writes installed under the commit latch
	StageCommit    = "commit"    // verdict delivered (post WAL sync)
)

// Lost-value attribution stages: where realized value fell short of the
// value at submission. These label scc_lost_value_total.
const (
	LossExecution     = "execution"      // decay between submit and commit (queueing included)
	LossSession       = "session"        // decay across an interactive session's round trips
	LossAdmissionShed = "admission_shed" // remaining value destroyed by a shed
	LossCrossShed     = "cross_shed"     // shed at re-admission of a cross-shard retry
	LossConflictAbort = "conflict_abort" // attempt budget exhausted under contention
	LossClientAbort   = "client_abort"   // client issued TXN ABORT
	LossReap          = "reap"           // session reaped server-side
	LossError         = "error"          // transaction failed with an error
	LossReplicaLag    = "replica_lag"    // replica read shed by the lag gate
	LossWALError      = "wal_error"      // verdict converted to ERR by a failed WAL sync
)

// TraceEvent is one timestamped lifecycle stage.
type TraceEvent struct {
	Stage string
	At    time.Duration // since the trace started
}

// Trace is a per-transaction lifecycle timeline. All methods are
// nil-safe: untraced requests carry a nil *Trace and every Event call
// on it is a no-op branch, which is what keeps tracing opt-in free.
// Shadows run on other goroutines, so appends are mutex-guarded — a
// traced transaction already pays for channels and goroutine wakeups,
// so the lock is noise.
//
// A trace built with NewRecordedTrace additionally feeds a
// flight-recorder ring (internal/obs/flight) — the always-on black-box
// feed — and may skip retaining events for the reply (retain=false)
// when the client did not ask for a trace= token: the serving layer
// creates one of these for EVERY request, so the flight rings see the
// full lifecycle stream while the reply token stays opt-in. To keep
// the per-stage cost to a monotonic clock read and a slice append,
// stages are buffered in the trace and pushed to the ring in one
// batched write when the serving layer calls Flush at request
// completion (or when the buffer fills mid-request). Flushed events
// carry the commit epoch known at flush time, so a committed
// transaction's whole lifecycle joins the cross-node timeline.
type Trace struct {
	start     time.Time
	startNano int64        // start.UnixNano(), precomputed for flush
	sink      *flight.Ring // nil = no flight recording
	txn       uint64       // serving-layer request/session id for flight events
	retain    bool         // keep events for Snapshot/String
	epoch     atomic.Uint64

	mu      sync.Mutex
	ev      []TraceEvent
	flushed int                    // prefix of ev already pushed to the sink
	evbuf   [flushEvery]TraceEvent // ev's initial backing store: common lifecycles never reallocate
}

// flushEvery bounds the unflushed buffer: a long session (or a restart
// storm) pushes to the ring mid-flight instead of growing without
// limit.
const flushEvery = 12

// NewTrace starts a retained trace at start (the request's submit
// instant) with no flight sink.
func NewTrace(start time.Time) *Trace {
	t := &Trace{start: start, retain: true}
	t.ev = t.evbuf[:0]
	return t
}

// NewRecordedTrace starts a trace whose stages are forwarded to sink
// (nil-safe: a nil ring records nothing) tagged with the request id
// txn. retain selects whether events are also kept for the trace=
// reply; the flight feed is unconditional.
func NewRecordedTrace(start time.Time, sink *flight.Ring, txn uint64, retain bool) *Trace {
	t := &Trace{start: start, startNano: start.UnixNano(), sink: sink, txn: txn, retain: retain}
	t.ev = t.evbuf[:0]
	return t
}

// SetEpoch stamps the transaction's global commit epoch once it is
// known (at install time, under the commit latch). Later stages' flight
// events and the trace= token carry it — the causal join between a
// client-held trace and a merged flight timeline. No-op on a nil trace.
func (t *Trace) SetEpoch(epoch uint64) {
	if t == nil || epoch == 0 {
		return
	}
	t.epoch.Store(epoch)
}

// Epoch returns the stamped commit epoch (0 until SetEpoch; nil-safe).
func (t *Trace) Epoch() uint64 {
	if t == nil {
		return 0
	}
	return t.epoch.Load()
}

// Retained reports whether the trace keeps events for the trace= reply
// (false for flight-only traces; nil-safe).
func (t *Trace) Retained() bool { return t != nil && t.retain }

// Event appends a stage stamped now. No-op on a nil trace. The stamp is
// a monotonic clock read (cheaper than a wall read; the wall time is
// reconstructed from the start instant at flush).
func (t *Trace) Event(stage string) {
	if t == nil {
		return
	}
	t.eventOff(stage, time.Since(t.start))
}

// EventAt appends a stage stamped at — call sites that already hold a
// fresh clock reading use it to avoid a second read. No-op on a nil
// trace.
func (t *Trace) EventAt(stage string, at time.Time) {
	if t == nil {
		return
	}
	t.eventOff(stage, at.Sub(t.start))
}

// EventOff appends a stage at a known offset since the trace start —
// EventOff(stage, 0) stamps the submit instant with no clock read at
// all. No-op on a nil trace.
func (t *Trace) EventOff(stage string, sinceStart time.Duration) {
	if t == nil {
		return
	}
	t.eventOff(stage, sinceStart)
}

func (t *Trace) eventOff(stage string, d time.Duration) {
	t.mu.Lock()
	t.ev = append(t.ev, TraceEvent{Stage: stage, At: d})
	full := t.sink != nil && len(t.ev)-t.flushed >= flushEvery
	t.mu.Unlock()
	if full {
		t.Flush()
	}
}

// Flush pushes buffered stages to the flight ring as one batched write
// (contiguous sequence numbers, single lock hold), stamped with the
// commit epoch known now. The serving layer calls it at request
// completion; mid-request flushes happen when the buffer fills. No-op
// on a nil trace, a sink-less trace, or an empty buffer.
func (t *Trace) Flush() {
	if t == nil || t.sink == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pend := t.ev[t.flushed:]
	if len(pend) == 0 {
		return
	}
	epoch := t.epoch.Load()
	b := t.sink.Batch(len(pend))
	for _, e := range pend {
		b.Add(t.startNano+e.At.Nanoseconds(), e.Stage, t.txn, -1, epoch)
	}
	b.Done()
	if t.retain {
		t.flushed = len(t.ev)
	} else {
		// Untraced requests keep nothing: recycle the buffer.
		t.ev = t.ev[:0]
		t.flushed = 0
	}
}

// Snapshot returns a copy of the events recorded so far. Only retained
// traces keep events to snapshot (nil-safe).
func (t *Trace) Snapshot() []TraceEvent {
	if t == nil || !t.retain {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, len(t.ev))
	copy(out, t.ev)
	return out
}

// String renders the timeline as the wire token payload:
// "stage:ns,stage:ns,..." — offsets in integer nanoseconds since the
// trace start, no spaces, stages in record order. When the commit epoch
// is known it is prefixed as "e<epoch>;" (still space-free), so a
// client-held trace can be joined against a merged flight timeline by
// epoch. Empty for a nil or eventless trace.
func (t *Trace) String() string {
	events := t.Snapshot()
	if len(events) == 0 {
		return ""
	}
	var b strings.Builder
	if e := t.Epoch(); e != 0 {
		b.WriteByte('e')
		b.WriteString(strconv.FormatUint(e, 10))
		b.WriteByte(';')
	}
	for i, e := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.Stage)
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(e.At.Nanoseconds(), 10))
	}
	return b.String()
}

// ParseTrace decodes a String()-rendered timeline, accepting (and
// discarding) the optional "e<epoch>;" prefix; it is the client half of
// the trace= reply token. Malformed input returns nil.
func ParseTrace(s string) []TraceEvent {
	events, _ := ParseTraceEpoch(s)
	return events
}

// ParseTraceEpoch is ParseTrace also returning the commit epoch carried
// by the token's "e<epoch>;" prefix (0 when absent). Malformed input —
// including a present-but-unparsable epoch prefix — returns (nil, 0).
func ParseTraceEpoch(s string) ([]TraceEvent, uint64) {
	if s == "" {
		return nil, 0
	}
	var epoch uint64
	if i := strings.IndexByte(s, ';'); i >= 0 {
		head := s[:i]
		if len(head) < 2 || head[0] != 'e' {
			return nil, 0
		}
		e, err := strconv.ParseUint(head[1:], 10, 64)
		if err != nil || e == 0 {
			return nil, 0
		}
		epoch = e
		s = s[i+1:]
		if s == "" {
			return nil, 0
		}
	}
	parts := strings.Split(s, ",")
	out := make([]TraceEvent, 0, len(parts))
	for _, p := range parts {
		stage, nsStr, ok := strings.Cut(p, ":")
		if !ok || stage == "" {
			return nil, 0
		}
		ns, err := strconv.ParseInt(nsStr, 10, 64)
		if err != nil || ns < 0 {
			return nil, 0
		}
		out = append(out, TraceEvent{Stage: stage, At: time.Duration(ns)})
	}
	return out, epoch
}
