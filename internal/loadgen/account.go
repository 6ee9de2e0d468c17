package loadgen

import (
	"errors"
	"time"

	"repro/internal/obs"
	"repro/internal/server/client"
	"repro/internal/stats"
)

// StageRow is one lifecycle stage's latency contribution, aggregated
// over the run's sampled trace= timelines: N samples, p50/p99 of the
// stage's offset from submit in milliseconds.
type StageRow struct {
	N     int     `json:"n"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// Result is a client-side account: the outcome counters Book fills as
// verdicts arrive and Merge folds across streams, plus the summary
// measures Finish derives from them. Its JSON form is the sccload
// -bench-out artifact (the BENCH_<n>.json schema), so tags are
// append-only.
type Result struct {
	RunID      int64   `json:"run_id"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Requests   int64   `json:"requests"`
	Committed  int64   `json:"committed"`
	Shed       int64   `json:"shed"`
	Errors     int64   `json:"errors"`
	Throughput float64 `json:"throughput_txn_per_sec"`
	P50Ms      float64 `json:"latency_p50_ms"`
	P99Ms      float64 `json:"latency_p99_ms"`
	MeanMs     float64 `json:"latency_mean_ms"`

	// The paper's Sec. 4 measures: committed transactions past their
	// deadline, their mean tardiness, and System Value — MaxValue sums V
	// over every submitted transaction, ValueSum the realizedValue of the
	// committed ones.
	MissedPct   float64 `json:"deadline_missed_pct"`
	TardinessMs float64 `json:"avg_tardiness_ms"`
	ValuePct    float64 `json:"value_pct_of_max"`
	ValueSum    float64 `json:"value_sum"`
	MaxValue    float64 `json:"value_max"`

	// Failover accounting: redirects the load followed and connections
	// it re-dialed across a promotion.
	Redirects  int64 `json:"redirects_followed,omitempty"`
	Reconnects int64 `json:"reconnects,omitempty"`

	// Stages attributes latency to server-side lifecycle stages from the
	// sampled trace= timelines; TraceSampled counts transactions issued
	// with trace=1, TraceCarried the replies that carried a timeline.
	TraceSampled int                 `json:"trace_sampled,omitempty"`
	TraceCarried int                 `json:"trace_carried,omitempty"`
	Stages       map[string]StageRow `json:"stages,omitempty"`

	// Acked is each client's acknowledged-commit count, the input of
	// AuditLedger.
	Acked Acked `json:"-"`

	missed    int64
	tardiness float64                  // seconds, summed over missed commits
	lat       *stats.Sample            // committed latencies, ms
	stages    map[string]*stats.Sample // stage -> offsets from submit, ms
}

// NewResult returns an empty account. Streams never share one; Run
// merges theirs when the workers have finished.
func NewResult() *Result {
	return &Result{lat: stats.NewSample(0, 0), stages: map[string]*stats.Sample{}}
}

// realizedValue re-evaluates the request's value function at its
// observed latency — the client-side Def. 7 account, family-aware
// because it goes through the same opts.T → value.Fn mapping the server
// admission uses, and clamped at zero like the server's conservation
// ledger.
func realizedValue(o client.TxOpts, elapsed time.Duration) float64 {
	return max(0, o.Fn(0).At(elapsed.Seconds()))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Book accounts one transaction's final outcome: err is its verdict,
// elapsed its observed completion latency, trace the reply's trace=
// timeline ("" when it carried none — sheds and errors never do).
func (r *Result) Book(o client.TxOpts, err error, elapsed time.Duration, trace string) {
	r.Requests++
	r.MaxValue += o.Value
	if o.Trace {
		r.TraceSampled++
	}
	switch {
	case err == nil:
		r.Committed++
		r.lat.Add(ms(elapsed))
		if o.Deadline > 0 && elapsed > o.Deadline {
			r.missed++
			r.tardiness += (elapsed - o.Deadline).Seconds()
		}
		r.ValueSum += realizedValue(o, elapsed)
	case errors.Is(err, client.ErrShed):
		r.Shed++
	default:
		r.Errors++
	}
	// Malformed or empty tokens parse to nil and are dropped.
	if events := obs.ParseTrace(trace); len(events) > 0 {
		r.TraceCarried++
		for _, e := range events {
			r.stage(e.Stage).Add(ms(e.At))
		}
	}
}

func (r *Result) stage(name string) *stats.Sample {
	s := r.stages[name]
	if s == nil {
		s = stats.NewSample(0, 0)
		r.stages[name] = s
	}
	return s
}

// Merge folds o's counters into r.
func (r *Result) Merge(o *Result) {
	r.Requests += o.Requests
	r.Committed += o.Committed
	r.Shed += o.Shed
	r.Errors += o.Errors
	r.ValueSum += o.ValueSum
	r.MaxValue += o.MaxValue
	r.TraceSampled += o.TraceSampled
	r.TraceCarried += o.TraceCarried
	r.missed += o.missed
	r.tardiness += o.tardiness
	for _, x := range o.lat.Raw() {
		r.lat.Add(x)
	}
	for name, s := range o.stages {
		for _, x := range s.Raw() {
			r.stage(name).Add(x)
		}
	}
}

// Finish derives the summary measures from the counters, for a run that
// took elapsed.
func (r *Result) Finish(elapsed time.Duration) {
	r.ElapsedSec = elapsed.Seconds()
	if elapsed > 0 {
		r.Throughput = float64(r.Committed) / elapsed.Seconds()
	}
	if r.Committed > 0 {
		// Guarded: an empty sample's percentiles are NaN, which JSON
		// cannot carry.
		ps := r.lat.Percentiles(50, 99)
		r.P50Ms, r.P99Ms, r.MeanMs = ps[0], ps[1], r.lat.Mean()
		r.MissedPct = 100 * float64(r.missed) / float64(r.Committed)
		r.TardinessMs = 1000 * r.tardiness / float64(r.Committed)
	}
	if r.MaxValue > 0 {
		r.ValuePct = 100 * r.ValueSum / r.MaxValue
	}
	if len(r.stages) > 0 {
		r.Stages = make(map[string]StageRow, len(r.stages))
		for name, s := range r.stages {
			ps := s.Percentiles(50, 99)
			r.Stages[name] = StageRow{N: int(s.N()), P50Ms: ps[0], P99Ms: ps[1]}
		}
	}
}
