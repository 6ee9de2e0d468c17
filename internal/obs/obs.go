// Package obs is the telemetry substrate: a zero-dependency metrics
// registry (atomic counters and log-scale latency histograms)
// plus the per-transaction lifecycle trace (trace.go). Everything here
// is built to be cheap enough for the engine's per-operation hot path —
// an observation is one or two uncontended atomic adds, no maps, no
// locks, no allocation — following the main-memory-OLTP rule that
// instrumentation must be near-free or it distorts exactly the
// latencies it measures.
//
// The registry renders in Prometheus text exposition format; the server
// surfaces it over HTTP (sccserve -metrics-addr, GET /metrics). Metric families expose in registration
// order, labeled series within a family in first-use order, so output
// is deterministic for the conformance tests. docs/ARCHITECTURE.md
// ("Observability") describes the design; docs/PROTOCOL.md lists every
// exported family normatively.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them. Registration is
// expected at startup (it takes a lock and panics on a duplicate name);
// observations on the returned handles are lock-free.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one exposition block: # HELP / # TYPE plus its series.
type family struct {
	name, help, kind string
	labelKey         string

	mu     sync.Mutex
	order  []string          // label values, first-use order
	series map[string]series // by label value ("" for unlabeled)
}

// series is one time series (or histogram) inside a family.
type series interface {
	expose(w io.Writer, fam *family, label string)
}

func (r *Registry) register(name, help, kind, labelKey string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	f := &family{name: name, help: help, kind: kind, labelKey: labelKey,
		series: make(map[string]series)}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

func (f *family) add(label string, s series) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.series[label]; dup {
		panic("obs: duplicate series " + f.name + "{" + f.labelKey + "=" + label + "}")
	}
	f.order = append(f.order, label)
	f.series[label] = s
}

// get returns the series for label, creating it with mk on first use.
func (f *family) get(label string, mk func() series) series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[label]; ok {
		return s
	}
	s := mk()
	f.order = append(f.order, label)
	f.series[label] = s
	return s
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) expose(w io.Writer, fam *family, label string) {
	fmt.Fprintf(w, "%s%s %d\n", fam.name, labelPart(fam, label), c.Value())
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", "").add("", c)
	return c
}

// FloatCounter is a monotonically increasing float64 (value accounting
// is in value units, not integers). Add is a CAS loop on the bit
// pattern — wait-free in practice at our update rates.
type FloatCounter struct{ bits atomic.Uint64 }

// Add adds v; negative or non-finite contributions are dropped
// (counters only go up, and one NaN must not poison the series).
func (f *FloatCounter) Add(v float64) {
	if !(v > 0) || math.IsInf(v, 0) {
		return
	}
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (f *FloatCounter) Value() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *FloatCounter) expose(w io.Writer, fam *family, label string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, labelPart(fam, label), formatFloat(f.Value()))
}

// FloatCounterVec is a family of float counters keyed by one label —
// the shape of per-stage lost-value accounting.
type FloatCounterVec struct{ fam *family }

// FloatCounterVec registers a float counter family with one label key.
func (r *Registry) FloatCounterVec(name, help, labelKey string) *FloatCounterVec {
	return &FloatCounterVec{fam: r.register(name, help, "counter", labelKey)}
}

// With returns the float counter for the given label value.
func (v *FloatCounterVec) With(label string) *FloatCounter {
	return v.fam.get(label, func() series { return &FloatCounter{} }).(*FloatCounter)
}

// FloatCounter registers an unlabeled float counter.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	c := &FloatCounter{}
	r.register(name, help, "counter", "").add("", c)
	return c
}

// funcSeries samples fn at exposition time — the bridge from existing
// mutex-guarded stats structs (engine, durable, admission) into the
// registry without double-counting on the hot path.
type funcSeries struct{ fn func() float64 }

func (s funcSeries) expose(w io.Writer, fam *family, label string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, labelPart(fam, label), formatFloat(s.fn()))
}

// CounterFunc registers a counter whose value is sampled from fn at
// exposition time. fn must be monotonic (it mirrors an existing
// cumulative stat) and safe to call from any goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", "").add("", funcSeries{fn})
}

// Expose renders every family in Prometheus text exposition format
// (version 0.0.4): registration order, series in first-use order.
func (r *Registry) Expose(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.mu.Lock()
		order := make([]string, len(f.order))
		copy(order, f.order)
		f.mu.Unlock()
		for _, label := range order {
			f.mu.Lock()
			s := f.series[label]
			f.mu.Unlock()
			s.expose(w, f, label)
		}
	}
}

func labelPart(fam *family, label string) string {
	if fam.labelKey == "" {
		return ""
	}
	return "{" + fam.labelKey + "=" + strconv.Quote(label) + "}"
}

// formatFloat renders a sample the way Prometheus clients do: shortest
// round-trip representation, integral values without an exponent.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
