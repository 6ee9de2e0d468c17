package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("scc_test_total", "test counter")
	c.Inc()
	c.Add(2)
	v := r.FloatCounterVec("scc_test_by_verb_total", "labeled", "verb")
	v.With("GET").Add(5)
	v.With("PUT").Add(1)
	var b strings.Builder
	r.Expose(&b)
	want := "# HELP scc_test_total test counter\n" +
		"# TYPE scc_test_total counter\n" +
		"scc_test_total 3\n" +
		"# HELP scc_test_by_verb_total labeled\n" +
		"# TYPE scc_test_by_verb_total counter\n" +
		"scc_test_by_verb_total{verb=\"GET\"} 5\n" +
		"scc_test_by_verb_total{verb=\"PUT\"} 1\n"
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestFloatCounter(t *testing.T) {
	var f FloatCounter
	f.Add(1.5)
	f.Add(2.25)
	f.Add(-3)          // dropped: counters only go up
	f.Add(math.NaN())  // dropped
	f.Add(math.Inf(1)) // dropped
	if got := f.Value(); got != 3.75 {
		t.Errorf("FloatCounter.Value = %v, want 3.75", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("scc_test_seconds", "test", 10, 12, 1e-9)
	// Buckets: le=1024ns, 2048ns, 4096ns, +Inf.
	for _, v := range []int64{0, 1, 1024} { // all ≤ 2^10
		h.Observe(v)
	}
	h.Observe(1025) // (2^10, 2^11]
	h.Observe(2048) // still (2^10, 2^11]: exact powers belong down
	h.Observe(4097) // above 2^12 → +Inf
	h.Observe(1 << 40)

	var b strings.Builder
	r.Expose(&b)
	out := b.String()
	for _, line := range []string{
		`scc_test_seconds_bucket{le="1.024e-06"} 3`,
		`scc_test_seconds_bucket{le="2.048e-06"} 5`,
		`scc_test_seconds_bucket{le="4.096e-06"} 5`,
		`scc_test_seconds_bucket{le="+Inf"} 7`,
		`scc_test_seconds_count 7`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestHistogramVecSharesLayout(t *testing.T) {
	r := NewRegistry()
	v := r.NsHistogramVec("scc_test_stage_seconds", "per stage", "stage")
	v.With("park").Observe(int64(50 * time.Microsecond))
	v.With("commit").Observe(int64(2 * time.Millisecond))
	var b strings.Builder
	r.Expose(&b)
	out := b.String()
	if !strings.Contains(out, `scc_test_stage_seconds_bucket{stage="park",le="`) {
		t.Errorf("missing park series:\n%s", out)
	}
	if !strings.Contains(out, `scc_test_stage_seconds_count{stage="commit"} 1`) {
		t.Errorf("missing commit count:\n%s", out)
	}
}

func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("scc_test_func_total", "sampled", func() float64 { return 42 })
	var b strings.Builder
	r.Expose(&b)
	out := b.String()
	if !strings.Contains(out, "scc_test_func_total 42\n") {
		t.Errorf("counter func missing:\n%s", out)
	}
}

func TestDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("scc_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("scc_dup_total", "x")
}

func TestTraceRoundTrip(t *testing.T) {
	start := time.Now()
	tr := NewTrace(start)
	tr.EventAt(StageEnqueue, start)
	tr.EventAt(StageAdmit, start.Add(15*time.Microsecond))
	tr.EventAt(StageCommit, start.Add(2*time.Millisecond))
	s := tr.String()
	want := "enqueue:0,admit:15000,commit:2000000"
	if s != want {
		t.Fatalf("String = %q, want %q", s, want)
	}
	ev := ParseTrace(s)
	if len(ev) != 3 || ev[1].Stage != StageAdmit || ev[1].At != 15*time.Microsecond {
		t.Errorf("ParseTrace = %+v", ev)
	}
	if got := ParseTrace("garbage"); got != nil {
		t.Errorf("ParseTrace(garbage) = %v, want nil", got)
	}
	if strings.ContainsAny(s, " \t\n") {
		t.Errorf("wire form contains whitespace: %q", s)
	}
}

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	tr.Event(StagePark) // must not panic
	if tr.Snapshot() != nil || tr.String() != "" {
		t.Error("nil trace not inert")
	}
}

// TestConcurrentRegistry hammers every metric kind from many goroutines
// while exposition runs — the unit-level half of the -race stress
// satellite (the wire-level half lives in internal/server).
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("scc_conc_total", "x")
	fv := r.FloatCounterVec("scc_conc_value_total", "x", "stage")
	hv := r.NsHistogramVec("scc_conc_seconds", "x", "stage")
	stages := []string{StagePark, StageCommit, StageFork, StageRestart}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				st := stages[(g+i)%len(stages)]
				fv.With(st).Add(0.5)
				hv.With(st).Observe(int64(i))
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		r.Expose(&b)
	}
	wg.Wait()
	if c.Value() != 8*2000 {
		t.Errorf("counter = %d, want %d", c.Value(), 8*2000)
	}
	var total float64
	for _, st := range stages {
		total += fv.With(st).Value()
	}
	if total != 8*2000*0.5 {
		t.Errorf("float total = %v, want %v", total, 8*2000*0.5)
	}
}
