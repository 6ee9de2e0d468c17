package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

const smokeWindow = 300 * time.Millisecond

// manifest is BENCHMARK.json as the benchmark driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bounded `json:"end_to_end"`
	PerLayer []bounded `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	var m manifest
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkNames fails unless the run reported exactly the manifest's metrics,
// each with the manifest's unit.
func checkNames(t *testing.T, kind string, want []bounded, got metricSet) {
	t.Helper()
	for _, w := range want {
		g, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is in BENCHMARK.json but was not reported", kind, w.Name)
		case g.Unit != w.Unit:
			t.Errorf("%s metric %s: reported unit %q, BENCHMARK.json says %q", kind, w.Name, g.Unit, w.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s metric %s = %v", kind, w.Name, g.Value)
		}
	}
	if len(got) != len(want) {
		have := map[string]bool{}
		for _, w := range want {
			have[w.Name] = true
		}
		for _, n := range got.names() {
			if !have[n] {
				t.Errorf("%s metric %s was reported but is not in BENCHMARK.json", kind, n)
			}
		}
	}
}

func checkAudits(t *testing.T, res *runResult) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, a := range res.Audits {
		if !a.OK {
			t.Errorf("audit %s failed: %s", a.Name, a.Detail)
		}
	}
}

// TestSmokeWorkloads drives every workload briefly with audits on and
// checks that each one puts the layer it exists for to work and leaves
// the layer it bypasses idle.
func TestSmokeWorkloads(t *testing.T) {
	t.Parallel()
	mf := readManifest(t)
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(mf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if mf.Workloads[i].Name != wl.name || mf.Workloads[i].Why != wl.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's is %q (%q)",
				i, mf.Workloads[i].Name, mf.Workloads[i].Why, wl.name, wl.why)
		}
		t.Run(wl.name, func(t *testing.T) {
			res, err := runTraced(wl, runOpts{seed: 1, window: smokeWindow, outDir: t.TempDir(), probes: wl.name == "single_key"})
			if err != nil {
				t.Fatal(err)
			}
			checkAudits(t, res)
			m := res.Metrics
			if wl.name == "single_key" {
				checkNames(t, "per-layer", mf.PerLayer, m)
			}
			if m["trace.samples"].Value == 0 {
				t.Error("no traced request produced spans")
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("span file: %v", err)
			}
			hot := wl.name == "hot_shard" || wl.name == "session_hot"
			if hot && (m["engine.forks_per_commit"].Value <= 0 || m["engine.promotions_per_fork"].Value <= 0) {
				t.Errorf("contended workload forked %v per commit, promoted %v per fork",
					m["engine.forks_per_commit"].Value, m["engine.promotions_per_fork"].Value)
			}
			switch share := m["shard.fast_path_share"].Value; {
			case wl.name == "cross_uniform" || wl.name == "durable_cross":
				if share >= 0.01 {
					t.Errorf("fast_path_share = %v on a cross-shard workload", share)
				}
			case share != 1:
				t.Errorf("fast_path_share = %v on a single-shard workload", share)
			}
			for _, n := range []string{"durable.wal_appends_per_commit", "durable.intents_per_commit"} {
				if (m[n].Value > 0) != wl.durable {
					t.Errorf("%s = %v with durable=%v", n, m[n].Value, wl.durable)
				}
			}
		})
	}
}

// TestUntracedRun checks the end-to-end side: repeated set-up, the sliced
// timed window, and the metric names of the manifest.
func TestUntracedRun(t *testing.T) {
	t.Parallel()
	res, err := runUntraced(findWorkload("durable_cross"), runOpts{seed: 2, window: smokeWindow, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	checkAudits(t, res)
	mf := readManifest(t)
	checkNames(t, "end-to-end", mf.EndToEnd, res.Metrics)
	for _, b := range mf.EndToEnd {
		if higherIsBetter[b.Name] != (b.Better == "higher") {
			t.Errorf("%s: BENCHMARK.json says better=%s, higherIsBetter says %v", b.Name, b.Better, higherIsBetter[b.Name])
		}
	}
	for n, v := range res.Metrics {
		if v.Value <= 0 {
			t.Errorf("%s = %v, end-to-end metrics are never 0", n, v.Value)
		}
	}
}

func TestQuantilePicker(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {20, 0.5}, {100, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := quantile(sorted, 0.5); got != 500 {
		t.Errorf("median of 1..1000 = %v", got)
	}
	if got := quantile(sorted, 0.95); got != 950 {
		t.Errorf("p95 of 1..1000 = %v", got)
	}
	// p99.9 of a thousand samples has one sample beyond it: the picker
	// answers with p99, which has ten.
	if got := quantile(sorted, 0.999); got != 990 {
		t.Errorf("p99.9 of 1..1000 = %v, want the p99 (990)", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 0, Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"overlapping children count once", []span{{Start: 120, End: 150}, {Start: 140, End: 160}}, 60},
		{"children clipped to the parent", []span{{Start: 50, End: 110}, {Start: 190, End: 400}}, 80},
		{"child covering the parent", []span{{Start: 0, End: 1000}}, 0},
		{"nested order does not matter", []span{{Start: 170, End: 180}, {Start: 110, End: 175}}, 30},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBuildSpans(t *testing.T) {
	token := "e42;enqueue:0,admit:1000,fork:1500,park:2000,resume:5000,promotion:5500,install:6000,commit:9000"
	spans := buildSpans(7, 15*time.Microsecond, token)
	if spans == nil {
		t.Fatal("token did not parse")
	}
	byName := map[string]span{}
	for _, s := range spans {
		if s.Req != 7 {
			t.Errorf("span %s carries request id %d", s.Name, s.Req)
		}
		byName[s.Name] = s
	}
	// The server's 9 µs are centred in the client's 15 µs.
	for name, want := range map[string][2]int64{
		spanClient: {0, 15000}, spanServer: {3000, 12000}, spanAdmitWait: {3000, 4000},
		spanExec: {4000, 9000}, spanPark: {5000, 8000}, spanSyncWait: {9000, 12000},
		"engine.fork": {4500, 4500}, "engine.promotion": {8500, 8500},
	} {
		if got := byName[name]; got.Start != want[0] || got.End != want[1] {
			t.Errorf("%s = [%d, %d], want %v", name, got.Start, got.End, want)
		}
	}
	if byName[spanPark].Parent != byName[spanExec].ID || byName[spanExec].Parent != byName[spanServer].ID {
		t.Error("park must hang under exec, exec under the server span")
	}
	self := selfTimes(spans)
	for name, want := range map[string]int64{
		spanClient: 6000, spanServer: 0, spanAdmitWait: 1000, spanExec: 2000, spanPark: 3000, spanSyncWait: 3000,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
	var total int64
	for _, v := range self {
		total += v
	}
	if total != 15000 {
		t.Errorf("self times sum to %d, the root lasted 15000", total)
	}

	if buildSpans(0, time.Millisecond, "enqueue:0,admit:5") != nil {
		t.Error("a token without a commit stamp has no spans")
	}
	if buildSpans(0, time.Millisecond, "garbage") != nil {
		t.Error("a malformed token has no spans")
	}
	// A server total above the client's elapsed time stretches the root
	// instead of producing negative wire time.
	if s := buildSpans(0, 5*time.Microsecond, "enqueue:0,admit:1000,install:2000,commit:6000"); s[0].End != 6000 || selfTimes(s)[spanClient] != 0 {
		t.Errorf("root = %+v", s[0])
	}
}

func TestQuartiles(t *testing.T) {
	// The values Python's statistics.quantiles(v, n=4) returns.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestQuietOf(t *testing.T) {
	var slices []metricSet
	for i := 1; i <= 10; i++ {
		slices = append(slices, metricSet{
			"throughput_tps": {float64(i), "1/s"},
			"latency_p50_ms": {float64(i), "ms"},
		})
	}
	got := quietOf(slices)
	if got["throughput_tps"] != (metric{8.25, "1/s"}) || got["latency_p50_ms"] != (metric{2.75, "ms"}) {
		t.Errorf("quietOf = %v, want the upper quartile of throughput and the lower of latency", got)
	}
}

func TestJudge(t *testing.T) {
	lower := bounded{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := bounded{Name: "throughput_tps", Better: "higher", Bound: 0.10}
	setup := bounded{Name: "setup_s", Better: "lower", Bound: 0.25}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	for _, c := range []struct {
		name       string
		b          bounded
		base, cand []float64
		want       verdict
	}{
		{"within the bound", lower, steady(1.0), steady(1.08), verdictOK},
		{"worse by more than the bound", lower, steady(1.0), steady(1.2), verdictRegressed},
		{"better is never a regression", lower, steady(1.0), steady(0.5), verdictOK},
		{"higher-is-better drops", higher, steady(1000), steady(850), verdictRegressed},
		{"higher-is-better rises", higher, steady(1000), steady(1500), verdictOK},
		{"relative miss below the absolute floor", setup, steady(0.05), steady(0.09), verdictOK},
		{"relative miss above the absolute floor", setup, steady(1.0), steady(1.5), verdictRegressed},
		{"spread wider than the bound", lower, []float64{1, 1.3, 0.8, 1.1, 0.9}, steady(1.0), verdictUnresolved},
		{"single runs have no spread", lower, []float64{1.0}, []float64{1.05}, verdictOK},
	} {
		if got, _, _ := judge(c.b, c.base, c.cand); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if v, _ := judgeFailed([]float64{0, 0, 0}, []float64{0, 0.05, 0}); v != verdictOK {
		t.Errorf("failed_pct within 0.1 pp: %s", v)
	}
	if v, _ := judgeFailed([]float64{0}, []float64{0.5}); v != verdictRegressed {
		t.Errorf("failed_pct up 0.5 pp: %s", v)
	}
}

func TestHistQuantile(t *testing.T) {
	const p = `h_bucket{verb="upd",le="`
	before := map[string]float64{p + `1"}`: 10, p + `2"}`: 10, p + `4"}`: 10, p + `+Inf"}`: 10}
	after := map[string]float64{p + `1"}`: 10, p + `2"}`: 110, p + `4"}`: 210, p + `+Inf"}`: 210}
	// 200 new observations: 100 in (1,2], 100 in (2,4]. The median is the
	// top of the first of those buckets.
	if got := histQuantile(before, after, p, 0.5); math.Abs(got-2) > 1e-9 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := histQuantile(before, after, p, 0.75); got <= 2 || got >= 4 {
		t.Errorf("p75 = %v, want inside (2,4)", got)
	}
	if got := histQuantile(before, before, p, 0.5); got != 0 {
		t.Errorf("no new observations: %v", got)
	}
}
