package main

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/shard"
)

// metric is one reported number; the name fixes its unit in BENCHMARK.json.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

func (m metricSet) merge(o metricSet) {
	for n, v := range o {
		m[n] = v
	}
}

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// highestSupported returns the highest quantile (as a fraction) that n
// samples support: the one with minBeyond samples beyond it. Below
// 2*minBeyond samples only the median is supported.
func highestSupported(n int) float64 {
	if n < 2*minBeyond {
		return 0.5
	}
	return 1 - float64(minBeyond)/float64(n)
}

// quantile returns the nearest-rank q-quantile of sorted, with q capped
// at the highest quantile the sample count supports — a p99.9 asked of a
// thousand samples answers with their p99, never with their maximum.
func quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if hs := highestSupported(n); q > hs {
		q = hs
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// counters is one reading of every cumulative count the per-layer
// metrics are ratios of. Two readings bracket a recorded phase.
type counters struct {
	store  shard.Stats
	adm    server.AdmissionStats
	dur    durable.Stats
	series map[string]float64 // the server registry's exposition, by series
	cpu    time.Duration      // process user+system CPU
	mem    runtime.MemStats
}

func readCounters(srv *server.Server) counters {
	c := counters{store: srv.Store().Stats(), adm: srv.Admission().Stats()}
	if d := srv.Durable(); d != nil {
		c.dur = d.Stats()
	}
	var buf bytes.Buffer
	srv.Metrics().Expose(&buf)
	c.series = parseExposition(buf.String())
	c.cpu = cpuTime()
	runtime.ReadMemStats(&c.mem)
	return c
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// parseExposition maps each series of a Prometheus text exposition
// ("name{labels} value") to its value.
func parseExposition(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// histQuantile estimates the q-quantile, in the histogram's exported
// unit, of the observations a cumulative-bucket histogram series gained
// between two expositions. prefix is the series up to the le label, e.g.
// `scc_request_seconds_bucket{verb="upd",le="`. Buckets are powers of
// two, so the estimate interpolates geometrically inside the bucket.
func histQuantile(before, after map[string]float64, prefix string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for k, v := range after {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		leStr, _, _ := strings.Cut(rest, `"`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total <= 0 {
		return 0
	}
	rank := q * total
	for i, b := range bs {
		if b.cum < rank {
			continue
		}
		if math.IsInf(b.le, 1) {
			return bs[i-1].le
		}
		lo, below := b.le/2, 0.0
		if i > 0 {
			below = bs[i-1].cum
		}
		frac := (rank - below) / (b.cum - below)
		return lo * math.Pow(b.le/lo, frac)
	}
	return bs[len(bs)-1].le
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd derives the user-visible metrics from one recorded phase.
func endToEnd(pr *phaseResult) metricSet {
	m := metricSet{}
	s := &pr.sink
	m.put("throughput_tps", ratio(float64(s.commits), pr.elapsed.Seconds()), "1/s")
	m.put("latency_p50_ms", quantile(s.lat, 0.50)/1e6, "ms")
	m.put("latency_p95_ms", quantile(s.lat, 0.95)/1e6, "ms")
	cpu := pr.after.cpu - pr.before.cpu
	m.put("cpu_us_per_txn", ratio(float64(cpu.Microseconds()), float64(s.commits)), "us")
	return m
}

// higherIsBetter names the end-to-end metrics that improve upwards; the
// rest improve downwards. BENCHMARK.json says the same (a test compares).
var higherIsBetter = map[string]bool{"throughput_tps": true}

// quietOf returns, for every metric of the slices, the quartile of its
// values on the metric's better side. The other tenants of a shared host
// only ever slow a slice down, for seconds at a time and by up to a
// third, so the better quartile is a steadier reading of the program
// than the median, which flips between the two levels with the share of
// the window the host was busy.
func quietOf(slices []metricSet) metricSet {
	out := metricSet{}
	if len(slices) == 0 {
		return out
	}
	for name, first := range slices[0] {
		vals := make([]float64, 0, len(slices))
		for _, s := range slices {
			vals = append(vals, s[name].Value)
		}
		q1, _, q3 := quartiles(vals)
		if higherIsBetter[name] {
			q1 = q3
		}
		out.put(name, q1, first.Unit)
	}
	return out
}

// failedPct is errors + SHED + watchdog-abandoned over attempted.
func failedPct(s *sink) float64 {
	return 100 * ratio(float64(s.failed), float64(s.attempted))
}

// layerCounters derives the per-layer ratios from the two counter
// readings that bracket a recorded phase, plus the client-side tail.
func layerCounters(wl *workload, pr *phaseResult) metricSet {
	m := metricSet{}
	b, a := &pr.before, &pr.after
	s := &pr.sink
	d := func(x, y int64) float64 { return float64(y - x) }

	eng0, eng1 := b.store.Engine, a.store.Engine
	commits := d(b.store.TotalCommits(), a.store.TotalCommits())
	engCommits := d(eng0.Commits, eng1.Commits)
	forks := d(eng0.Forks, eng1.Forks)
	m.put("engine.forks_per_commit", ratio(forks, engCommits), "ratio")
	m.put("engine.promotions_per_fork", ratio(d(eng0.Promotions, eng1.Promotions), forks), "ratio")
	m.put("engine.restarts_per_commit", ratio(d(eng0.Restarts, eng1.Restarts), engCommits), "ratio")
	m.put("engine.aborts_per_commit", ratio(d(eng0.Aborts, eng1.Aborts), engCommits), "ratio")
	scans := a.series["scc_conflict_key_scans_total"] - b.series["scc_conflict_key_scans_total"]
	m.put("engine.conflict_scans_per_commit", ratio(scans, engCommits), "ratio")
	m.put("engine.commits_per_batch", ratio(engCommits, d(eng0.CommitBatches, eng1.CommitBatches)), "ratio")

	cross := d(b.store.CrossCommits, a.store.CrossCommits)
	// FastPath counts at routing time and CrossCommits at commit time, so
	// the share is over their sum, not over the commit counter (which
	// trails the router by whatever is in flight).
	fast := d(b.store.FastPath, a.store.FastPath)
	m.put("shard.fast_path_share", ratio(fast, fast+cross), "ratio")
	m.put("shard.cross_restarts_per_commit", ratio(d(b.store.CrossRestarts, a.store.CrossRestarts), cross), "ratio")
	m.put("shard.cross_batches_per_commit", ratio(d(b.store.CrossBatches, a.store.CrossBatches), cross), "ratio")

	m.put("admission.queue_depth_max", float64(pr.depthMax), "count")
	m.put("admission.shed_per_attempt", ratio(d(b.adm.Shed, a.adm.Shed), float64(s.attempted)), "ratio")
	m.put("admission.op_time_us", a.adm.OpTime*1e6, "us")

	m.put("durable.wal_appends_per_commit", ratio(d(b.dur.WALAppends, a.dur.WALAppends), commits), "ratio")
	m.put("durable.fsyncs_per_commit", ratio(d(b.dur.WALFsyncs, a.dur.WALFsyncs), commits), "ratio")
	m.put("durable.intents_per_commit", ratio(d(b.dur.Intents, a.dur.Intents), commits), "ratio")
	m.put("durable.checkpoints", d(b.dur.Checkpoints, a.dur.Checkpoints), "count")

	verb := "upd"
	if wl.session {
		verb = "txn"
	}
	prefix := `scc_request_seconds_bucket{verb="` + verb + `",le="`
	m.put("server.request_p50_us", histQuantile(b.series, a.series, prefix, 0.50)*1e6, "us")
	m.put("server.request_p99_us", histQuantile(b.series, a.series, prefix, 0.99)*1e6, "us")

	m.put("proc.allocs_per_txn", ratio(float64(a.mem.Mallocs-b.mem.Mallocs), float64(s.commits)), "count")
	m.put("proc.gc_pause_ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, "ms")
	m.put("proc.heap_inuse_mb", float64(a.mem.HeapInuse)/(1<<20), "MB")

	m.put("client.latency_p99_ms", quantile(s.lat, 0.99)/1e6, "ms")
	m.put("client.latency_p999_ms", quantile(s.lat, 0.999)/1e6, "ms")
	max := 0.0
	if n := len(s.lat); n > 0 {
		max = float64(s.lat[n-1])
	}
	m.put("client.latency_max_ms", max/1e6, "ms")
	m.put("client.samples", float64(len(s.lat)), "count")
	m.put("client.failed_pct", failedPct(s), "%")
	m.put("client.missed_deadline_pct", 100*ratio(float64(s.missed), float64(s.attempted)), "%")
	m.put("client.value_realized_pct", 100*ratio(s.valueRealized, reqValue*float64(s.attempted)), "%")
	return m
}
