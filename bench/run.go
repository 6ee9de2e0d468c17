package main

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// runOpts is what one workload run is parameterised by.
type runOpts struct {
	seed     int64
	window   time.Duration // the timed window (--seconds)
	outDir   string
	twoClass bool // hot_shard -values two_class: the engine-hang repro
	probes   bool // traced runs also run the layer probe
}

// auditResult is one correctness check of a finished run.
type auditResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is one run of one workload: the untraced run carries the
// end-to-end metrics, the traced run the per-layer ones.
type runResult struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int64
	Failed    int64
	Correct   bool
	Audits    []auditResult
	Metrics   metricSet
	Samples   int    // committed transactions whose latency was recorded
	TraceFile string // traced runs: where the span trees went
}

// setupRepeats is how many times the untraced run sets up (all but the
// last torn down again) so setup_s is a median, not one draw.
const setupRepeats = 9

// timedSlices is how many equal slices the timed window is cut into. Each
// end-to-end metric is computed per slice and reported as its quartile
// over slices on the better side (quietOf). Half a second at 20 s is
// still 5 000 samples on the slowest workload.
const timedSlices = 40

func warmup(window time.Duration) time.Duration { return window / 10 }

// runUntraced measures the end-to-end metrics: set-up (repeated, median),
// warm-up, the sliced timed window with tracing off, audits.
func runUntraced(wl *workload, o runOpts) (*runResult, error) {
	var e *env
	setups := make([]time.Duration, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.teardown()
		}
		start := time.Now()
		var err error
		if e, err = setup(wl, o.outDir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })

	phases := []phase{{dur: warmup(o.window)}}
	for i := 0; i < timedSlices; i++ {
		phases = append(phases, phase{dur: o.window / timedSlices, record: true})
	}
	dr := drive(e, o.seed, phases, o.twoClass, o.outDir)
	res := &runResult{Workload: wl.name, Seed: o.seed}
	slices := make([]metricSet, 0, timedSlices)
	for i := range dr.phases[1:] {
		pr := &dr.phases[1+i]
		res.Attempted += pr.sink.attempted
		res.Failed += pr.sink.failed
		res.Samples += len(pr.sink.lat)
		if pr.sink.commits > 0 {
			slices = append(slices, endToEnd(pr))
		}
	}
	res.Metrics = quietOf(slices)
	res.Metrics.put("setup_s", setups[len(setups)/2].Seconds(), "s")
	finish(e, dr, res)
	return res, nil
}

// runTraced measures the per-layer metrics in one drive: an untraced
// phase for the counters and the client-side tail, a phase with trace=1
// on every request for the stage budget, and a second untraced phase so
// that the throughput tracing is compared against brackets the traced
// phase (drift over the run cancels instead of reading as overhead).
// Then, optionally, the layer probe.
func runTraced(wl *workload, o runOpts) (*runResult, error) {
	e, err := setup(wl, o.outDir)
	if err != nil {
		return nil, err
	}
	dr := drive(e, o.seed, []phase{
		{dur: warmup(o.window)},
		{dur: o.window / 4, record: true},
		{dur: o.window / 2, record: true, trace: true},
		{dur: o.window / 4, record: true},
	}, o.twoClass, o.outDir)
	plain, traced, plain2 := &dr.phases[1], &dr.phases[2], &dr.phases[3]
	res := &runResult{
		Workload: wl.name, Seed: o.seed, Traced: true,
		Samples: len(plain.sink.lat),
		Metrics: layerCounters(wl, plain),
	}
	for _, p := range dr.phases[1:] {
		res.Attempted += p.sink.attempted
		res.Failed += p.sink.failed
	}
	untracedTPS := ratio(float64(plain.sink.commits+plain2.sink.commits), (plain.elapsed + plain2.elapsed).Seconds())
	tracedTPS := ratio(float64(traced.sink.commits), traced.elapsed.Seconds())
	// A request sent with trace=1 at the end of the traced phase gets its
	// verdict, and is booked, in the phase after it.
	budget, spans := analyzeTraces(append(traced.sink.traces, plain2.sink.traces...))
	res.Metrics.merge(layerTrace(budget, untracedTPS, tracedTPS))
	finish(e, dr, res)
	if res.TraceFile, err = writeTraceFile(o.outDir, wl.name, budget.n, spans); err != nil {
		return nil, err
	}
	if o.probes {
		probes, err := runProbes(o.outDir)
		if err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
		res.Metrics.merge(probes)
	}
	return res, nil
}

// finish audits the run, tears the environment down and settles the
// verdict: any failed audit makes every attempt count as failed.
func finish(e *env, dr *driveResult, res *runResult) {
	if dr.hung {
		// No audit can run against a wedged server, and Close would wait
		// on its handlers forever: the server is abandoned as it stands.
		res.Audits = []auditResult{{Name: "watchdog", Detail: fmt.Sprintf(
			"no verdict for %v; goroutine dump: %s", watchdogAfter, dr.dump)}}
		e.removeData()
	} else {
		res.Audits = audit(e, dr)
		e.teardown()
	}
	res.Correct = true
	for _, a := range res.Audits {
		res.Correct = res.Correct && a.OK
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
}

// audit checks the finished run against the client's own books:
// conservation (the balanced deltas cancel; single_key's increments sum
// to its commits), the per-key ledger of acked deltas, and the server's
// commit count. A durable run is then closed, recovered from its data
// directory, and checked again.
func audit(e *env, dr *driveResult) []auditResult {
	var out []auditResult
	add := func(name string, err error) {
		a := auditResult{Name: name, OK: err == nil}
		if err != nil {
			a.Detail = err.Error()
		}
		out = append(out, a)
	}
	wantSum := int64(0)
	if e.wl.sumIsCommits {
		wantSum = dr.total
	}

	sum, err := e.muxes[0].Sum(e.keys...)
	if err == nil && sum != wantSum {
		err = fmt.Errorf("SUM over %d keys = %d, want %d", len(e.keys), sum, wantSum)
	}
	add("conservation", err)
	add("ledger", checkLedger(dr.ledger, e.keys, func(k string) (int64, error) {
		v, _, err := e.muxes[0].Get(k)
		return v, err
	}))
	if got := e.srv.Store().Stats().TotalCommits() - e.baseCommits; got != dr.total {
		err = fmt.Errorf("server counted %d commits, clients %d", got, dr.total)
	} else {
		err = nil
	}
	add("commit_count", err)

	if e.wl.durable {
		e.closeServer()
		add("recovery", auditRecovery(e, dr, wantSum))
	}
	return out
}

// checkLedger compares every key's stored value with the sum of deltas
// the clients saw acknowledged for it. Reads are spread over a few
// goroutines so pipelined transports overlap them.
func checkLedger(ledger []int64, keys []string, get func(string) (int64, error)) error {
	const readers = 16
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < len(keys) && errs[r] == nil; i += readers {
				got, err := get(keys[i])
				if err == nil && got != ledger[i] {
					err = fmt.Errorf("key %s = %d, acked deltas sum to %d", keys[i], got, ledger[i])
				}
				errs[r] = err
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// auditRecovery re-opens the durable run's data directory in a fresh
// server and repeats conservation and the ledger on the recovered state.
func auditRecovery(e *env, dr *driveResult, wantSum int64) error {
	srv, err := server.Open(serverConfig(e.dataDir))
	if err != nil {
		return fmt.Errorf("re-open %s: %w", e.dataDir, err)
	}
	defer srv.Close()
	if srv.Durable().RecoveredIndex() == 0 {
		return fmt.Errorf("re-open recovered no records")
	}
	read := func(k string) (int64, error) {
		v, _ := srv.Store().Get(k)
		n, _ := strconv.ParseInt(string(v), 10, 64) // absent reads as 0, like the server
		return n, nil
	}
	var sum int64
	for _, k := range e.keys {
		v, _ := read(k)
		sum += v
	}
	if sum != wantSum {
		return fmt.Errorf("recovered SUM = %d, want %d", sum, wantSum)
	}
	return checkLedger(dr.ledger, e.keys, read)
}

// printMetrics prints each metric of a run by name with its unit.
func printMetrics(res *runResult) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Printf("== %s  seed=%d  %s  attempted=%d failed=%d samples=%d\n",
		res.Workload, res.Seed, kind, res.Attempted, res.Failed, res.Samples)
	for _, n := range res.Metrics.names() {
		fmt.Printf("  %-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, a := range res.Audits {
		verdict := "PASS"
		if !a.OK {
			verdict = "FAIL " + a.Detail
		}
		fmt.Printf("  audit %-20s %s\n", a.Name, verdict)
	}
	if res.TraceFile != "" {
		fmt.Printf("  spans written to %s\n", res.TraceFile)
	}
}
