package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/opts"
)

// env is one booted server with its client connections and key set.
type env struct {
	wl      *workload
	srv     *server.Server
	served  chan error
	muxes   []*client.Mux
	keys    []string
	dataDir string
	// baseCommits is the server's commit count after the preload: the
	// commit-count audit measures from here.
	baseCommits int64
}

// setup boots an in-process server on loopback TCP, dials the Mux
// connections and preloads every key to 0: the uniform key set on every
// workload (so every server holds the same population), plus the hot keys
// where the workload runs over those. Its duration is setup_s.
func setup(wl *workload, outDir string) (*env, error) {
	e := &env{wl: wl}
	if wl.durable {
		dir, err := os.MkdirTemp(outDir, "data-")
		if err != nil {
			return nil, err
		}
		e.dataDir = dir
	}
	srv, err := server.Open(serverConfig(e.dataDir))
	if err != nil {
		e.removeData()
		return nil, fmt.Errorf("open server: %w", err)
	}
	e.srv = srv
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.teardown()
		return nil, err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- srv.Serve(lis) }()
	for i := 0; i < numConns; i++ {
		m, err := client.DialMuxTimeout(lis.Addr().String(), 5*time.Second)
		if err != nil {
			e.teardown()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.muxes = append(e.muxes, m)
	}
	population := uniformKeySet()
	e.keys = population
	if wl.hot {
		e.keys = hotKeySet(srv.Store())
		population = append(population, e.keys...)
	}
	if err := e.preload(population); err != nil {
		e.teardown()
		return nil, fmt.Errorf("preload: %w", err)
	}
	e.baseCommits = srv.Store().Stats().TotalCommits()
	return e, nil
}

// preload writes 0 to every key (w:k:0 creates the key), split across
// the connections in bursts below the server's pipeline depth.
func (e *env) preload(keys []string) error {
	const burst = 64
	errs := make(chan error, len(e.muxes))
	for c, m := range e.muxes {
		go func(c int, m *client.Mux) {
			reqs := make([]client.UpdateReq, 0, burst)
			flush := func() error {
				for _, r := range m.Batch(reqs) {
					if r.Err != nil {
						return r.Err
					}
				}
				reqs = reqs[:0]
				return nil
			}
			for i := c; i < len(keys); i += len(e.muxes) {
				reqs = append(reqs, client.UpdateReq{Ops: []client.Op{{Key: keys[i], Write: true}}})
				if len(reqs) == burst {
					if err := flush(); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- flush()
		}(c, m)
	}
	var first error
	for range e.muxes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// closeServer closes the client connections and the server and waits for
// the accept loop to end. The data directory is left in place.
func (e *env) closeServer() {
	for _, m := range e.muxes {
		m.Close()
	}
	e.muxes = nil
	if e.srv != nil {
		e.srv.Close()
		if e.served != nil {
			<-e.served
		}
		e.srv = nil
	}
}

func (e *env) removeData() {
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

func (e *env) teardown() {
	e.closeServer()
	e.removeData()
}

// phase is one stretch of a drive: the workers run through all phases
// without pausing, and each verdict is booked to the phase it arrived in.
type phase struct {
	dur    time.Duration
	record bool // keep samples and counters for this phase
	trace  bool // send trace=1 on every request
}

// sink collects one worker's verdicts for one phase.
type sink struct {
	attempted, commits, failed, missed int64
	valueRealized                      float64
	lat                                []int64 // ns, committed transactions only
	traces                             []tracedSample
}

type tracedSample struct {
	elapsed time.Duration
	trace   string
}

// worker is one closed-loop caller: it has one transaction (one-shot or
// interactive session) in flight and sends the next when that one's
// verdict is in. slotsPerConn workers share each connection. verdicts and
// inflight are read by the watchdog; the padding keeps neighbouring
// workers off one cache line.
type worker struct {
	verdicts atomic.Int64
	inflight atomic.Bool
	_        [48]byte
	rng      *rand.Rand
	sinks    []sink
	total    int64   // commits over all phases, for the commit-count audit
	ledger   []int64 // per key index: sum of acked deltas
}

// phaseResult is what one recorded phase measured.
type phaseResult struct {
	phase
	elapsed     time.Duration
	sink        sink // merged over workers; lat sorted
	before      counters
	after       counters
	depthMax    int
	outstanding int // requests abandoned by the watchdog
}

// driveResult is one full drive over all phases.
type driveResult struct {
	phases []phaseResult
	hung   bool
	dump   string // goroutine dump path when hung
	total  int64  // client-counted commits over all phases
	ledger []int64
}

const (
	phaseStopped  = -1
	watchdogAfter = 10 * time.Second
	// sampleRoom is the latency samples per second of recorded phase that
	// the workers' sinks have room for before the drive starts (the fastest
	// workload commits about 70 000/s here). Grown by append during the run
	// instead, the samples were the only thing growing in a heap of 2 MB:
	// the collector ran 85 times a second in the first timed second and 35
	// times in the last, and p95 fell by half over the window with it.
	sampleRoom = 128 << 10
)

// deadlineValue is the request value function anchored at submit time 0,
// evaluated client-side at the observed latency for value_realized_pct.
var deadlineValue = opts.T{Value: reqValue, Deadline: reqDeadline}.Fn(0)

// drive runs the workload's closed loop through phases and returns what
// each recorded phase measured. A watchdog abandons the drive when no
// verdict arrives for watchdogAfter.
func drive(e *env, seed int64, phases []phase, twoClass bool, outDir string) *driveResult {
	var cur atomic.Int32
	workers := make([]*worker, numConns*slotsPerConn)
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{
			rng:    rand.New(rand.NewSource(seed*1000003 + int64(i))),
			sinks:  make([]sink, len(phases)),
			ledger: make([]int64, len(e.keys)),
		}
		for p, ph := range phases {
			if ph.record {
				w.sinks[p].lat = make([]int64, 0, int(ph.dur.Seconds()*sampleRoom)/len(workers))
			}
		}
		workers[i] = w
		wg.Add(1)
		go func(m *client.Mux) {
			defer wg.Done()
			if e.wl.session {
				w.runSessions(e, m, phases, &cur)
			} else {
				w.runOneShot(e, m, phases, &cur, twoClass)
			}
		}(e.muxes[i%numConns])
	}

	res := &driveResult{phases: make([]phaseResult, len(phases))}
	done := make(chan struct{})
	hung := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { defer aux.Done(); watchdog(workers, done, hung) }()

	// The admission queue's depth is sampled, not counted: the queue
	// keeps no high-water mark of its own.
	var depthMax atomic.Int64
	go func() {
		defer aux.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if d := int64(e.srv.Admission().Stats().Depth); d > depthMax.Load() {
					depthMax.Store(d)
				}
			}
		}
	}()

	// Counters are read once per boundary: a recorded phase that follows
	// another starts from its predecessor's closing reading, and a phase's
	// length includes its own closing read, so no verdict falls between
	// two phases.
	aborted, abortedAt := false, len(phases)-1
	var prev *counters
	for i, ph := range phases {
		pr := &res.phases[i]
		pr.phase = ph
		depthMax.Store(0)
		switch {
		case ph.record && prev != nil:
			pr.before = *prev
		case ph.record:
			pr.before = readCounters(e.srv)
		}
		start := time.Now()
		cur.Store(int32(i))
		select {
		case <-time.After(ph.dur):
		case <-hung:
			aborted, abortedAt = true, i
		}
		prev = nil
		if ph.record {
			pr.after = readCounters(e.srv)
			prev = &pr.after
		}
		pr.elapsed = time.Since(start)
		pr.depthMax = int(depthMax.Load())
		if aborted {
			break
		}
	}
	cur.Store(phaseStopped)
	if !aborted {
		drained := make(chan struct{})
		go func() { wg.Wait(); close(drained) }()
		select {
		case <-drained:
		case <-hung:
			aborted = true
		}
	}
	if aborted {
		// The server is wedged: record the evidence, count what is still
		// outstanding as failed, and release the workers by closing their
		// connections. The caller must not Close the server (it would
		// wait on the wedged handlers forever).
		res.hung = true
		res.dump = dumpGoroutines(outDir, e.wl.name)
		for _, w := range workers {
			if w.inflight.Load() {
				res.phases[abortedAt].outstanding++
			}
		}
		for _, m := range e.muxes {
			m.Close()
		}
		wg.Wait()
	}
	close(done)
	aux.Wait()

	res.ledger = make([]int64, len(e.keys))
	for _, w := range workers {
		res.total += w.total
		for k, d := range w.ledger {
			res.ledger[k] += d
		}
		for i := range phases {
			res.phases[i].sink.merge(&w.sinks[i])
		}
	}
	for i := range res.phases {
		pr := &res.phases[i]
		pr.sink.attempted += int64(pr.outstanding)
		pr.sink.failed += int64(pr.outstanding)
		sortInt64(pr.sink.lat)
	}
	return res
}

func (s *sink) merge(o *sink) {
	s.attempted += o.attempted
	s.commits += o.commits
	s.failed += o.failed
	s.missed += o.missed
	s.valueRealized += o.valueRealized
	s.lat = append(s.lat, o.lat...)
	s.traces = append(s.traces, o.traces...)
}

// book records one verdict into the sink of the phase it arrived in.
func (w *worker) book(phases []phase, cur *atomic.Int32, ops []opSpec, elapsed time.Duration, trace string, err error) {
	w.verdicts.Add(1)
	if err == nil {
		w.total++
		for _, o := range ops {
			if o.write {
				w.ledger[o.key] += o.delta
			}
		}
	}
	p := cur.Load()
	if p < 0 || !phases[p].record {
		return
	}
	s := &w.sinks[p]
	s.attempted++
	if err != nil {
		s.failed++
		s.missed++
		return
	}
	s.commits++
	s.lat = append(s.lat, int64(elapsed))
	if elapsed > reqDeadline {
		s.missed++
	}
	if v := deadlineValue.At(elapsed.Seconds()); v > 0 {
		s.valueRealized += v
	}
	if trace != "" {
		s.traces = append(s.traces, tracedSample{elapsed, trace})
	}
}

// runOneShot sends one-shot transactions one after another, each timed
// from its write to its RES line (UpdateResult.Elapsed). Batch of one is
// the client call that returns that time and the trace= token.
func (w *worker) runOneShot(e *env, m *client.Mux, phases []phase, cur *atomic.Int32, twoClass bool) {
	var specs []opSpec
	reqs := make([]client.UpdateReq, 1)
	for {
		p := cur.Load()
		if p == phaseStopped {
			return
		}
		specs = e.wl.gen(w.rng, specs)
		ops := reqs[0].Ops[:0]
		for _, o := range specs {
			ops = append(ops, client.Op{Key: e.keys[o.key], Delta: o.delta, Write: o.write})
		}
		v := reqValue
		if twoClass && w.rng.Intn(10) == 0 {
			v = twoClassValue
		}
		reqs[0] = client.UpdateReq{Ops: ops, Opts: client.TxOpts{Value: v, Deadline: reqDeadline, Trace: phases[p].trace}}
		w.inflight.Store(true)
		r := m.Batch(reqs)[0]
		w.inflight.Store(false)
		w.book(phases, cur, specs, r.Elapsed, r.Trace, r.Err)
		if errors.Is(r.Err, client.ErrClosed) {
			return
		}
	}
}

func (w *worker) runSessions(e *env, m *client.Mux, phases []phase, cur *atomic.Int32) {
	var specs []opSpec
	for {
		p := cur.Load()
		if p == phaseStopped {
			return
		}
		specs = e.wl.gen(w.rng, specs)
		w.inflight.Store(true)
		start := time.Now()
		trace, err := runSession(e, m, specs, phases[p].trace)
		elapsed := time.Since(start)
		w.inflight.Store(false)
		w.book(phases, cur, specs, elapsed, trace, err)
		if errors.Is(err, client.ErrClosed) {
			return
		}
	}
}

// runSession is one interactive transaction: BEGIN, one round trip per
// op with think time between ops, COMMIT.
func runSession(e *env, m *client.Mux, specs []opSpec, trace bool) (string, error) {
	tx, err := m.Begin(client.TxOpts{Value: reqValue, Deadline: reqDeadline, Trace: trace})
	if err != nil {
		return "", err
	}
	for i, o := range specs {
		if i > 0 {
			time.Sleep(sessionThink)
		}
		if o.write {
			_, err = tx.Add(e.keys[o.key], o.delta)
		} else {
			_, err = tx.Get(e.keys[o.key])
		}
		if err != nil {
			tx.Abort() // best effort; the server reaps what this leaves
			return "", err
		}
	}
	if _, err := tx.Commit(); err != nil {
		return "", err
	}
	return tx.Trace(), nil
}

// watchdog closes hung when the workers' verdict count stands still for
// watchdogAfter while the drive is running.
func watchdog(workers []*worker, done, hung chan struct{}) {
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	var last int64 = -1
	lastMove := time.Now()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		var sum int64
		for _, w := range workers {
			sum += w.verdicts.Load()
		}
		if sum != last {
			last, lastMove = sum, time.Now()
			continue
		}
		if time.Since(lastMove) >= watchdogAfter {
			close(hung)
			return
		}
	}
}

func dumpGoroutines(outDir, name string) string {
	path := filepath.Join(outDir, "hang_"+name+"_"+strconv.FormatInt(time.Now().UnixNano(), 10)+".goroutines.txt")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "goroutine dump:", err)
		return ""
	}
	defer f.Close()
	pprof.Lookup("goroutine").WriteTo(f, 2)
	return path
}
