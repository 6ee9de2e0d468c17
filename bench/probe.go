package main

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/opts"
	"repro/internal/shard"
	"repro/internal/value"
)

// The layer probe times direct calls into each layer's public functions:
// one goroutine unless stated, fixed operation counts so the counts a
// probe reports repeat exactly. A probe's share of the traced
// server_total is the most that speeding the layer up can save when
// nothing else contends.

// prober collects the probe metrics and the first error: after an error
// every later probe is skipped, so callers check once at the end.
type prober struct {
	m   metricSet
	err error
}

func (p *prober) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// timeOps runs fn n times and returns nanoseconds per call.
func (p *prober) timeOps(n int, fn func(i int) error) float64 {
	if p.err != nil {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			p.fail(err)
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// timeAllocs is timeOps also returning heap allocations per call.
func (p *prober) timeAllocs(n int, fn func(i int) error) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ns = p.timeOps(n, fn)
	runtime.ReadMemStats(&after)
	return ns, float64(after.Mallocs-before.Mallocs) / float64(n)
}

// timeParallel splits n calls of fn evenly over workers goroutines and
// returns wall nanoseconds per call.
func (p *prober) timeParallel(n, workers int, fn func(worker, i int) error) float64 {
	if p.err != nil {
		return 0
	}
	per := n / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per && errs[w] == nil; i++ {
				errs[w] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		p.fail(err)
	}
	return float64(elapsed.Nanoseconds()) / float64(per*workers)
}

func (p *prober) put(name string, v float64, unit string) { p.m.put(name, v, unit) }

var probeSink any // keeps probed results alive so calls are not elided

func increment(tx shard.Tx, key string) error {
	v, err := tx.Get(key)
	if err != nil {
		return err
	}
	n, _ := strconv.ParseInt(string(v), 10, 64)
	return tx.Set(key, strconv.AppendInt(nil, n+1, 10))
}

func engineIncrement(key string) func(*engine.Tx) error {
	return func(tx *engine.Tx) error { return increment(tx, key) }
}

func probeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("p%d", i)
	}
	return keys
}

// runProbes measures every layer once. outDir hosts the durable probes'
// data directories, removed before returning.
func runProbes(outDir string) (metricSet, error) {
	p := &prober{m: metricSet{}}
	p.codecs()
	p.engine()
	p.shard()
	p.durable(outDir)
	p.repl()
	p.obs()
	p.server()
	return p.m, p.err
}

func (p *prober) codecs() {
	const n = 100000
	p.put("probe.opts.parse_ns", p.timeOps(n, func(int) error {
		var o opts.T
		if _, err := o.ParseToken("v=10"); err != nil {
			return err
		}
		_, err := o.ParseToken("dl=100")
		probeSink = o
		return err
	}), "ns")
	o := opts.T{Value: reqValue, Deadline: reqDeadline}
	p.put("probe.opts.encode_ns", p.timeOps(n, func(int) error {
		var b strings.Builder
		o.Encode(&b)
		probeSink = b.String()
		return nil
	}), "ns")

	f := o.Fn(0)
	dist := value.ExecDist{Mean: 0.001, Sigma: 0.0002, Min: 0.0001}
	shadows := []value.ShadowState{{Executed: 0.0002, Adoption: 0.7}, {Executed: 0.0001, Adoption: 0.3}}
	p.put("probe.value.expected_value_ns", p.timeOps(20000, func(int) error {
		probeSink = value.ExpectedValue(f, dist, shadows, 0.01, 0.001)
		return nil
	}), "ns")

	adm := server.NewAdmission(server.AdmissionConfig{})
	fn := adm.FnOf(o)
	p.put("probe.admission.acquire_release_ns", p.timeOps(n, func(int) error {
		if err := adm.Acquire(fn, 4); err != nil {
			return err
		}
		adm.Release(50*time.Microsecond, 4)
		return nil
	}), "ns")
}

func (p *prober) engine() {
	keys := probeKeys(1024)
	st := engine.Open(engine.Config{Mode: engine.SCC2S})
	ns, allocs := p.timeAllocs(50000, func(i int) error {
		return st.Update(engineIncrement(keys[i%len(keys)]))
	})
	st.Close()
	p.put("probe.engine.update_ns", ns, "ns")
	p.put("probe.engine.update_allocs", allocs, "count")

	// One writer with the group-commit window on: nothing to coalesce
	// with, so this is the window's pure wait.
	gc := engine.Open(engine.Config{Mode: engine.SCC2S, GroupCommit: serverConfig("").GroupCommit})
	p.put("probe.engine.update_groupcommit_ns", p.timeOps(300, func(i int) error {
		return gc.Update(engineIncrement(keys[i%len(keys)]))
	}), "ns")
	gc.Close()

	// GOMAXPROCS writers on one key: the contended engine path (forks,
	// parks, promotions) with no wire or admission around it.
	hot := engine.Open(engine.Config{Mode: engine.SCC2S})
	p.put("probe.engine.hot_update_ns", p.timeParallel(20000, runtime.GOMAXPROCS(0), func(int, int) error {
		return hot.Update(engineIncrement("hot"))
	}), "ns")
	hot.Close()
}

// crossKeys returns transaction i's four keys; consecutive keys hash to
// different shards, so the transaction is cross-shard.
func crossKeys(keys []string, i int) []string {
	n := len(keys)
	return []string{keys[i%n], keys[(i+1)%n], keys[(i+2)%n], keys[(i+3)%n]}
}

// crossUpdate is the cross workloads' transaction shape: two reads and
// two read-modify-writes.
func crossUpdate(st *shard.Store, ks []string) error {
	return st.Update(ks, func(tx shard.Tx) error {
		if _, err := tx.Get(ks[0]); err != nil {
			return err
		}
		if _, err := tx.Get(ks[1]); err != nil {
			return err
		}
		if err := increment(tx, ks[2]); err != nil {
			return err
		}
		return increment(tx, ks[3])
	})
}

func (p *prober) shard() {
	keys := probeKeys(1024)
	st := shard.Open(shard.Config{Shards: numShards, Engine: engine.Config{Mode: engine.SCC2S}})
	defer st.Close()
	p.put("probe.shard.fast_update_ns", p.timeOps(50000, func(i int) error {
		k := keys[i%len(keys)]
		return st.Update([]string{k}, func(tx shard.Tx) error { return increment(tx, k) })
	}), "ns")
	ns, allocs := p.timeAllocs(20000, func(i int) error { return crossUpdate(st, crossKeys(keys, i)) })
	p.put("probe.shard.cross_update_ns", ns, "ns")
	p.put("probe.shard.cross_update_allocs", allocs, "count")
	p.put("probe.shard.view_ns", p.timeOps(50000, func(i int) error {
		ks := crossKeys(keys, i)
		return st.View(ks, func(tx shard.Tx) error {
			for _, k := range ks {
				if _, err := tx.Get(k); err != nil {
					return err
				}
			}
			return nil
		})
	}), "ns")
}

// durableStore is a sharded store with durability wired in the way
// server.Open wires it, minus the serving layer.
type durableStore struct {
	st  *shard.Store
	man *durable.Manager
}

func openDurable(dir string) (*durableStore, error) {
	st := shard.Open(shard.Config{Shards: numShards, Epochs: &engine.Epochs{}, Engine: engine.Config{Mode: engine.SCC2S}})
	man, err := durable.Open(durable.Options{Dir: dir, Fsync: serverConfig(dir).Durable.Fsync}, st, nil)
	if err != nil {
		st.Close()
		return nil, err
	}
	return &durableStore{st, man}, nil
}

func (d *durableStore) close() error {
	d.st.Close()
	return d.man.Close()
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

func (p *prober) durable(outDir string) {
	if p.err != nil {
		return
	}
	keys := probeKeys(1024)

	// Cross-shard commits through the WAL: two rounds (intent + data,
	// then decision), CkptEvery 0 so the bytes are the log's alone.
	dir, err := os.MkdirTemp(outDir, "probe-cross-")
	if err != nil {
		p.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	d, err := openDurable(dir)
	if err != nil {
		p.fail(err)
		return
	}
	const crossOps = 2000
	p.put("probe.durable.cross_update_ns", p.timeOps(crossOps, func(i int) error {
		return crossUpdate(d.st, crossKeys(keys, i))
	}), "ns")
	size, err := dirBytes(dir)
	p.fail(err)
	p.put("probe.durable.wal_bytes_per_commit", float64(size)/crossOps, "B")
	start := time.Now()
	_, err = d.man.CheckpointAll()
	p.fail(err)
	p.put("probe.durable.checkpoint_ms", float64(time.Since(start).Nanoseconds())/1e6, "ms")
	p.fail(d.close())

	// Recovery: re-Open a directory holding recoverRecords single-shard
	// records. Concurrent writers fill it so group fsync batches them and
	// the fill does not dominate the probe.
	rdir, err := os.MkdirTemp(outDir, "probe-recover-")
	if err != nil {
		p.fail(err)
		return
	}
	defer os.RemoveAll(rdir)
	if d, err = openDurable(rdir); err != nil {
		p.fail(err)
		return
	}
	const recoverRecords, fillers = 50000, 50
	p.timeParallel(recoverRecords, fillers, func(w, i int) error {
		k := keys[(w*131+i)%len(keys)]
		return d.st.Update([]string{k}, func(tx shard.Tx) error { return increment(tx, k) })
	})
	p.fail(d.close())
	start = time.Now()
	if d, err = openDurable(rdir); err != nil {
		p.fail(err)
		return
	}
	p.put("probe.durable.recover_ms", float64(time.Since(start).Nanoseconds())/1e6, "ms")
	if got := d.man.RecoveredIndex(); got != recoverRecords && p.err == nil {
		p.fail(fmt.Errorf("recovered %d records, wrote %d", got, recoverRecords))
	}
	p.fail(d.close())
}

func (p *prober) repl() {
	const n = 50000
	rec := repl.Record{Index: 7, Epoch: 9, Shards: []int{1, 5},
		Writes: map[string][]byte{"k17": []byte("12345"), "k4011": []byte("-12345")}}
	p.put("probe.repl.encode_ns", p.timeOps(n, func(int) error {
		probeSink = repl.EncodeLog(1, rec)
		return nil
	}), "ns")
	fields := strings.Fields(repl.EncodeLog(1, rec))[1:]
	p.put("probe.repl.parse_ns", p.timeOps(n, func(int) error {
		_, r, err := repl.ParseLog(fields)
		probeSink = r
		return err
	}), "ns")
	log := repl.NewLog(&engine.Epochs{})
	log.SetRetention(1024)
	p.put("probe.repl.log_append_ns", p.timeOps(n, func(int) error {
		log.Append(rec.Writes)
		return nil
	}), "ns")
}

func (p *prober) obs() {
	const n = 100000
	var tr *obs.Trace
	p.put("probe.obs.trace_event_ns", p.timeOps(n, func(i int) error {
		// A fresh trace every 8 stamps, the length of a common lifecycle.
		if i%8 == 0 {
			tr = obs.NewTrace(time.Now())
		}
		tr.Event(obs.StageInstall)
		return nil
	}), "ns")
	ring := flight.New(1, 0).Server()
	p.put("probe.obs.flight_record_ns", p.timeOps(n, func(i int) error {
		ring.Record(obs.StageCommit, uint64(i), -1, 0)
		return nil
	}), "ns")
	h := obs.NewRegistry().NsHistogram("probe_seconds", "probe")
	p.put("probe.obs.histogram_observe_ns", p.timeOps(n, func(i int) error {
		h.Observe(int64(i) << 4)
		return nil
	}), "ns")
}

// server measures the wire + dispatch floor with no engine behind it
// (PING), and one Batch round trip of slotsPerConn one-key updates.
func (p *prober) server() {
	if p.err != nil {
		return
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.fail(err)
		return
	}
	srv := server.New(serverConfig(""))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	defer func() {
		srv.Close()
		<-served
	}()
	muxes := make([]*client.Mux, numConns)
	for i := range muxes {
		if muxes[i], err = client.DialMuxTimeout(lis.Addr().String(), 5*time.Second); err != nil {
			p.fail(err)
			return
		}
		defer muxes[i].Close()
	}
	p.put("probe.server.ping_rtt_us", p.timeOps(2000, func(int) error { return muxes[0].Ping() })/1e3, "us")
	p.put("probe.server.ping_pipelined_ns", p.timeParallel(20000, numConns*slotsPerConn, func(w, _ int) error {
		return muxes[w%numConns].Ping()
	}), "ns")

	keys := probeKeys(1024)
	reqs := make([]client.UpdateReq, slotsPerConn)
	p.put("probe.client.batch_rtt_us", p.timeOps(300, func(i int) error {
		for j := range reqs {
			reqs[j] = client.UpdateReq{
				Ops:  []client.Op{{Key: keys[(i*slotsPerConn+j)%len(keys)], Delta: 1, Write: true}},
				Opts: client.TxOpts{Value: reqValue, Deadline: reqDeadline},
			}
		}
		for _, r := range muxes[0].Batch(reqs) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	})/1e3, "us")
}
