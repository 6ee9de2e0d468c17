package scenario

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/loadgen"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/opts"
	"repro/internal/workload"
)

// cluster is one booted cell topology: the address load is driven at,
// the address audits read from (the replica, when there is one), the
// failover cell's measured kill-to-promotion latency, and everything
// that must be torn down afterwards.
type cluster struct {
	pri            *server.Server
	addr           string
	rep            *server.Server
	repAddr        string
	dir            string
	promoteLatency time.Duration
}

func (cl *cluster) close() {
	if cl.rep != nil {
		cl.rep.Close()
	}
	if cl.pri != nil {
		cl.pri.Close()
	}
	if cl.dir != "" {
		os.RemoveAll(cl.dir)
	}
}

// serve starts a server on a fresh loopback listener and returns its
// address. Serve's error is dropped: it reports the listener closing at
// teardown.
func serve(s *server.Server) string {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic("scenario: loopback listen: " + err.Error())
	}
	go s.Serve(lis)
	return lis.Addr().String()
}

// bootCluster builds the cell's server topology. All roles share one
// engine configuration (8 shards, SCC-2S, group commit) so rows differ
// by the axis under test, not by incidental tuning.
func bootCluster(c Cell) (*cluster, error) {
	cfg := server.Config{
		Shards: 8,
		Mode:   engine.SCC2S,
		Admission: server.AdmissionConfig{
			MaxConcurrent: 32,
			MaxQueue:      4096,
		},
		GroupCommit: engine.GroupCommit{Enabled: true},
	}
	cl := &cluster{}
	switch c.Role {
	case RolePrimary:
		cl.pri = server.New(cfg)
		cl.addr = serve(cl.pri)
	case RoleDurable:
		var err error
		if cl.dir, err = os.MkdirTemp("", "scc-scenario-"); err != nil {
			return nil, err
		}
		cfg.Durable = durable.Options{Dir: cl.dir, Fsync: durable.FsyncGroup, CkptEvery: 1024}
		if cl.pri, err = server.Open(cfg); err != nil {
			os.RemoveAll(cl.dir)
			return nil, fmt.Errorf("cell %q: durable open: %w", c.Name, err)
		}
		cl.addr = serve(cl.pri)
	case RolePrimaryReplica, RoleFailover:
		if err := bootPair(c, cfg, cl); err != nil {
			cl.close()
			return nil, err
		}
	}
	return cl, nil
}

// waitCaughtUp polls until the replica has applied every record the
// primary's feed holds, so audits read a complete copy.
func (cl *cluster) waitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		head := cl.pri.Feed().Log().Head()
		applied, _ := cl.rep.Replica().Position()
		if applied >= head {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica never caught up: head %d applied %d", head, applied)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Oracle-cell keys (page keys and ledger counters are loadgen's).
func hotKeyName(k int) string { return "ohot" + strconv.Itoa(k) }

const oracleSeqKey = "oseq"

// pobs is one oracle commit observation: the post-increment sequencer
// and hot-key values returned by the commit.
type pobs struct {
	gval int64
	hkey int
	hval int64
}

// traceSampleEvery asks every nth transaction of a cell for a
// server-side lifecycle trace; the sampled timelines become the row's
// per-stage latency attribution at negligible load cost.
const traceSampleEvery = 20

// cellRunID namespaces the cell's keys. Every cell boots fresh servers,
// so one fixed id serves them all.
const cellRunID = 1

// Run boots the cell's topology, drives it for the cell duration, audits
// the store, and returns the cell's Row. Audit failures are reported in
// the Row's flags, not as errors; an error means the harness itself
// could not run the cell.
func Run(c Cell) (Row, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return Row{}, err
	}
	fam, _ := c.family() // validate has parsed it once already
	cl, err := bootCluster(c)
	if err != nil {
		return Row{}, err
	}
	defer cl.close()

	var res *loadgen.Result
	var oracleErr error
	if c.Oracle {
		res, oracleErr, err = driveOracle(c, cl)
	} else {
		res, err = driveLoad(c, cl, fam)
	}
	if err != nil {
		return Row{}, fmt.Errorf("cell %q: %w", c.Name, err)
	}

	row := Row{
		Cell:           c.Name,
		Skew:           skewLabel(c.Skew),
		Family:         cmp.Or(c.Family, "linear"),
		Session:        sessionLabel(c.Interactive),
		Role:           c.Role,
		DurationSec:    res.ElapsedSec,
		Clients:        c.Clients,
		Requests:       res.Requests,
		Committed:      res.Committed,
		Shed:           res.Shed,
		Errors:         res.Errors,
		ThroughputTPS:  res.Throughput,
		P50Ms:          res.P50Ms,
		P99Ms:          res.P99Ms,
		ValueSubmitted: res.MaxValue,
		ValueRealized:  res.ValueSum,
		Stages:         res.Stages,
		// Zero (and omitted) outside failover cells.
		PromoteMs: float64(cl.promoteLatency) / float64(time.Millisecond),
		Redirects: res.Redirects,
	}
	if res.MaxValue > 0 {
		row.ValueRatio = res.ValueSum / res.MaxValue
	}

	if cl.rep != nil && c.Role != RoleFailover {
		// Failover cells skip the catch-up barrier: the primary is dead
		// and the replica already promoted past it; log records the kill
		// cut off mid-flight were never acknowledged.
		if err := cl.waitCaughtUp(10 * time.Second); err != nil {
			return Row{}, fmt.Errorf("cell %q: %w", c.Name, err)
		}
	}
	if c.Oracle {
		ok := oracleErr == nil
		row.OracleOK = &ok
		// The oracle driver's conservation/ledger analogues are encoded
		// in its own invariants (no lost sequencer updates, a contiguous
		// acked run); driveOracle folded them into oracleErr, so the
		// flags track the same verdict.
		row.ConservationOK = ok
		row.LedgerOK = ok
	} else {
		// Audits read the replica when the cell has one — auditing
		// replicated state is the point of the role — else the primary.
		aud, err := client.DialMux(cmp.Or(cl.repAddr, cl.addr))
		if err != nil {
			return Row{}, fmt.Errorf("cell %q: audit dial: %w", c.Name, err)
		}
		defer aud.Close()
		sum, err := loadgen.AuditConservation(aud, cellRunID, c.Keys)
		if err != nil {
			return Row{}, fmt.Errorf("cell %q: conservation audit: %w", c.Name, err)
		}
		row.ConservationOK = sum == 0
		// Failover cells audit the ledger in its atLeast form: a retry
		// whose first attempt lost its ack to the kill double-lands.
		violations, err := loadgen.AuditLedger(aud, res.Acked, c.Role == RoleFailover)
		if err != nil {
			return Row{}, fmt.Errorf("cell %q: ledger audit: %w", c.Name, err)
		}
		row.LedgerOK = len(violations) == 0
	}

	// The primary reports; in failover cells it is dead and the pool
	// falls through to the promoted replica.
	row.Server, err = loadgen.NewPool(cl.addr + "," + cl.repAddr).Stats()
	if err != nil {
		return Row{}, fmt.Errorf("cell %q: stats: %w", c.Name, err)
	}
	return row, nil
}

func sessionLabel(interactive bool) string {
	if interactive {
		return "interactive"
	}
	return "oneshot"
}

// driveLoad runs the cell's closed load through loadgen: Clients
// connections, each either streaming Sessions-sized pipelined Batch
// bursts (one-shot) or running Sessions concurrent interactive TXN
// sessions with think time. Failover cells add the kill timer and the
// redirect-following shape (see driveFailover).
func driveLoad(c Cell, cl *cluster, fam opts.Family) (*loadgen.Result, error) {
	cfg := loadgen.Config{
		Pool:        loadgen.NewPool(cl.addr),
		Clients:     c.Clients,
		Duration:    c.Duration,
		Pipeline:    c.Sessions,
		Interactive: c.Interactive,
		Workload:    c.workloadConfig,
		Opts: func(t *model.Txn) client.TxOpts {
			return client.TxOpts{Value: t.Class.Value, Deadline: c.Deadline, Family: fam}
		},
		Pages:      c.Keys,
		Seed:       c.Seed,
		RunID:      cellRunID,
		TraceEvery: traceSampleEvery,
	}
	if c.Role == RoleFailover {
		return driveFailover(c, cl, cfg)
	}
	return loadgen.Run(cfg)
}

// driveOracle runs the high-contention serializability cell: every
// session increments the shared sequencer and one Zipf-hot key inside an
// interactive transaction, and the commit results are replayed through
// the history oracle. The returned oracleErr carries the first violated
// invariant (lost update, phantom ack, or a conflict-graph cycle). The
// session body is the cell's own; outcomes are booked in loadgen's
// account.
func driveOracle(c Cell, cl *cluster) (*loadgen.Result, error, error) {
	const hotKeys = 8
	theta := c.Skew.Theta
	if c.Skew.Kind != workload.KeyZipf {
		theta = 0.99
	}
	var mu sync.Mutex // guards all and total
	var all []pobs
	total := loadgen.NewResult()
	start := time.Now()
	deadline := start.Add(c.Duration)
	muxes := make([]*client.Mux, c.Clients)
	for w := range muxes {
		m, err := client.DialMux(cl.addr)
		if err != nil {
			return nil, nil, fmt.Errorf("worker %d: %w", w, err)
		}
		defer m.Close()
		muxes[w] = m
	}
	var wg sync.WaitGroup
	for w, m := range muxes {
		for s := 0; s < c.Sessions; s++ {
			wg.Add(1)
			go func(w, s int) {
				defer wg.Done()
				z := dist.NewRNG(c.Seed+int64(w)*7919+int64(s)*104_729).Zipf(hotKeys, theta)
				gen := workload.NewGenerator(c.workloadConfig(c.Seed + int64(w)*31 + int64(s)))
				account := loadgen.NewResult()
				var seen []pobs
				o := client.TxOpts{Value: 1, Deadline: c.Deadline}
				for time.Now().Before(deadline) {
					hk := z.Next()
					var res []int64
					t0 := time.Now()
					err := m.Do(o, func(t *client.Txn) error {
						if _, err := t.Add(oracleSeqKey, 1); err != nil {
							return err
						}
						if th := gen.NextThink(); th > 0 {
							time.Sleep(time.Duration(th * float64(time.Second)))
						}
						if _, err := t.Add(hotKeyName(hk), 1); err != nil {
							return err
						}
						var err error
						res, err = t.Commit()
						return err
					})
					account.Book(o, err, time.Since(t0), "")
					if err == nil && len(res) == 2 {
						seen = append(seen, pobs{gval: res[0], hkey: hk, hval: res[1]})
					}
				}
				mu.Lock()
				all = append(all, seen...)
				total.Merge(account)
				mu.Unlock()
			}(w, s)
		}
	}
	wg.Wait()
	total.Finish(time.Since(start))
	return total, checkOracle(all, total.Committed), nil
}

// checkOracle rebuilds read versions from the cumulative-sum results
// (the pattern of internal/server's interactive history test) and runs
// the conflict-graph check. The sequencer doubles as the acked-commit
// ledger: the observed values must be exactly {1..committed}, each once.
func checkOracle(all []pobs, committed int64) error {
	if int64(len(all)) != committed {
		return fmt.Errorf("oracle: %d commit observations for %d acks", len(all), committed)
	}
	if len(all) == 0 {
		return errors.New("oracle: no commits observed")
	}
	gPage := model.PageID(0)
	hPage := func(k int) model.PageID { return model.PageID(1 + k) }
	gWriter := make(map[int64]model.TxnID, len(all))
	hWriter := make(map[int]map[int64]model.TxnID)
	for i, o := range all {
		id := model.TxnID(i + 1)
		if o.gval < 1 || o.gval > int64(len(all)) {
			return fmt.Errorf("oracle: sequencer value %d outside acked run 1..%d", o.gval, len(all))
		}
		if _, dup := gWriter[o.gval]; dup {
			return fmt.Errorf("oracle: duplicate sequencer value %d (lost update)", o.gval)
		}
		gWriter[o.gval] = id
		if hWriter[o.hkey] == nil {
			hWriter[o.hkey] = make(map[int64]model.TxnID)
		}
		if _, dup := hWriter[o.hkey][o.hval]; dup {
			return fmt.Errorf("oracle: duplicate hot%d value %d (lost update)", o.hkey, o.hval)
		}
		hWriter[o.hkey][o.hval] = id
	}
	version := func(m map[int64]model.TxnID, preVal int64, what string) (model.TxnID, error) {
		if preVal == 0 {
			return 0, nil
		}
		id, ok := m[preVal]
		if !ok {
			return 0, fmt.Errorf("oracle: %s pre-value %d produced by no committed transaction", what, preVal)
		}
		return id, nil
	}
	var rec history.Recorder
	for i, o := range all {
		gv, err := version(gWriter, o.gval-1, oracleSeqKey)
		if err != nil {
			return err
		}
		hv, err := version(hWriter[o.hkey], o.hval-1, hotKeyName(o.hkey))
		if err != nil {
			return err
		}
		rec.Add(history.CommitRecord{
			ID:  model.TxnID(i + 1),
			Seq: int(o.gval),
			Reads: []model.ReadObs{
				{Page: gPage, Version: gv},
				{Page: hPage(o.hkey), Version: hv},
			},
			Writes: []model.PageID{gPage, hPage(o.hkey)},
		})
	}
	return rec.Check()
}

// RunGrid runs every cell of the named preset sequentially and assembles
// the scc-scenario/v1 artifact. logf, when non-nil, receives one
// progress line per cell.
func RunGrid(preset string, logf func(format string, args ...any)) (Artifact, error) {
	cells, err := Grid(preset)
	if err != nil {
		return Artifact{}, err
	}
	art := Artifact{Schema: SchemaV1, Preset: preset, CPUs: runtime.GOMAXPROCS(0)}
	if art.CPUs == 1 && logf != nil {
		logf("scenario: GOMAXPROCS=1 — single-core run, latencies and throughput are not comparable to multi-core artifacts")
	}
	for _, c := range cells {
		row, err := Run(c)
		if err != nil {
			return Artifact{}, err
		}
		if logf != nil {
			logf("scenario: cell %-20s committed=%d shed=%d tps=%.0f p99=%.2fms value=%.2f conservation=%v ledger=%v",
				row.Cell, row.Committed, row.Shed, row.ThroughputTPS, row.P99Ms, row.ValueRatio,
				row.ConservationOK, row.LedgerOK)
		}
		art.Cells = append(art.Cells, row)
	}
	return art, nil
}
