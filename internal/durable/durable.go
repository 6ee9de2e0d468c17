// Package durable gives the sharded SCC store crash durability: one
// write-ahead log per node that every shard's installs append to, one
// record per transaction (wal.go), periodic whole-shard checkpoints at a
// recorded commit-log index (checkpoint.go), and a recovery path that
// loads each shard's newest valid checkpoint, then reads the log once and
// applies each shard's parts above that checkpoint, truncating torn
// tails. A Hekaton-shaped design: main-memory state, one sequential log,
// snapshot checkpoints — no in-place paging, and no commit protocol
// between the shards of a node: a cross-shard commit is one record.
//
// Checkpointing is value-cognizant: the background checkpointer ranks
// shards by the summed transaction value committed since their last
// checkpoint (every engine.CommitRecord carries it), so the
// highest-value working set becomes durable — and its log replay
// shortest — first. Recovery itself replays the log in strict order;
// value decides what is checkpointed when, never what is kept.
//
// With a replication feed, the manager also publishes the node's commit
// order to it: records ship in the log's write order, each once a sync
// covers it (sync-before-ship). docs/ARCHITECTURE.md places the package
// in the system; docs/PROTOCOL.md documents the operator surface (STATS
// keys).
package durable

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/repl"
	"repro/internal/shard"
)

// Options configures durability for one store.
type Options struct {
	// Dir is the data directory: the node log under wal/, one checkpoint
	// subdirectory per shard. Empty disables durability.
	Dir string
	// Fsync selects when WAL appends reach stable storage (default
	// FsyncGroup: one fsync per commit batch, before the batch is
	// acknowledged).
	Fsync FsyncPolicy
	// CkptEvery checkpoints a shard automatically once this many records
	// accumulate in its WAL since the last checkpoint. 0 checkpoints only
	// when the caller runs CheckpointAll, as tests that drive checkpoints
	// by hand do; sccserve refuses it, since nothing would then trim the
	// WAL.
	CkptEvery int
	// Metrics, when non-nil, receives durability observations (fsync and
	// checkpoint latency). All fields must be populated.
	Metrics *Metrics
	// OnError, when non-nil, is invoked (once, from its own goroutine)
	// with the first sticky WAL failure. The serving layer uses it to
	// fail-stop the process the moment durability is lost, instead of
	// discovering it on a poll — no acknowledgement can race it, because
	// every install path also surfaces the same failure synchronously in
	// its verdict.
	OnError func(error)
	// Flight, when non-nil, receives durability events (fsync, WAL error,
	// checkpoint) on its per-shard rings, and is dumped to <Dir>/flight/
	// on the first sticky WAL failure, before OnError fail-stops the
	// process.
	Flight *flight.Recorder
}

// Metrics are the durability layer's instruments, registered by the
// serving layer and shared across shards.
type Metrics struct {
	// FsyncSeconds observes each WAL fsync — the stall every commit in a
	// batch waits out before its verdict under the group policy.
	FsyncSeconds *obs.Histogram
	// CheckpointSeconds observes each shard checkpoint: latched snapshot,
	// log sync, atomic file write.
	CheckpointSeconds *obs.Histogram
}

// Stats are cumulative durability counters.
type Stats struct {
	WALAppends     int64  // records appended to the node log
	WALFsyncs      int64  // fsync calls issued on the node log
	Checkpoints    int64  // checkpoint files written
	RecoveredIndex uint64 // sum of per-shard commit-log indices restored at boot
	Errors         int64  // WAL append/sync and checkpoint failures
	// Intents counts cross-shard records: records that carry more than
	// one shard's part. The name is older than the one-record log (it
	// counted two-phase-commit intent records) and stays because the
	// benchmark reads the field.
	Intents int64
}

// maxKeptBuf bounds the encode buffer a shard keeps for its next record.
// Ordinary records are far smaller, so the steady state reuses one
// buffer; a larger one — a durable replica's SNAP bootstrap is the whole
// store in one record — is dropped after its write instead of pinning
// its size for the life of the process.
const maxKeptBuf = 64 << 10

// sealedPerShard bounds the log's sealed segments at this many per shard
// before the checkpointer goes after the shards that pin the oldest one.
const sealedPerShard = 4

// Manager wires durability through a shard.Store: it recovers the store
// at Open, installs itself as every shard's commit log (feeding the node
// log and, when present, the replication feed), and runs the
// value-prioritized background checkpointer.
type Manager struct {
	opts   Options
	store  *shard.Store
	epochs *engine.Epochs
	log    *nodeLog
	feed   *repl.Feed // nil: nothing ships

	shards    []*managedShard
	recovered uint64
	ckpts     atomic.Int64
	errs      atomic.Int64
	failOnce  sync.Once
	shipMu    sync.Mutex // serializes publication, so the feed sees the log's order

	ckptMu sync.Mutex // serializes checkpoint passes
	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}
}

// fail reports a sticky WAL failure, once: the flight recorder is
// dumped (the black box survives the fail-stop), then the OnError hook
// runs. Both happen on their own goroutine — neither the dump's file I/O
// nor the hook (typically a fail-stop shutdown) may block the commit
// path; the dump strictly precedes the hook so it completes before any
// process exit. Its one caller is Sync's failure path: a broken log fails
// every later Sync, and every install path syncs before its verdict, so
// by the time fail runs the batch's WAL and fsync errors are both in the
// flight rings the dump reads.
func (m *Manager) fail(err error) {
	if err == nil {
		return
	}
	m.failOnce.Do(func() {
		fl, dir, hook := m.opts.Flight, filepath.Join(m.opts.Dir, "flight"), m.opts.OnError
		go func() {
			if _, derr := fl.DumpDir(dir, "walfail"); derr != nil {
				slog.Warn("durable: flight dump on WAL failure failed", "err", derr)
			}
			if hook != nil {
				hook(err)
			}
		}()
	})
}

// managedShard is one shard's durability state and its view of the node
// log: the engine.CommitLog the shard's store appends to. The engine
// hands it every installed write set under the shard latch — a
// cross-shard commit whole, to its lowest participant's view, under every
// participant's latch — and calls Sync at each commit-batch boundary.
//
// Sync-before-ship: a record reaches the replication feed — and through
// it any live REPL subscriber — only after the node log has it on stable
// storage (at Sync). Shipping first would let a crash-and-recover primary
// disown a record a replica already applied, then reissue its position
// with different writes.
type managedShard struct {
	m      *Manager
	idx    int
	dir    string       // checkpoint directory
	flight *flight.Ring // this shard's flight ring (nil-safe)
	buf    []byte       // encode buffer for the records this view appends; guarded by the shard latch

	mu           sync.Mutex
	next         uint64  // next commit-log index
	maxEpoch     uint64  // highest epoch appended (the checkpoint's watermark)
	appendsSince int     // records since the last checkpoint
	pendingValue float64 // summed transaction value since the last checkpoint
	ckptIdx      uint64  // newest checkpoint's log index
	prevCkpt     uint64  // the one before it (0 until this process took one)
}

// layout is the data-directory format pinned in META: one node log plus
// per-shard checkpoint directories, each checkpoint one node-log frame.
// Older layouts cannot be read: layout 1 kept one WAL per shard and wrote
// META without a layout key, layout 2 wrote checkpoints in a format of
// their own.
const layout = 3

// checkLayout pins the data directory's layout and shard count in META.
// The shard count is baked into the key routing (FNV mod shards):
// reopening with a different count would misroute every recovered key.
// Mismatches fail fast. Unless policy is FsyncOff, a new META is made
// durable before anything is logged, so a power loss cannot leave an
// empty one in front of an intact WAL.
func checkLayout(dir string, shards int, policy FsyncPolicy) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "META")
	b, err := os.ReadFile(path)
	if err != nil {
		meta := []byte(fmt.Sprintf("layout=%d shards=%d\n", layout, shards))
		if policy == FsyncOff {
			return os.WriteFile(path, meta, 0o644)
		}
		return writeFileSync(dir, "META", meta)
	}
	var lay, n int
	_, err = fmt.Sscanf(string(b), "layout=%d shards=%d", &lay, &n)
	if strings.HasPrefix(string(b), "shards=") || err == nil && lay < layout {
		return fmt.Errorf("durable: data directory %s has the layout of an older build, which this one cannot read (use a fresh -data-dir)", dir)
	}
	if err != nil || lay != layout || n <= 0 {
		return fmt.Errorf("durable: unreadable META %q in %s", string(b), dir)
	}
	if n != shards {
		return fmt.Errorf("durable: data directory %s is laid out for %d shards, server has %d (restart with -shards %d or use a fresh -data-dir)",
			dir, n, shards, n)
	}
	return nil
}

// Open recovers the store from dir and wires durability into it. The
// store must be freshly opened, idle, and have no commit logs installed
// yet: recovery replays history through ApplyLocked, and the replay must
// not re-log itself — Open installs the commit-log sinks only after the
// replay, and resets the feed's log base to the recovered position (the
// sum of the recovered indices) so shipped positions continue the
// node's numbering.
func Open(opts Options, store *shard.Store, feed *repl.Feed) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("durable: no data directory")
	}
	n := store.NumShards()
	if feed != nil && feed.Shards() != n {
		return nil, fmt.Errorf("durable: feed has %d shards, store %d", feed.Shards(), n)
	}
	if err := checkLayout(opts.Dir, n, opts.Fsync); err != nil {
		return nil, err
	}
	m := &Manager{
		opts:   opts,
		store:  store,
		epochs: store.Epochs(),
		feed:   feed,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Recovery: every shard resumes from its newest valid checkpoint, then
	// one pass over the log applies each record's parts above their
	// shard's checkpoint, in log order. A record is whole or absent, so
	// the shards never need to agree on anything.
	heads := make([]uint64, n)
	var maxEpoch uint64
	for i := 0; i < n; i++ {
		ms := &managedShard{m: m, idx: i, dir: filepath.Join(opts.Dir, fmt.Sprintf("shard-%04d", i)), flight: opts.Flight.Shard(i)}
		if err := os.MkdirAll(ms.dir, 0o755); err != nil {
			return nil, err
		}
		idx, epoch, kvs, err := loadCheckpoint(ms.dir, i)
		if err != nil {
			return nil, err
		}
		ms.ckptIdx, ms.maxEpoch, heads[i] = idx, epoch, idx
		maxEpoch = max(maxEpoch, epoch)
		m.shards = append(m.shards, ms)
		if len(kvs) > 0 {
			store.Shard(i).LockCommit()
			store.Shard(i).ApplyLocked(kvs, 0)
			store.Shard(i).UnlockCommit()
		}
	}
	for i := 0; i < n; i++ {
		store.Shard(i).LockCommit()
	}
	log, err := openLog(filepath.Join(opts.Dir, "wal"), opts.Fsync, func(f frame) bool {
		maxEpoch = max(maxEpoch, f.epoch)
		parts, ok := fresh(heads, f)
		for _, p := range parts {
			store.Shard(p.shard).ApplyLocked(p.writes, 0)
			m.shards[p.shard].maxEpoch = max(m.shards[p.shard].maxEpoch, f.epoch)
		}
		return ok
	})
	for i := 0; i < n; i++ {
		store.Shard(i).UnlockCommit()
	}
	if err != nil {
		return nil, err
	}
	m.log = log
	log.ship = feed != nil
	if opts.Metrics != nil {
		log.fsyncObs = opts.Metrics.FsyncSeconds
	}
	// New epochs allocate above everything stamped on disk.
	m.epochs.Observe(maxEpoch)
	for i, ms := range m.shards {
		ms.next = heads[i] + 1
		m.recovered += heads[i]
		store.Shard(i).SetCommitLog(ms)
	}
	if feed != nil {
		feed.Log().ResetBase(m.recovered, maxEpoch)
	}
	go m.checkpointLoop()
	return m, nil
}

// fresh returns the parts of f above heads — each shard's recovered
// commit-log head — and advances heads past them. Parts at or below a
// head are already in the shard's checkpoint. ok is false, and heads
// untouched, when f skips an index of some shard: a hole, which damage
// leaves and a crash never does.
func fresh(heads []uint64, f frame) (parts []part, ok bool) {
	for _, p := range f.parts {
		if p.shard < 0 || p.shard >= len(heads) || p.index > heads[p.shard]+1 {
			return nil, false
		}
	}
	for _, p := range f.parts {
		if p.index > heads[p.shard] {
			heads[p.shard] = p.index
			parts = append(parts, p)
		}
	}
	return parts, true
}

// AppendCommit implements engine.CommitLog: called under the shard latch
// (every participant's, for a cross-shard commit) for every install, it
// assigns each part its shard's next index (and a standalone record its
// epoch), accrues the participants' pending value for checkpoint
// prioritization, and writes the record to the node log as one frame —
// the whole-frames rule of wal.go. Publication to the replication feed
// waits for the Sync that covers it. A failed write, or a record too
// large to frame, breaks the log here and surfaces at that Sync, which
// every install path runs before its verdict.
func (ms *managedShard) AppendCommit(c engine.CommitRecord) uint64 {
	m := ms.m
	if c.Epoch == 0 {
		// Standalone commits stamp their epoch here, under the shard
		// latch, so per-shard epoch order matches log order; cross-shard
		// epochs were allocated under every participant's latch, which
		// preserves the same invariant.
		c.Epoch = m.epochs.Next()
	}
	var pbuf [4]part
	parts := pbuf[:0]
	due := false
	buf := beginRecord(ms.buf[:0], c.Epoch, max(len(c.Shards), 1))
	for j := range max(len(c.Shards), 1) {
		p, writes := ms, c.Writes
		if c.Shards != nil {
			p, writes = m.shards[c.Shards[j]], c.Parts[j]
		}
		idx, d := p.take(c.Epoch, c.Value)
		due = due || d
		buf = appendPart(buf, p.idx, idx, writes)
		parts = append(parts, part{shard: p.idx, index: idx})
	}
	buf, err := endRecord(buf, 0)
	ms.buf = buf
	if cap(buf) > maxKeptBuf {
		ms.buf = nil
	}
	if err == nil {
		_, err = m.log.write(buf, parts, shipment{shard: ms.idx, rec: c})
	} else {
		m.log.fail(err)
	}
	if err != nil {
		m.errs.Add(1)
		ms.flight.Record(flight.EvWalError, 0, ms.idx, c.Epoch)
	}
	if due {
		select {
		case m.kick <- struct{}{}:
		default:
		}
	}
	return c.Epoch
}

// take assigns the shard's next commit-log index to a part of a record
// at epoch and accrues the record's value. It reports whether the shard
// is due for a checkpoint.
func (ms *managedShard) take(epoch uint64, value float64) (uint64, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	idx := ms.next
	ms.next++
	ms.maxEpoch = max(ms.maxEpoch, epoch)
	ms.appendsSince++
	if value > 0 {
		ms.pendingValue += value
	}
	return idx, ms.m.opts.CkptEvery > 0 && ms.appendsSince >= ms.m.opts.CkptEvery
}

// Durable implements engine.CommitLog: Sync is an fsync unless the
// policy is FsyncOff.
func (ms *managedShard) Durable() bool { return ms.m.opts.Fsync != FsyncOff }

// Sync implements engine.CommitLog: it syncs the node log through every
// record written so far, then publishes the records the sync covers to
// the replication feed. The engine (and the cross-shard/replica apply
// paths) call it before any commit of the batch is acknowledged, so
// subscribers only ever stream records that are already durable here.
// The watermark is taken before the sync: a record written concurrently
// (by the next batch) is left for the sync that covers it.
func (ms *managedShard) Sync() error {
	m := ms.m
	ms.mu.Lock()
	epoch := ms.maxEpoch
	ms.mu.Unlock()
	end := m.log.end()
	ran, err := m.log.syncTo(end)
	if err != nil {
		// A broken log also stops shipping: replicas must not apply
		// records this primary can no longer recover. The queue is simply
		// never drained further — the log is sticky-broken, the operator
		// policy is fail-stop.
		m.errs.Add(1)
		ms.flight.Record(flight.EvFsyncError, 0, ms.idx, epoch)
		m.fail(err)
		return err
	}
	if ran {
		ms.flight.Record(flight.EvFsync, 0, ms.idx, epoch)
	}
	if m.feed != nil {
		m.shipMu.Lock()
		for _, sh := range m.log.shippable(end) {
			m.feed.Sink(sh.shard).AppendCommit(sh.rec)
		}
		m.shipMu.Unlock()
	}
	return nil
}

// checkpointLoop runs automatic checkpoints: each kick checkpoints every
// shard whose WAL grew past CkptEvery since its last checkpoint, highest
// pending-value first. Failures are counted (dur_errors in STATS) and
// logged — once per distinct error message, since a persistently full
// disk would otherwise log on every kick.
func (m *Manager) checkpointLoop() {
	defer close(m.done)
	lastLogged := ""
	for {
		select {
		case <-m.stop:
			return
		case <-m.kick:
		}
		_, err := m.checkpoint(m.plan(func(appends int) bool {
			return m.opts.CkptEvery > 0 && appends >= m.opts.CkptEvery
		}))
		if err == nil {
			lastLogged = ""
		} else if msg := err.Error(); msg != lastLogged {
			lastLogged = msg
			slog.Warn("durable: checkpoint failed; will retry and the WAL keeps growing", "err", err)
		}
	}
}

// plan returns the shards selected by keep plus the ones pinning the
// log, ordered by pending value (descending; append count breaks ties) —
// the value-cognizant checkpoint order: the shard holding the most
// not-yet-durable value is captured first.
//
// A shard pins the log when, with more than sealedPerShard sealed
// segments per shard, its previous checkpoint does not cover its records
// in the oldest one. A shard whose writes stopped never reaches
// CkptEvery again; without this its old records would keep every later
// segment on disk. It is checkpointed, changed or not, until they are
// covered.
func (m *Manager) plan(keep func(appends int) bool) []*managedShard {
	type cand struct {
		ms      *managedShard
		value   float64
		appends int
	}
	top := m.log.oldest(sealedPerShard * len(m.shards))
	var cands []cand
	for _, ms := range m.shards {
		ms.mu.Lock()
		v, n, pinned := ms.pendingValue, ms.appendsSince, top[ms.idx] > ms.prevCkpt
		ms.mu.Unlock()
		if keep(n) || pinned {
			cands = append(cands, cand{ms, v, n})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].value != cands[j].value {
			return cands[i].value > cands[j].value
		}
		return cands[i].appends > cands[j].appends
	})
	out := make([]*managedShard, len(cands))
	for i, c := range cands {
		out[i] = c.ms
	}
	return out
}

// CheckpointAll checkpoints every shard with records since its last
// checkpoint (and any that pins the log), highest pending-value first,
// and returns the shard indices in the order they were captured. Shards
// whose state did not change are skipped.
func (m *Manager) CheckpointAll() ([]int, error) {
	return m.checkpoint(m.plan(func(appends int) bool { return appends > 0 }))
}

// checkpoint runs one pass over shards: seal the active log segment, so
// what is logged before the pass becomes trimmable as whole files;
// capture each shard; then prune each captured shard's checkpoints below
// its previous one and trim the log segments no fallback to a previous
// checkpoint can need. It returns the shards captured and the first
// failure.
func (m *Manager) checkpoint(shards []*managedShard) ([]int, error) {
	if len(shards) == 0 {
		return nil, nil
	}
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	if err := m.log.rotate(); err != nil {
		m.errs.Add(1)
		return nil, err
	}
	var order []int
	var firstErr error
	for _, ms := range shards {
		if err := m.checkpointShard(ms); err != nil {
			m.errs.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		order = append(order, ms.idx)
	}
	floor := make(map[int]uint64, len(m.shards))
	for _, ms := range m.shards {
		ms.mu.Lock()
		floor[ms.idx] = ms.prevCkpt
		ms.mu.Unlock()
	}
	for _, i := range order {
		pruneCheckpoints(m.shards[i].dir, floor[i])
	}
	m.log.trim(floor)
	m.log.at(hookTrim)
	return order, firstErr
}

// checkpointShard captures one shard: its state and commit-log head
// under one latch hold, then — the checkpoint rule of wal.go — a log
// sync through the shard's newest record, then the atomic checkpoint
// write.
func (m *Manager) checkpointShard(ms *managedShard) error {
	if met := m.opts.Metrics; met != nil {
		start := time.Now()
		defer func() { met.CheckpointSeconds.Observe(int64(time.Since(start))) }()
	}
	eng := m.store.Shard(ms.idx)
	eng.LockCommit()
	ms.mu.Lock()
	head, epoch := ms.next-1, ms.maxEpoch
	coveredAppends, coveredValue := ms.appendsSince, ms.pendingValue
	ms.mu.Unlock()
	end := m.log.end()
	kvs := make(map[string][]byte)
	eng.RangeLocked(func(k string, v []byte) bool {
		kvs[k] = append([]byte(nil), v...)
		return true
	})
	eng.UnlockCommit()

	if _, err := m.log.syncTo(end); err != nil {
		return err
	}
	if err := writeCheckpoint(ms.dir, ms.idx, head, epoch, kvs); err != nil {
		return err
	}
	m.log.at(hookRename)
	ms.mu.Lock()
	ms.prevCkpt, ms.ckptIdx = ms.ckptIdx, head
	// Subtract what this checkpoint covered rather than zeroing: commits
	// that landed during the (unlatched) file write are above head, so
	// their append counts and pending value must keep driving the next
	// checkpoint's timing and priority.
	ms.appendsSince -= coveredAppends
	ms.pendingValue = max(ms.pendingValue-coveredValue, 0)
	ms.mu.Unlock()
	m.ckpts.Add(1)
	return nil
}

// RecoveredIndex reports the sum of per-shard commit-log indices
// restored at Open — zero for a cold start, the total acknowledged
// commit count survived for a restart. It is the position the
// replication feed restarts at.
func (m *Manager) RecoveredIndex() uint64 { return m.recovered }

// Position returns the node's commit position — the sum of its shards'
// commit-log indices, which is the feed position of the newest part
// appended — and the newest epoch appended. It is exact while the caller
// holds every shard's latch: SNAP's cut, which may run ahead of what has
// shipped, because records ship only after their sync.
func (m *Manager) Position() (pos, epoch uint64) {
	for _, ms := range m.shards {
		ms.mu.Lock()
		pos += ms.next - 1
		epoch = max(epoch, ms.maxEpoch)
		ms.mu.Unlock()
	}
	return pos, epoch
}

// Stats returns a snapshot of the durability counters.
func (m *Manager) Stats() Stats {
	return Stats{
		WALAppends:     m.log.appends.Load(),
		WALFsyncs:      m.log.fsyncs.Load(),
		Checkpoints:    m.ckpts.Load(),
		RecoveredIndex: m.recovered,
		Errors:         m.errs.Load(),
		Intents:        m.log.crossRecs.Load(),
	}
}

// Close stops the checkpointer, ships any batch-tail records and closes
// the log, syncing pending bytes. The store must be quiesced first (no
// in-flight commits).
func (m *Manager) Close() error {
	close(m.stop)
	<-m.done
	m.shards[0].Sync()
	return m.log.close()
}
