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
// The manager also owns log retention: after a checkpoint it advances
// the in-memory replication log's durability floor, letting repl.Log
// trim below min(checkpoint index, min acked subscriber index). Late
// joiners bootstrap from a snapshot (the SNAP verb) instead of a full
// replay. docs/ARCHITECTURE.md places the package in the system;
// docs/PROTOCOL.md documents the operator surface (CKPT, STATS keys).
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
	// accumulate in its WAL since the last checkpoint (0 = only on the
	// CKPT verb / explicit CheckpointAll).
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

// sealedPerShard bounds the log's sealed segments at this many per shard
// before the checkpointer goes after the shards that pin the oldest one.
const sealedPerShard = 4

// Manager wires durability through a shard.Store: it recovers the store
// at Open, installs itself as every shard's commit log (feeding both the
// node log and, when present, the replication feed), and runs the
// value-prioritized background checkpointer.
type Manager struct {
	opts   Options
	store  *shard.Store
	epochs *engine.Epochs
	log    *nodeLog

	shards    []*managedShard
	recovered uint64
	ckpts     atomic.Int64
	errs      atomic.Int64
	failOnce  sync.Once

	pendMu  sync.Mutex
	pending map[uint64]*heldRecord // cross-shard records awaiting parts, by epoch

	ckptMu sync.Mutex // serializes checkpoint passes
	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}
}

// heldRecord is a cross-shard record under assembly: its encoding so far
// and, in arrival order, each part's shard and index (writes are in buf)
// and the shard state that appended it.
type heldRecord struct {
	buf   []byte
	parts []part
	from  []*managedShard
}

// fail reports a sticky WAL failure, once: the flight recorder is
// dumped (the black box survives the fail-stop), then the OnError hook
// runs. Both happen on their own goroutine — fail is called from under
// shard latches, and neither the dump's file I/O nor the hook (typically
// a fail-stop shutdown) may re-enter them; the dump strictly precedes the
// hook so it completes before any process exit.
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

// managedShard is one shard's durability state. It implements
// engine.CommitLog: the engine hands it every installed write set under
// the shard latch and calls Sync at each commit-batch boundary.
//
// Sync-before-ship: a record reaches the in-memory replication log —
// and through it any live REPL subscriber — only after the node log has
// it on stable storage (at Sync). Shipping first would let a
// crash-and-recover primary disown a record a replica already applied,
// then reissue its index with different writes.
type managedShard struct {
	m       *Manager
	idx     int
	dir     string       // checkpoint directory
	flight  *flight.Ring // this shard's flight ring (nil-safe)
	replLog *repl.Log    // nil without a feed
	buf     []byte       // encode buffer for standalone records; guarded by the shard latch

	mu           sync.Mutex
	next         uint64        // next commit-log index (lockstep with replLog)
	written      uint64        // highest index whose record is in the log file
	writtenEnd   int64         // log offset past that record
	synced       uint64        // highest index covered by a successful sync (ship gate)
	maxEpoch     uint64        // highest epoch appended (the checkpoint's watermark)
	unshipped    []repl.Record // appended, not yet published to replLog (in index order)
	appendsSince int           // records since the last checkpoint
	pendingValue float64       // summed transaction value since the last checkpoint
	ckptIdx      uint64        // newest checkpoint's log index
	prevCkpt     uint64        // the one before it (0 until this process took one)
}

// layout is the data-directory format pinned in META: one node log plus
// per-shard checkpoint directories. Layout 1, one WAL per shard, wrote
// META without a layout key and cannot be read.
const layout = 2

// checkLayout pins the data directory's layout and shard count in META.
// The shard count is baked into the key routing (FNV mod shards):
// reopening with a different count would misroute every recovered key.
// Mismatches fail fast.
func checkLayout(dir string, shards int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "META")
	b, err := os.ReadFile(path)
	if err != nil {
		return os.WriteFile(path, []byte(fmt.Sprintf("layout=%d shards=%d\n", layout, shards)), 0o644)
	}
	var lay, n int
	if _, err := fmt.Sscanf(string(b), "layout=%d shards=%d", &lay, &n); err != nil || lay != layout || n <= 0 {
		if strings.HasPrefix(string(b), "shards=") {
			return fmt.Errorf("durable: data directory %s has the per-shard WAL layout of an older build, which this one cannot read (use a fresh -data-dir)", dir)
		}
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
// replay, and resets the feed's per-shard log bases to the recovered
// indices so shipped indices stay in lockstep with the log.
func Open(opts Options, store *shard.Store, feed *repl.Feed) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("durable: no data directory")
	}
	n := store.NumShards()
	if feed != nil && feed.Shards() != n {
		return nil, fmt.Errorf("durable: feed has %d shards, store %d", feed.Shards(), n)
	}
	if err := checkLayout(opts.Dir, n); err != nil {
		return nil, err
	}
	m := &Manager{
		opts:    opts,
		store:   store,
		epochs:  store.Epochs(),
		pending: make(map[uint64]*heldRecord),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
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
	if opts.Metrics != nil {
		log.fsyncObs = opts.Metrics.FsyncSeconds
	}
	// New epochs allocate above everything stamped on disk.
	m.epochs.Observe(maxEpoch)
	for i, ms := range m.shards {
		ms.next, ms.written, ms.synced = heads[i]+1, heads[i], heads[i]
		if feed != nil {
			ms.replLog = feed.Log(i)
			ms.replLog.ResetBase(heads[i], ms.maxEpoch)
			if ms.ckptIdx > 0 {
				ms.replLog.SetDurableFloor(ms.ckptIdx)
			}
		}
		m.recovered += heads[i]
		store.Shard(i).SetCommitLog(ms)
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
// for every install, it assigns the record's index (and a standalone
// record's epoch), accrues the shard's pending value for checkpoint
// prioritization, and puts the part into the node log. Publication to
// the replication log waits for the Sync that covers it.
func (ms *managedShard) AppendCommit(c engine.CommitRecord) uint64 {
	m := ms.m
	ms.mu.Lock()
	idx := ms.next
	ms.next++
	epoch := c.Epoch
	if epoch == 0 {
		// Standalone commits stamp their epoch here, under the shard
		// latch, so per-shard epoch order matches log order; cross-shard
		// epochs were allocated under every participant's latch, which
		// preserves the same invariant.
		epoch = m.epochs.Next()
	}
	ms.maxEpoch = max(ms.maxEpoch, epoch)
	ms.appendsSince++
	if c.Value > 0 {
		ms.pendingValue += c.Value
	}
	due := m.opts.CkptEvery > 0 && ms.appendsSince >= m.opts.CkptEvery
	if ms.replLog != nil {
		ms.unshipped = append(ms.unshipped, repl.Record{Index: idx, Epoch: epoch, Shards: c.Shards, Writes: c.Writes})
	}
	ms.mu.Unlock()
	if err := m.logPart(ms, epoch, len(c.Shards), idx, c.Writes); err != nil {
		m.errs.Add(1)
		ms.flight.Record(flight.EvWalError, 0, ms.idx, epoch)
		m.fail(err)
	}
	if due {
		select {
		case m.kick <- struct{}{}:
		default:
		}
	}
	return epoch
}

// logPart puts one shard's part of a commit into the node log. A
// standalone commit is a record of its own, written at once. A commit
// over shards participants arrives one part per participant, all under
// every participant's latch: the parts are held by epoch and the record
// is written whole when the last one arrives (the whole-frames rule,
// wal.go).
func (m *Manager) logPart(ms *managedShard, epoch uint64, shards int, idx uint64, writes map[string][]byte) error {
	p := part{shard: ms.idx, index: idx}
	if shards <= 1 {
		ms.buf = endRecord(appendPart(beginRecord(ms.buf[:0], epoch, 1), ms.idx, idx, writes), 0)
		end, err := m.log.write(ms.buf, []part{p})
		if err == nil {
			ms.markWritten(idx, end)
		}
		return err
	}
	m.pendMu.Lock()
	h := m.pending[epoch]
	if h == nil {
		h = &heldRecord{buf: beginRecord(nil, epoch, shards)}
		m.pending[epoch] = h
	}
	h.buf = appendPart(h.buf, ms.idx, idx, writes)
	h.parts, h.from = append(h.parts, p), append(h.from, ms)
	whole := len(h.parts) == shards
	if whole {
		delete(m.pending, epoch)
	}
	m.pendMu.Unlock()
	if !whole {
		return nil
	}
	end, err := m.log.write(endRecord(h.buf, 0), h.parts)
	if err != nil {
		return err
	}
	for i, from := range h.from {
		from.markWritten(h.parts[i].index, end)
	}
	return nil
}

// markWritten notes that the record holding this shard's part idx is in
// the log file, ending at end: Sync may now cover it, and ship it.
func (ms *managedShard) markWritten(idx uint64, end int64) {
	ms.mu.Lock()
	ms.written, ms.writtenEnd = idx, end
	ms.mu.Unlock()
}

// shipLocked publishes the head run of unshipped records that a sync
// covers. Order is the append order, keeping replLog in index lockstep
// with the log. Caller holds ms.mu.
func (ms *managedShard) shipLocked() {
	n := 0
	for _, r := range ms.unshipped {
		if r.Index > ms.synced {
			break
		}
		ms.replLog.AppendStamped(r.Writes, r.Epoch, r.Shards)
		n++
	}
	if n > 0 {
		ms.unshipped = ms.unshipped[n:]
		if len(ms.unshipped) == 0 {
			ms.unshipped = nil // release the backing array
		}
	}
}

// Durable implements engine.CommitLog: Sync is an fsync.
func (ms *managedShard) Durable() bool { return true }

// Sync implements engine.CommitLog: it syncs the node log through this
// shard's newest written record, then publishes the newly covered records
// to the replication log. The engine (and the cross-shard/replica apply
// paths) call it before any commit of the batch is acknowledged, so
// subscribers only ever stream records that are already durable here.
// The watermark is taken before the sync: a record written concurrently
// (by the next batch) is left for the sync that covers it. Of a batch's
// shards, the first Sync does the fsync and the rest find it done.
func (ms *managedShard) Sync() error {
	ms.mu.Lock()
	idx, end, epoch := ms.written, ms.writtenEnd, ms.maxEpoch
	ms.mu.Unlock()
	if err := ms.m.log.syncTo(end); err != nil {
		// A broken log also stops shipping: replicas must not apply
		// records this primary can no longer recover. The queue is simply
		// never drained further — the log is sticky-broken, the operator
		// policy is fail-stop.
		ms.m.errs.Add(1)
		ms.flight.Record(flight.EvFsyncError, 0, ms.idx, epoch)
		ms.m.fail(err)
		return err
	}
	ms.flight.Record(flight.EvFsync, 0, ms.idx, epoch)
	ms.mu.Lock()
	ms.synced = max(ms.synced, idx)
	if ms.replLog != nil {
		ms.shipLocked()
	}
	ms.mu.Unlock()
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
// and returns the shard indices in the order they were captured (the
// CKPT verb's work list). Shards whose state did not change are skipped.
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
// write. The in-memory log's durability floor advances to the new head:
// it serves joiners (who SNAP live state), never recovery.
func (m *Manager) checkpointShard(ms *managedShard) error {
	if met := m.opts.Metrics; met != nil {
		start := time.Now()
		defer func() { met.CheckpointSeconds.Observe(int64(time.Since(start))) }()
	}
	eng := m.store.Shard(ms.idx)
	eng.LockCommit()
	ms.mu.Lock()
	head, end, epoch := ms.next-1, ms.writtenEnd, ms.maxEpoch
	coveredAppends, coveredValue := ms.appendsSince, ms.pendingValue
	ms.mu.Unlock()
	kvs := make(map[string][]byte)
	eng.RangeLocked(func(k string, v []byte) bool {
		kvs[k] = append([]byte(nil), v...)
		return true
	})
	eng.UnlockCommit()

	if err := m.log.syncTo(end); err != nil {
		return err
	}
	if err := writeCheckpoint(ms.dir, ms.idx, head, epoch, kvs); err != nil {
		return err
	}
	m.log.at(hookRename)
	ms.flight.Record(flight.EvCheckpoint, 0, ms.idx, epoch)
	ms.mu.Lock()
	ms.prevCkpt, ms.ckptIdx = ms.ckptIdx, head
	// Subtract what this checkpoint covered rather than zeroing: commits
	// that landed during the (unlatched) file write are above head, so
	// their append counts and pending value must keep driving the next
	// checkpoint's timing and priority.
	ms.appendsSince -= coveredAppends
	ms.pendingValue = max(ms.pendingValue-coveredValue, 0)
	ms.mu.Unlock()
	if ms.replLog != nil {
		// Trimming advances to min(checkpoint, min acked subscriber,
		// retention window) — the log enforces the floors itself.
		ms.replLog.SetDurableFloor(head)
	}
	m.ckpts.Add(1)
	return nil
}

// RecoveredIndex reports the sum of per-shard commit-log indices
// restored at Open — zero for a cold start, the total acknowledged
// commit count survived for a restart.
func (m *Manager) RecoveredIndex() uint64 { return m.recovered }

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
	for _, ms := range m.shards {
		ms.Sync()
	}
	return m.log.close()
}
