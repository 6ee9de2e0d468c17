// Package durable gives the sharded SCC store crash durability: a
// per-shard write-ahead log fed by the engine's commit hook (wal.go),
// periodic whole-shard checkpoints at a recorded log index
// (checkpoint.go), and a recovery path that loads the newest valid
// checkpoint and replays the WAL suffix through the engine's ApplyLocked
// hook, truncating torn tails. A Hekaton-shaped design: main-memory
// state, sequential log, snapshot checkpoints — no in-place paging.
//
// Checkpointing is value-cognizant: the background checkpointer ranks
// shards by the summed transaction value committed since their last
// checkpoint (every engine.CommitRecord carries it), so the
// highest-value working set becomes durable — and its log replay
// shortest — first. Recovery itself replays each shard in strict index
// order; value decides what is checkpointed when, never what is kept.
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
	// Dir is the data directory; one subdirectory per shard is created
	// under it. Empty disables durability.
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
	// Flight, when non-nil, receives durability events (fsync, intent,
	// decision, checkpoint, reconciliation) on its per-shard rings, and
	// is dumped to <Dir>/flight/ on the failure paths: the first sticky
	// WAL failure (before OnError fail-stops the process) and a boot
	// that discarded undecided cross-shard epochs.
	Flight *flight.Recorder
}

// Metrics are the durability layer's instruments, registered by the
// serving layer and shared across shards.
type Metrics struct {
	// FsyncSeconds observes each WAL fsync — the stall every commit in a
	// batch waits out before its verdict under the group policy.
	FsyncSeconds *obs.Histogram
	// CheckpointSeconds observes whole-shard checkpoint passes: rotate,
	// latched snapshot, atomic file write, trim.
	CheckpointSeconds *obs.Histogram
}

// Stats are cumulative durability counters, summed over shards.
type Stats struct {
	WALAppends     int64  // data records appended to WALs
	WALFsyncs      int64  // fsync calls issued by WALs
	Checkpoints    int64  // checkpoint files written
	RecoveredIndex uint64 // sum of per-shard commit-log indices restored at boot
	Errors         int64  // WAL append/sync failures (sticky per shard)
	Intents        int64  // cross-shard intent records appended to WALs
	Reconciled     int64  // undecided cross-shard epochs discarded at boot
}

// Manager wires durability through a shard.Store: it recovers the store
// at Open, installs itself as every shard's commit log (feeding both the
// WAL and, when present, the replication feed), and runs the
// value-prioritized background checkpointer.
type Manager struct {
	opts   Options
	store  *shard.Store
	feed   *repl.Feed // may be nil (durability without replication)
	epochs *engine.Epochs

	shards     []*managedShard
	recovered  uint64
	reconciled int64
	ckpts      atomic.Int64
	errs       atomic.Int64
	failOnce   sync.Once

	ckptMu sync.Mutex // serializes checkpoint passes
	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}
}

// fail reports a sticky WAL failure, once: the flight recorder is
// dumped (the black box survives the fail-stop), then the OnError hook
// runs. Both happen on their own goroutine — fail is called from under
// shard latches and WAL locks, and neither the dump's file I/O nor the
// hook (typically a fail-stop shutdown) may re-enter them; the dump
// strictly precedes the hook so it completes before any process exit.
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
// and through it any live REPL subscriber — only after the WAL has it
// on stable storage (at Sync under the group policy, inside the append
// under always, after the write(2) under off). Shipping first would
// let a crash-and-recover primary disown a record a replica already
// applied, then reissue its index with different writes. Cross-shard
// records are additionally gated on their decision: until ReleaseCross
// reports the epoch's decision record durable, the record — and, to
// preserve log order, everything appended behind it — stays unshipped;
// a crash in that window discards the epoch at recovery, so a replica
// must never have seen it.
type managedShard struct {
	m       *Manager
	idx     int
	dir     string
	wal     *WAL
	flight  *flight.Ring // this shard's flight ring (nil-safe)
	replLog *repl.Log    // nil without a feed

	mu           sync.Mutex
	next         uint64              // next commit-log index (lockstep with wal and replLog)
	synced       uint64              // highest index covered by a successful fsync (ship gate)
	maxEpoch     uint64              // highest epoch appended (the checkpoint watermark)
	unshipped    []shipEntry         // WAL-written, not yet published to replLog (in index order)
	gated        map[uint64]struct{} // cross epochs installed here whose decision is not yet durable
	appendsSince int                 // records since the last checkpoint
	pendingValue float64             // summed transaction value since the last checkpoint
	ckptIdx      uint64              // newest checkpoint's log index
}

// shipEntry is one appended record awaiting publication to the
// replication log: it ships only once fsync-covered and (for a
// cross-shard record) un-gated, and only from the queue's head.
type shipEntry struct {
	rec   repl.Record
	gated bool
}

// Open recovers the store from dir and wires durability into it. The
// store must be freshly opened, idle, and have no commit logs installed
// yet: recovery replays history through ApplyLocked, and the replay must
// not re-log itself — Open installs the commit-log sinks only after the
// replay, and resets the feed's per-shard log bases to the recovered
// indices so shipped indices stay in lockstep with the WAL.
func Open(opts Options, store *shard.Store, feed *repl.Feed) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("durable: no data directory")
	}
	if feed != nil && feed.Shards() != store.NumShards() {
		return nil, fmt.Errorf("durable: feed has %d shards, store %d", feed.Shards(), store.NumShards())
	}
	m := &Manager{
		opts:  opts,
		store: store,
		feed:  feed,
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	// The shard count is baked into the directory layout AND the key
	// routing (FNV mod shards): reopening with a different count would
	// silently drop the extra shards' history and misroute every
	// recovered key. A META file pins it; mismatches fail fast.
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	metaPath := filepath.Join(opts.Dir, "META")
	if b, err := os.ReadFile(metaPath); err == nil {
		var shards int
		if _, err := fmt.Sscanf(string(b), "shards=%d", &shards); err != nil || shards <= 0 {
			return nil, fmt.Errorf("durable: unreadable META %q in %s", string(b), opts.Dir)
		}
		if shards != store.NumShards() {
			return nil, fmt.Errorf("durable: data directory %s is laid out for %d shards, server has %d (restart with -shards %d or use a fresh -data-dir)",
				opts.Dir, shards, store.NumShards(), shards)
		}
	} else if err := os.WriteFile(metaPath, []byte(fmt.Sprintf("shards=%d\n", store.NumShards())), 0o644); err != nil {
		return nil, err
	}
	// Recovery is parallel per shard with a global reconciliation barrier
	// in the middle. Phase one (parallel) collects each shard's durable
	// remains: checkpoint, scanned WAL entries. Then — serially, because
	// it needs every shard's evidence at once — the cross-shard epochs are
	// reconciled: an epoch with data records but no durable decision
	// anywhere (and no coordinator checkpoint covering it) was torn
	// mid-commit and is discarded on EVERY shard. Phase two (parallel
	// again) replays each shard, skipping discarded epochs. The outcome is
	// bit-identical to a sequential boot, and on failure the error of the
	// LOWEST shard index wins so repeated boots of the same damaged
	// directory report the same fault.
	boots := make([]shardBoot, store.NumShards())
	closeAll := func() {
		for i := range boots {
			if boots[i].wal != nil {
				boots[i].wal.Close()
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < store.NumShards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			boots[i].err = m.collectShard(i, &boots[i])
		}(i)
	}
	wg.Wait()
	for i := range boots {
		if err := boots[i].err; err != nil {
			closeAll()
			return nil, err
		}
	}
	discard, maxEpoch := reconcile(boots)
	m.reconciled = int64(len(discard))
	for epoch := range discard {
		slog.Warn("durable: discarding cross-shard commit with no durable decision (torn mid-commit)",
			"epoch", epoch)
	}
	for i := 0; i < store.NumShards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			boots[i].err = m.replayShard(i, &boots[i], discard)
		}(i)
	}
	wg.Wait()
	for i := range boots {
		if err := boots[i].err; err != nil {
			closeAll()
			return nil, err
		}
	}
	// New epochs must allocate above everything ever stamped on disk —
	// including discarded epochs, whose dead data records may still sit in
	// the WAL: reusing such a number could pair them with a fresh decision
	// on the next boot and resurrect torn writes.
	m.epochs = store.Epochs()
	m.epochs.Observe(maxEpoch)
	for i := range boots {
		b := &boots[i]
		ms := &managedShard{
			m:        m,
			idx:      i,
			dir:      b.dir,
			wal:      b.wal,
			flight:   opts.Flight.Shard(i),
			next:     b.head + 1,
			synced:   b.head,
			maxEpoch: b.lastEpoch,
			gated:    make(map[uint64]struct{}),
			ckptIdx:  b.ckptIdx,
		}
		if feed != nil {
			log := feed.Log(i)
			log.ResetBase(b.head, b.lastEpoch)
			if ms.ckptIdx > 0 {
				log.SetDurableFloor(ms.ckptIdx)
			}
			ms.replLog = log
		}
		m.shards = append(m.shards, ms)
		m.recovered += b.head
		store.Shard(i).SetCommitLog(ms)
	}
	// A boot that discarded torn commits is itself a fault worth a black
	// box: the reconcile events recorded during replay (plus whatever the
	// rings already hold) are dumped so the merge tool can line the
	// discards up against the pre-crash primary's walfail dump by epoch.
	if len(discard) > 0 {
		if _, err := opts.Flight.DumpDir(filepath.Join(opts.Dir, "flight"), "reconcile"); err != nil {
			slog.Warn("durable: flight dump after reconciliation failed", "err", err)
		}
	}
	go m.checkpointLoop()
	return m, nil
}

// shardBoot is one shard's recovery state, filled by collectShard and
// replayShard.
type shardBoot struct {
	dir       string
	wal       *WAL
	ckptIdx   uint64            // newest checkpoint's log index
	ckptEpoch uint64            // its commit-epoch watermark
	kvs       map[string][]byte // its key/value pairs
	entries   []walEntry        // WAL entries above (and control records around) it
	head      uint64            // recovered commit-log head (set by replayShard)
	lastEpoch uint64            // newest applied epoch (set by replayShard)
	err       error
}

// collectShard gathers one shard's durable remains without touching the
// engine: checkpoint load + WAL scan. Replay waits for reconciliation.
func (m *Manager) collectShard(i int, b *shardBoot) error {
	b.dir = filepath.Join(m.opts.Dir, fmt.Sprintf("shard-%04d", i))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	var err error
	b.ckptIdx, b.ckptEpoch, b.kvs, err = loadCheckpoint(b.dir, i)
	if err != nil {
		return err
	}
	b.wal, b.entries, err = openWAL(b.dir, m.opts.Fsync, b.ckptIdx)
	if err != nil {
		return err
	}
	if m.opts.Metrics != nil {
		b.wal.fsyncObs = m.opts.Metrics.FsyncSeconds
	}
	return nil
}

// reconcile decides the fate of every cross-shard epoch found in the
// boots: keep it everywhere (a decision record survives on its
// coordinator, or the coordinator's checkpoint epoch covers it — the
// checkpoint never captures undecided epochs, see checkpointShard) or
// discard it everywhere. It also returns the highest epoch seen anywhere,
// the floor for new allocations.
func reconcile(boots []shardBoot) (discard map[uint64]bool, maxEpoch uint64) {
	decided := make(map[uint64]bool)
	see := func(e uint64) {
		if e > maxEpoch {
			maxEpoch = e
		}
	}
	for i := range boots {
		see(boots[i].ckptEpoch)
		for _, e := range boots[i].entries {
			switch e.kind {
			case walDecision:
				decided[e.epoch] = true
				see(e.epoch)
			case walIntent:
				see(e.epoch)
			case walData:
				see(e.rec.Epoch)
			}
		}
	}
	discard = make(map[uint64]bool)
	for i := range boots {
		for _, e := range boots[i].entries {
			if e.kind != walData || !e.rec.Cross() || e.rec.Index <= boots[i].ckptIdx {
				continue
			}
			epoch, coord := e.rec.Epoch, e.rec.Shards[0]
			if decided[epoch] {
				continue
			}
			if coord >= 0 && coord < len(boots) && boots[coord].ckptEpoch >= epoch {
				continue
			}
			discard[epoch] = true
		}
	}
	return discard, maxEpoch
}

// replayShard restores one shard: install the checkpoint, then the WAL
// suffix above it, in strict index order, all under one latch hold.
// Data records of discarded epochs consume their index — the log
// numbering is shared with surviving records — but their writes are not
// applied: the torn commit never happened, on any shard.
func (m *Manager) replayShard(i int, b *shardBoot, discard map[uint64]bool) error {
	eng := m.store.Shard(i)
	eng.LockCommit()
	defer eng.UnlockCommit()
	if len(b.kvs) > 0 {
		eng.ApplyLocked(b.kvs, 0)
	}
	head, lastEpoch := b.ckptIdx, b.ckptEpoch
	for _, e := range b.entries {
		if e.kind != walData {
			continue
		}
		rec := e.rec
		if rec.Index <= b.ckptIdx {
			continue // pre-checkpoint residue in the active segment
		}
		if rec.Index != head+1 {
			return fmt.Errorf("durable: shard %d WAL gap: record %d after %d (checkpoint %d)",
				i, rec.Index, head, b.ckptIdx)
		}
		head = rec.Index
		if rec.Cross() && discard[rec.Epoch] {
			m.opts.Flight.Shard(i).Record(flight.EvReconcileDiscard, 0, i, rec.Epoch)
			continue
		}
		eng.ApplyLocked(rec.Writes, 0)
		if rec.Epoch > lastEpoch {
			lastEpoch = rec.Epoch
		}
	}
	b.head, b.lastEpoch = head, lastEpoch
	return nil
}

// AppendCommit implements engine.CommitLog: called under the shard
// latch for every install, it writes the WAL and accrues the shard's
// pending-value for checkpoint prioritization. Publication to the
// replication log is deferred to the Sync boundary (see the type
// comment); under FsyncAlways the append itself synced, so the record
// ships immediately unless queued behind a gated cross-shard record. One
// shard's part of a cross-shard commit arrives stamped with the
// combiner's pre-allocated epoch and participant set and is gated — it
// ships only after ReleaseCross reports the epoch's decision durable.
func (ms *managedShard) AppendCommit(c engine.CommitRecord) uint64 {
	epoch, cross := c.Epoch, len(c.Shards) > 1
	ms.mu.Lock()
	idx := ms.next
	ms.next++
	if epoch == 0 {
		// Standalone commits stamp their epoch here, under the shard
		// latch, so per-shard epoch order matches log order; cross-shard
		// epochs were allocated by the combiner under every participant's
		// latch, which preserves the same invariant.
		epoch = ms.m.epochs.Next()
	}
	if epoch > ms.maxEpoch {
		ms.maxEpoch = epoch
	}
	ms.appendsSince++
	if c.Value > 0 {
		ms.pendingValue += c.Value
	}
	due := ms.m.opts.CkptEvery > 0 && ms.appendsSince >= ms.m.opts.CkptEvery
	rec := repl.Record{Index: idx, Epoch: epoch, Shards: c.Shards, Writes: c.Writes}
	err := ms.wal.Append(rec)
	if err != nil {
		ms.m.errs.Add(1)
		ms.flight.Record(flight.EvWalError, 0, ms.idx, epoch)
	} else {
		if cross {
			ms.gated[epoch] = struct{}{}
		}
		if ms.replLog != nil {
			if ms.m.opts.Fsync == FsyncAlways && idx > ms.synced {
				ms.synced = idx // Append synced inline
			}
			ms.unshipped = append(ms.unshipped, shipEntry{rec: rec, gated: cross})
			ms.shipLocked()
		}
	}
	ms.mu.Unlock()
	ms.m.fail(err)

	if due {
		select {
		case ms.m.kick <- struct{}{}:
		default:
		}
	}
	return epoch
}

// AppendIntent writes the INTENT record a cross-shard commit puts on
// every participant ahead of the epoch's data records, under this
// shard's commit latch.
func (ms *managedShard) AppendIntent(epoch uint64, shards []int) {
	ms.control(ms.wal.AppendIntent(epoch, shards), flight.EvIntent, epoch)
}

// AppendDecision writes the epoch's decision record — the cross-shard
// commit point. Called without the shard latch, strictly after round 1
// made every participant's intents and data durable; the caller syncs
// this WAL afterwards (round 2).
func (ms *managedShard) AppendDecision(epoch uint64) {
	ms.control(ms.wal.AppendDecision(epoch), flight.EvDecision, epoch)
}

// control books one control-record append. A failure leaves the WAL
// sticky-broken, so the commit pipeline meets it again at the next Sync.
func (ms *managedShard) control(err error, event string, epoch uint64) {
	if err != nil {
		ms.m.errs.Add(1)
		ms.flight.Record(flight.EvWalError, 0, ms.idx, epoch)
		ms.m.fail(err)
		return
	}
	ms.flight.Record(event, 0, ms.idx, epoch)
}

// ReleaseCross un-gates the epoch's record for replication shipping: its
// decision is durable, so a crash can no longer discard it. Ships the
// newly eligible prefix.
func (ms *managedShard) ReleaseCross(epoch uint64) {
	ms.mu.Lock()
	delete(ms.gated, epoch)
	for i := range ms.unshipped {
		if ms.unshipped[i].rec.Epoch == epoch {
			ms.unshipped[i].gated = false
			break
		}
	}
	if ms.replLog != nil {
		ms.shipLocked()
	}
	ms.mu.Unlock()
}

// shipLocked publishes the head run of unshipped records that are both
// fsync-covered and un-gated. Order is the append order — a gated or
// unsynced record holds everything behind it, keeping replLog in index
// lockstep with the WAL. Caller holds ms.mu.
func (ms *managedShard) shipLocked() {
	n := 0
	for _, e := range ms.unshipped {
		if e.gated || e.rec.Index > ms.synced {
			break
		}
		ms.replLog.AppendStamped(e.rec.Writes, e.rec.Epoch, e.rec.Shards)
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

// Sync implements engine.CommitLog: one WAL sync per commit batch,
// then publication of the newly covered records to the replication log.
// The engine (and the cross-shard/replica apply paths) call it before
// any commit of the batch is acknowledged, so subscribers only ever
// stream records that are already durable here. The sync watermark is
// captured BEFORE the fsync: a record appended concurrently (by the next
// batch, under the shard latch) after this fsync returned would
// otherwise be published without being durable yet — the exact
// disown-and-reissue hazard sync-before-ship exists to prevent.
func (ms *managedShard) Sync() error {
	ms.mu.Lock()
	last := ms.next - 1
	watermark := ms.maxEpoch
	ms.mu.Unlock()
	if err := ms.wal.Sync(); err != nil {
		ms.m.errs.Add(1)
		// Tag the failing sync in the flight ring: once with the shard's
		// epoch watermark, then once per cross-shard epoch still gated
		// (undecided) here — exactly the epochs recovery will reconcile,
		// so the walfail dump names them before the fail-stop.
		ms.flight.Record(flight.EvFsyncError, 0, ms.idx, watermark)
		ms.mu.Lock()
		gated := make([]uint64, 0, len(ms.gated))
		for e := range ms.gated {
			gated = append(gated, e)
		}
		ms.mu.Unlock()
		sort.Slice(gated, func(i, j int) bool { return gated[i] < gated[j] })
		for _, e := range gated {
			ms.flight.Record(flight.EvFsyncError, 0, ms.idx, e)
		}
		// A broken WAL also stops shipping: replicas must not apply
		// records this primary can no longer recover. The queue is
		// simply never drained further — the WAL is sticky-broken, the
		// operator policy is fail-stop.
		ms.m.fail(err)
		return err
	}
	ms.flight.Record(flight.EvFsync, 0, ms.idx, watermark)
	ms.mu.Lock()
	if last > ms.synced {
		ms.synced = last
	}
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
		due := m.plan(func(ms *managedShard, appends int) bool {
			return m.opts.CkptEvery > 0 && appends >= m.opts.CkptEvery
		})
		for _, ms := range due {
			select {
			case <-m.stop:
				return
			default:
			}
			if err := m.checkpointShard(ms); err != nil {
				if msg := err.Error(); msg != lastLogged {
					lastLogged = msg
					slog.Warn("durable: checkpoint failed; will retry and WAL keeps growing",
						"shard", ms.idx, "err", err)
				}
			} else {
				lastLogged = ""
			}
		}
	}
}

// plan returns the shards selected by keep, ordered by pending value
// (descending; append count breaks ties) — the value-cognizant
// checkpoint order: the shard holding the most not-yet-durable value is
// captured first.
func (m *Manager) plan(keep func(ms *managedShard, appends int) bool) []*managedShard {
	type cand struct {
		ms      *managedShard
		value   float64
		appends int
	}
	var cands []cand
	for _, ms := range m.shards {
		ms.mu.Lock()
		v, n := ms.pendingValue, ms.appendsSince
		ms.mu.Unlock()
		if keep(ms, n) {
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
// checkpoint, highest pending-value first, and returns the shard indices
// in the order they were captured (the CKPT verb's work list). Shards
// whose state did not change are skipped.
func (m *Manager) CheckpointAll() ([]int, error) {
	var order []int
	var firstErr error
	for _, ms := range m.plan(func(_ *managedShard, appends int) bool { return appends > 0 }) {
		if err := m.checkpointShard(ms); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		order = append(order, ms.idx)
	}
	return order, firstErr
}

// checkpointShard captures one shard: rotate the WAL (so every earlier
// segment becomes trimmable as a whole file), snapshot the shard's state
// and its commit-log head under one latch hold, write the checkpoint
// atomically, then trim WAL segments and advance the in-memory log's
// durability floor.
func (m *Manager) checkpointShard(ms *managedShard) error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	if met := m.opts.Metrics; met != nil {
		start := time.Now()
		defer func() { met.CheckpointSeconds.Observe(int64(time.Since(start))) }()
	}
	if err := ms.wal.Rotate(); err != nil {
		m.errs.Add(1)
		return err
	}
	eng := m.store.Shard(ms.idx)
	eng.LockCommit()
	ms.mu.Lock()
	head := ms.next - 1
	epoch := ms.maxEpoch
	coveredAppends := ms.appendsSince
	coveredValue := ms.pendingValue
	gated := make([]uint64, 0, len(ms.gated))
	for e := range ms.gated {
		gated = append(gated, e)
	}
	ms.mu.Unlock()
	kvs := make(map[string][]byte)
	eng.RangeLocked(func(k string, v []byte) bool {
		kvs[k] = append([]byte(nil), v...)
		return true
	})
	eng.UnlockCommit()

	// The snapshot may include cross-shard installs whose decision is not
	// yet durable. Publishing a checkpoint (with epoch watermark >= their
	// epochs) before they decide would promote them to "decided" under
	// recovery's coordinator-checkpoint rule — tearing a commit the other
	// participants discard. Wait the captured undecided epochs out (they
	// are mid-protocol, at most two fsyncs away); if the WAL breaks they
	// never decide, and the checkpoint is abandoned with the failure.
	if err := ms.waitReleased(gated); err != nil {
		m.errs.Add(1)
		return err
	}
	if err := writeCheckpoint(ms.dir, ms.idx, head, epoch, kvs); err != nil {
		m.errs.Add(1)
		return err
	}
	ms.flight.Record(flight.EvCheckpoint, 0, ms.idx, epoch)
	ms.mu.Lock()
	prev := ms.ckptIdx
	ms.ckptIdx = head
	// Subtract what this checkpoint covered rather than zeroing: commits
	// that landed during the (unlatched) file write are above head, so
	// their append counts and pending value must keep driving the next
	// checkpoint's timing and priority.
	ms.appendsSince -= coveredAppends
	ms.pendingValue -= coveredValue
	if ms.pendingValue < 0 {
		ms.pendingValue = 0
	}
	ms.mu.Unlock()
	// On-disk history is pruned only below the PREVIOUS checkpoint: the
	// newest-but-one checkpoint and the WAL suffix above it survive
	// until the next pass, so recovery can fall back if the newest file
	// is ever found corrupt. The in-memory log has no such constraint —
	// it serves joiners (who SNAP live state), never recovery — so its
	// durability floor advances to the new head.
	pruneCheckpoints(ms.dir, prev)
	ms.wal.TrimSegments(prev)
	if ms.replLog != nil {
		// Trimming advances to min(checkpoint, min acked subscriber,
		// retention window) — the log enforces the floors itself.
		ms.replLog.SetDurableFloor(head)
	}
	m.ckpts.Add(1)
	return nil
}

// waitReleased blocks until none of the given cross-shard epochs is
// still gated on this shard (their decisions are durable), any WAL is
// sticky-broken (they never will be), or a timeout expires.
func (ms *managedShard) waitReleased(epochs []uint64) error {
	if len(epochs) == 0 {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		ms.mu.Lock()
		live := false
		for _, e := range epochs {
			if _, ok := ms.gated[e]; ok {
				live = true
				break
			}
		}
		ms.mu.Unlock()
		if !live {
			return nil
		}
		if err := ms.m.Err(); err != nil {
			return fmt.Errorf("durable: shard %d checkpoint abandoned, cross-shard commit cannot decide: %w", ms.idx, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("durable: shard %d checkpoint stalled on undecided cross-shard epochs %v", ms.idx, epochs)
		}
		time.Sleep(time.Millisecond)
	}
}

// RecoveredIndex reports the sum of per-shard commit-log indices
// restored at Open — zero for a cold start, the total acknowledged
// commit count survived for a restart.
func (m *Manager) RecoveredIndex() uint64 { return m.recovered }

// Stats returns a snapshot of the durability counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		RecoveredIndex: m.recovered,
		Checkpoints:    m.ckpts.Load(),
		Errors:         m.errs.Load(),
		Reconciled:     m.reconciled,
	}
	for _, ms := range m.shards {
		s.WALAppends += ms.wal.appends.Load()
		s.WALFsyncs += ms.wal.fsyncs.Load()
		s.Intents += ms.wal.intents.Load()
	}
	return s
}

// Err returns the first sticky WAL failure across shards, if any.
func (m *Manager) Err() error {
	for _, ms := range m.shards {
		if err := ms.wal.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the checkpointer and closes every WAL, syncing pending
// bytes. The store must be quiesced first (no in-flight commits).
func (m *Manager) Close() error {
	close(m.stop)
	<-m.done
	var firstErr error
	for _, ms := range m.shards {
		ms.Sync() // flush + ship any batch-tail records
		if err := ms.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
