// Package shard partitions the SCC engine horizontally: keys are
// hash-partitioned across N independent engine.Store shards behind one
// Update/Get transactional API. Transactions declare the keys they may
// touch (the paper fixes access lists at arrival, Sec. 2); the router
// uses the declaration purely for placement. All declared keys on one
// shard is the fast path: the closure runs natively on that shard's
// engine with the full SCC machinery and zero coordination. Keys on
// several shards run against a cross-shard optimistic view (committed
// reads with recorded versions, buffered writes) and commit atomically
// through one engine.CommitQueue per shard set (crosscommit.go): involved
// shards are latched in ascending index order — deadlock-free — and every
// read is validated and every write installed under that hold.
// Because every install, native or cross-shard, happens under its shard's
// commit latch, each shard has a single total commit order, which
// Config.CommitLogFor exposes as a replication log (internal/repl).
//
// See docs/ARCHITECTURE.md for where this layer sits in the system and
// docs/PROTOCOL.md for the serving protocol above it.
package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Tx is the transactional view a closure operates on. engine.Tx satisfies
// it, so the same closure runs unchanged on the single-shard fast path and
// on the cross-shard path. Stash is the race-free way to return data from
// a transaction: a closure may execute several times concurrently (engine
// shadows), so it must not mutate captured variables — it stashes a
// freshly built value instead, and the committed execution's stash is
// what UpdateTracedResult returns.
type Tx interface {
	Get(key string) ([]byte, error)
	Set(key string, val []byte) error
	Stash(v any)
}

// ErrKeyNotDeclared is returned when a closure touches a key on a shard
// outside its declared key set. (Undeclared keys on an involved shard are
// harmless and allowed; a key on a foreign shard cannot be routed after
// the fact.)
var ErrKeyNotDeclared = errors.New("shard: access to key outside declared shard set")

// ErrReadOnly is returned by Set inside a View.
var ErrReadOnly = errors.New("shard: Set inside read-only View")

// RetryGate decides whether a cross-shard transaction may re-execute
// after a validation failure. It is called with the 1-based retry number
// before each re-execution; returning a non-nil error abandons the
// transaction with that error. This is the hook the serving layer uses to
// make cross-shard retries value-cognizant: shed transactions whose value
// functions crossed zero and re-queue the rest by expected value, instead
// of retrying blindly until the attempt bound.
type RetryGate func(attempt int) error

// DefaultShards is the partition count used when Config.Shards is unset.
const DefaultShards = 16

// Config configures a sharded store.
type Config struct {
	// Shards is the number of partitions (default DefaultShards).
	Shards int
	// Engine configures every shard's engine identically. Cross-shard
	// validation retries share the engine's attempt bound,
	// engine.MaxAttempts; exhausting it surfaces as an
	// *engine.AttemptsError.
	Engine engine.Config
	// CommitLogFor, when non-nil, gives each shard's engine a commit log
	// (shard index -> log): every install on that shard, native or
	// cross-shard, is appended under its commit latch, yielding the
	// per-shard total order replication ships (see internal/repl).
	CommitLogFor func(shard int) engine.CommitLog
	// Epochs is the global commit-epoch counter cross-shard commits
	// allocate from; it must be the same instance the commit-log sinks
	// stamp standalone records with. Nil gets a private counter (fine
	// for stores without replication or durability).
	Epochs *engine.Epochs
}

// Stats aggregates per-shard engine counters and adds the router's own.
type Stats struct {
	// Engine is the sum of all shards' counters. Commits counts
	// single-shard (fast-path) commits only; cross-shard commits are
	// counted once in CrossCommits, not once per shard.
	Engine engine.Stats

	FastPath      int64 // transactions routed to a single shard
	CrossCommits  int64 // multi-shard transactions committed
	CrossRestarts int64 // multi-shard validation failures (re-executions)
	CrossBatches  int64 // latch-acquisition rounds spent on cross-shard commits
	Views         int64 // read-only multi-shard snapshots served
}

// TotalCommits returns all committed transactions regardless of path.
func (s Stats) TotalCommits() int64 { return s.Engine.Commits + s.CrossCommits }

// Store is a sharded engine.
type Store struct {
	shards      []*engine.Store
	epochs      *engine.Epochs
	closed      atomic.Bool
	groupCommit engine.GroupCommit // every shard's, and every cross-shard queue's
	countBatch  func()             // crossBatches++: one closure for every queue's per-flush hook
	queuesMu    sync.Mutex
	queues      map[string]*engine.CommitQueue // by shard-set signature

	fastPath      atomic.Int64
	crossCommits  atomic.Int64
	crossRestarts atomic.Int64
	crossBatches  atomic.Int64
	views         atomic.Int64
}

// Open returns an empty sharded store.
func Open(cfg Config) *Store {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Epochs == nil {
		cfg.Epochs = &engine.Epochs{}
	}
	s := &Store{
		shards:      make([]*engine.Store, cfg.Shards),
		epochs:      cfg.Epochs,
		groupCommit: cfg.Engine.GroupCommit,
		queues:      make(map[string]*engine.CommitQueue),
	}
	s.countBatch = func() { s.crossBatches.Add(1) }
	for i := range s.shards {
		ecfg := cfg.Engine
		if cfg.CommitLogFor != nil {
			ecfg.CommitLog = cfg.CommitLogFor(i)
		}
		s.shards[i] = engine.Open(ecfg)
	}
	return s
}

// NumShards returns the partition count.
func (s *Store) NumShards() int { return len(s.shards) }

// Epochs returns the store's global commit-epoch counter — the one
// instance every commit-log sink must stamp from (the durability layer
// reads it here so recovery can advance it past recovered epochs).
func (s *Store) Epochs() *engine.Epochs { return s.epochs }

// Shard returns one partition's engine. It exists for the layers that
// operate per shard — recovery wiring (SetCommitLog after replay),
// checkpoint/snapshot capture (LockCommit + RangeLocked) — not for
// routing reads or writes around the partitioner.
func (s *Store) Shard(i int) *engine.Store { return s.shards[i] }

// ShardOf returns the partition that owns key. The hash is FNV-1a
// inlined (identical values to hash/fnv.New32a) because this sits on
// every routed operation and the stdlib hasher heap-allocates.
func (s *Store) ShardOf(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.shards)))
}

// Get reads a committed value outside any transaction.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.shards[s.ShardOf(key)].Get(key)
}

// Stats returns aggregated counters.
func (s *Store) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		out.Engine.Add(sh.Stats())
	}
	out.FastPath = s.fastPath.Load()
	out.CrossCommits = s.crossCommits.Load()
	out.CrossRestarts = s.crossRestarts.Load()
	out.CrossBatches = s.crossBatches.Load()
	out.Views = s.views.Load()
	return out
}

// Close marks the store closed (mutating transactions on every path fail
// afterwards; reads and in-flight transactions drain normally) and closes
// every shard.
func (s *Store) Close() {
	s.closed.Store(true)
	for _, sh := range s.shards {
		sh.Close()
	}
}

// shardSet returns the sorted distinct shard indices owning keys.
func (s *Store) shardSet(keys []string) []int {
	seen := make(map[int]struct{}, 4)
	for _, k := range keys {
		seen[s.ShardOf(k)] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Update executes fn transactionally over the declared keys and blocks
// until it commits. keys must cover every key the closure may touch (extra
// keys are harmless). It is UpdateTracedResult with no value, no retry
// gate and no trace, the stash dropped.
func (s *Store) Update(keys []string, fn func(Tx) error) error {
	_, err := s.UpdateTracedResult(0, keys, nil, nil, fn)
	return err
}

// UpdateTracedResult is the full form of Update: it returns the
// committed execution's Tx.Stash value (nil if it never stashed), and
// takes a transaction value, a cross-shard retry gate and a lifecycle
// trace.
//
// On the single-shard fast path value feeds the engine's VW-style commit
// deferment; on the cross-shard path it is currently advisory
// (cross-shard commits validate optimistically and do not defer).
//
// After a cross-shard validation failure, gate is consulted before the
// re-execution and can abandon the transaction (value crossed zero) or
// delay it (re-queue through admission by expected value). A nil gate
// retries immediately; either way engine.MaxAttempts still bounds the
// loop. The gate plays no part on the single-shard fast path, whose
// conflicts the engine resolves internally with shadows.
//
// A non-nil tr is threaded into the fast-path engine (which stamps fork/
// park/resume/promotion/restart/install) and stamped by the cross-shard
// loop's own restarts and install. nil means untraced, at the cost of
// one branch per stage site.
func (s *Store) UpdateTracedResult(value float64, keys []string, gate RetryGate, tr *obs.Trace, fn func(Tx) error) (any, error) {
	if len(keys) == 0 {
		return nil, errors.New("shard: transaction declared no keys")
	}
	// Allocation-free routing for the common case: all declared keys on
	// one shard (always true for single-key transactions, the serving
	// layer's hottest path).
	idx := s.ShardOf(keys[0])
	single := true
	for _, k := range keys[1:] {
		if s.ShardOf(k) != idx {
			single = false
			break
		}
	}
	if single {
		s.fastPath.Add(1)
		return s.shards[idx].UpdateTracedResult(value, tr, func(etx *engine.Tx) error {
			return fn(guardTx{tx: etx, s: s, shard: idx})
		})
	}
	return s.updateCross(value, s.shardSet(keys), gate, tr, fn)
}

// guardTx wraps the native engine transaction on the fast path, verifying
// that every touched key routes to the declared shard. The check is what
// turns a mis-declared key set into a clean error instead of a silent read
// of the wrong partition.
type guardTx struct {
	tx    *engine.Tx
	s     *Store
	shard int
}

func (g guardTx) Get(key string) ([]byte, error) {
	if g.s.ShardOf(key) != g.shard {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotDeclared, key)
	}
	return g.tx.Get(key)
}

func (g guardTx) Set(key string, val []byte) error {
	if g.s.ShardOf(key) != g.shard {
		return fmt.Errorf("%w: %q", ErrKeyNotDeclared, key)
	}
	return g.tx.Set(key, val)
}

func (g guardTx) Stash(v any) { g.tx.Stash(v) }

// crossTx is the optimistic cross-shard view: reads observe committed
// values (first-read versions recorded per key), writes buffer privately.
type crossTx struct {
	s        *Store
	involved map[int]struct{}
	value    float64
	reads    map[string]uint64
	writes   map[string][]byte
	result   any
}

func (c *crossTx) Stash(v any) { c.result = v }

func (c *crossTx) Get(key string) ([]byte, error) {
	if w, ok := c.writes[key]; ok {
		out := make([]byte, len(w))
		copy(out, w)
		return out, nil
	}
	idx := c.s.ShardOf(key)
	if _, ok := c.involved[idx]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotDeclared, key)
	}
	val, ver := c.s.shards[idx].SnapshotRead(key)
	if _, seen := c.reads[key]; !seen {
		c.reads[key] = ver
	}
	return val, nil
}

func (c *crossTx) Set(key string, val []byte) error {
	idx := c.s.ShardOf(key)
	if _, ok := c.involved[idx]; !ok {
		return fmt.Errorf("%w: %q", ErrKeyNotDeclared, key)
	}
	buf := make([]byte, len(val))
	copy(buf, val)
	c.writes[key] = buf
	return nil
}

// updateCross runs the OCC execute/validate/apply loop for a multi-shard
// transaction, consulting gate (if any) before each re-execution. value
// rides along to the shards' commit logs (pending-value accounting for
// the durability layer); cross-shard conflict resolution itself stays
// optimistic.
func (s *Store) updateCross(value float64, involved []int, gate RetryGate, tr *obs.Trace, fn func(Tx) error) (any, error) {
	invSet := make(map[int]struct{}, len(involved))
	for _, i := range involved {
		invSet[i] = struct{}{}
	}
	for attempt := 0; attempt < engine.MaxAttempts; attempt++ {
		// Mirror the engine's Close semantics, which only the fast path
		// would otherwise enforce: no new cross-shard commits either.
		if s.closed.Load() {
			return nil, errors.New("shard: store closed")
		}
		if attempt > 0 {
			tr.Event(obs.StageRestart)
			if gate != nil {
				if err := gate(attempt); err != nil {
					return nil, err
				}
			}
		}
		c := &crossTx{
			s:        s,
			involved: invSet,
			value:    value,
			reads:    make(map[string]uint64),
			writes:   make(map[string][]byte),
		}
		if err := fn(c); err != nil {
			// The closure may have decided to error off an inconsistent
			// cross-shard cut (reads of different shards interleaved with
			// a concurrent commit). Surface the error only if the reads
			// still validate — i.e. a serializable execution really
			// produced it; otherwise retry like any validation failure.
			// (A validate-only pass installs nothing, so it cannot fail
			// durability.)
			if ok, _ := s.commitCross(involved, c, false, nil); len(c.reads) > 0 && !ok {
				s.crossRestarts.Add(1)
				continue
			}
			return nil, err
		}
		ok, cerr := s.commitCross(involved, c, true, tr)
		if cerr != nil {
			// Installed but never decided durable: the verdict is an
			// error, and the transaction must not be retried — its writes
			// are already in memory.
			return nil, cerr
		}
		if ok {
			s.crossCommits.Add(1)
			tr.Event(obs.StageInstall)
			return c.result, nil
		}
		s.crossRestarts.Add(1)
	}
	return nil, fmt.Errorf("shard: cross-shard transaction: %w", &engine.AttemptsError{Attempts: engine.MaxAttempts})
}

// ApplyReplicated installs a batch of replicated commit records on one
// shard: one batch through the commit pipeline with no validation, each
// record's writes applied in slice order through the same ApplyLocked
// path cross-shard commits use, so replicated installs bump versions and
// broadcast-abort exactly like native ones. This is the replica side of
// log shipping (internal/repl); records must arrive in log order. The
// replica's ACK covering these records follows this call, so an acked
// record is a durable one on a durable replica — and a failed boundary
// fails the apply before any ACK is cut.
func (s *Store) ApplyReplicated(shard int, records []map[string][]byte) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("shard: ApplyReplicated to unknown shard %d of %d", shard, len(s.shards))
	}
	return engine.Commit(s.shards, []int{shard}, func() {
		for _, writes := range records {
			s.shards[shard].ApplyLocked(writes, 0)
		}
	})
}

// ApplyReplicatedCross installs one replicated cross-shard commit: parts
// maps each participant shard to its writes, and every part is applied
// under a single hold of all the participants' latches — the replica-side
// apply barrier, making the commit visible all-shards-at-once exactly as
// it committed on the primary. On a durable replica the parts are logged
// as one record like a native cross-shard commit's (under a locally
// allocated epoch), so a replica crash mid-apply also recovers
// all-or-nothing. Records must arrive in per-shard log order; the caller
// (internal/repl's replica loop) holds them until every participant's
// part is next in line.
func (s *Store) ApplyReplicatedCross(parts map[int]map[string][]byte) error {
	involved := make([]int, 0, len(parts))
	for idx := range parts {
		if idx < 0 || idx >= len(s.shards) {
			return fmt.Errorf("shard: ApplyReplicatedCross to unknown shard %d of %d", idx, len(s.shards))
		}
		involved = append(involved, idx)
	}
	sort.Ints(involved)
	return engine.Commit(s.shards, involved, func() { s.installLocked(parts, 0, nil) })
}

// View runs fn as a serializable read-only transaction over the declared
// keys: the involved shards are latched in ascending order for the
// duration, so fn observes a consistent cut across partitions. It never
// retries and never fails validation — the latches are the snapshot.
func (s *Store) View(keys []string, fn func(Tx) error) error {
	involved := s.shardSet(keys)
	if len(involved) == 0 {
		return errors.New("shard: view declared no keys")
	}
	invSet := make(map[int]struct{}, len(involved))
	for _, i := range involved {
		invSet[i] = struct{}{}
	}
	for _, idx := range involved {
		s.shards[idx].LockCommit()
	}
	defer func() {
		for _, idx := range involved {
			s.shards[idx].UnlockCommit()
		}
	}()
	s.views.Add(1)
	return fn(viewTx{s: s, involved: invSet})
}

// viewTx reads committed state under held latches.
type viewTx struct {
	s        *Store
	involved map[int]struct{}
}

func (v viewTx) Get(key string) ([]byte, error) {
	idx := v.s.ShardOf(key)
	if _, ok := v.involved[idx]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotDeclared, key)
	}
	val, _ := v.s.shards[idx].GetLocked(key)
	return val, nil
}

func (v viewTx) Set(string, []byte) error { return ErrReadOnly }

// Stash is a no-op: a View closure runs exactly once in the caller's
// goroutine (no shadows, no retries), so mutating captured variables is
// already safe there.
func (v viewTx) Stash(any) {}
