// Package shard partitions the SCC engine horizontally: keys are
// hash-partitioned across N independent engine.Store shards behind one
// Update/Get transactional API. Transactions declare the keys they may
// touch (the paper fixes access lists at arrival, Sec. 2); the router
// uses the declaration purely for placement. All declared keys on one
// shard is the fast path: the closure runs natively on that shard's
// engine with the full SCC machinery and zero coordination. Keys on
// several shards run against a cross-shard optimistic view — one flat
// list of the declared keys, sorted, each with its shard, first-read
// version and buffered write — and commit atomically through one
// engine.CommitQueue per shard set (crosscommit.go): involved shards are
// latched in ascending index order — deadlock-free — and every read is
// validated and every write installed under that hold.
// Because every install, native or cross-shard, happens under its shard's
// commit latch, each shard has a single total commit order, which the
// commit log a shard's engine is given (engine.Store.SetCommitLog)
// records for replication and durability (internal/repl,
// internal/durable).
//
// See docs/ARCHITECTURE.md for where this layer sits in the system and
// docs/PROTOCOL.md for the serving protocol above it.
package shard

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
		s.shards[i] = engine.Open(cfg.Engine)
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

// shardsOf returns the ascending, deduplicated shards of n keys, the i-th
// of which lives on shard(i).
func shardsOf(n int, shard func(i int) int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = shard(i)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Update executes fn transactionally over the declared keys and blocks
// until it commits. keys must cover every key the closure may touch (extra
// keys are harmless). It is UpdateTracedResult with no value, no retry
// gate, no trace and no wait hook, the stash dropped.
func (s *Store) Update(keys []string, fn func(Tx) error) error {
	_, err := s.UpdateTracedResult(0, keys, nil, nil, nil, fn)
	return err
}

// UpdateTracedResult is the full form of Update: it returns the
// committed execution's Tx.Stash value (nil if it never stashed), and
// takes a transaction value, a cross-shard retry gate, a lifecycle trace
// and a wait hook.
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
//
// beforeWait travels like tr: into the fast-path engine, and into the
// cross-shard loop's commit queue. It is called on the calling goroutine
// before each wait of the call (engine/wait.go); the gate, which may
// itself wait, receives nothing and closes over it if it needs it.
func (s *Store) UpdateTracedResult(value float64, keys []string, gate RetryGate, tr *obs.Trace, beforeWait func(), fn func(Tx) error) (any, error) {
	if len(keys) == 0 {
		return nil, errors.New("shard: transaction declared no keys")
	}
	// Allocation-free routing for the common case: all declared keys on
	// one shard (always true for single-key transactions, the serving
	// layer's hottest path).
	idx := s.ShardOf(keys[0])
	if !slices.ContainsFunc(keys[1:], func(k string) bool { return s.ShardOf(k) != idx }) {
		s.fastPath.Add(1)
		return s.shards[idx].UpdateTracedResult(value, tr, beforeWait, func(etx *engine.Tx) error {
			return fn(guardTx{tx: etx, s: s, shard: idx})
		})
	}
	return s.updateCross(s.newCrossTx(keys, value), gate, tr, beforeWait, fn)
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

// crossKey is one key of a cross-shard transaction: its shard, the
// version its first read saw (read), and its buffered write (write).
type crossKey struct {
	key         string
	shard       int
	ver         uint64
	val         []byte
	read, write bool
}

// crossTx is the optimistic cross-shard view: reads observe committed
// values (first-read versions recorded per key), writes buffer privately.
// keys[:declared] is the declared key set, sorted and deduplicated;
// undeclared keys the closure touches on an involved shard follow it.
// One crossTx serves every attempt of its transaction (reset).
type crossTx struct {
	s        *Store
	involved []int // ascending shards of the declared keys
	keys     []crossKey
	declared int
	attempt  int // restarts so far: the commit-queue priority, against starvation
	value    float64
	result   any
}

// newCrossTx builds the key list of a transaction declaring keys.
func (s *Store) newCrossTx(keys []string, value float64) *crossTx {
	c := &crossTx{s: s, value: value, keys: make([]crossKey, len(keys))}
	for i, k := range keys {
		c.keys[i] = crossKey{key: k, shard: s.ShardOf(k)}
	}
	slices.SortFunc(c.keys, func(a, b crossKey) int { return strings.Compare(a.key, b.key) })
	c.keys = slices.CompactFunc(c.keys, func(a, b crossKey) bool { return a.key == b.key })
	c.declared = len(c.keys)
	c.involved = shardsOf(c.declared, func(i int) int { return c.keys[i].shard })
	return c
}

// reset starts the given attempt: undeclared keys go, and every flag,
// version, buffered write and the stash are cleared.
func (c *crossTx) reset(attempt int) {
	c.attempt, c.keys = attempt, c.keys[:c.declared]
	for i, k := range c.keys {
		c.keys[i] = crossKey{key: k.key, shard: k.shard}
	}
	c.result = nil
}

// entry returns key's slot: a binary search of the declared prefix, then
// a scan of the short undeclared tail, to which a key on an involved
// shard is appended. A key on any other shard cannot be routed.
func (c *crossTx) entry(key string) (*crossKey, error) {
	if i, ok := slices.BinarySearchFunc(c.keys[:c.declared], key, func(k crossKey, key string) int {
		return strings.Compare(k.key, key)
	}); ok {
		return &c.keys[i], nil
	}
	if i := slices.IndexFunc(c.keys[c.declared:], func(k crossKey) bool { return k.key == key }); i >= 0 {
		return &c.keys[c.declared+i], nil
	}
	idx := c.s.ShardOf(key)
	if !slices.Contains(c.involved, idx) {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotDeclared, key)
	}
	c.keys = append(c.keys, crossKey{key: key, shard: idx})
	return &c.keys[len(c.keys)-1], nil
}

func (c *crossTx) Stash(v any) { c.result = v }

func (c *crossTx) Get(key string) ([]byte, error) {
	k, err := c.entry(key)
	if err != nil {
		return nil, err
	}
	if k.write {
		return append([]byte{}, k.val...), nil
	}
	val, ver := c.s.shards[k.shard].SnapshotRead(key)
	if !k.read {
		k.read, k.ver = true, ver
	}
	return val, nil
}

func (c *crossTx) Set(key string, val []byte) error {
	k, err := c.entry(key)
	if err != nil {
		return err
	}
	k.val, k.write = append([]byte{}, val...), true
	return nil
}

// updateCross runs the OCC execute/validate/apply loop for a multi-shard
// transaction, consulting gate (if any) before each re-execution. Its
// value rides along to the shards' commit logs (pending-value accounting
// for the durability layer); cross-shard conflict resolution itself stays
// optimistic.
func (s *Store) updateCross(c *crossTx, gate RetryGate, tr *obs.Trace, beforeWait func(), fn func(Tx) error) (any, error) {
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
		c.reset(attempt)
		if err := fn(c); err != nil {
			// The closure may have decided to error off an inconsistent
			// cross-shard cut (reads of different shards interleaved with
			// a concurrent commit). Surface the error only if the reads
			// still validate — i.e. a serializable execution really
			// produced it; otherwise retry like any validation failure.
			// (A validate-only pass installs nothing, so it cannot fail
			// durability.)
			if ok, _ := s.commitCross(c, false, nil, beforeWait); !ok {
				s.crossRestarts.Add(1)
				continue
			}
			return nil, err
		}
		ok, cerr := s.commitCross(c, true, tr, beforeWait)
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

// Replicated is one replicated commit record: Writes[j] is shard
// Shards[j]'s part, Shards ascending. A standalone record has one part.
type Replicated struct {
	Shards []int
	Writes []map[string][]byte
}

// ApplyReplicated installs a replica's round of records, in log order, as
// one batch through the commit pipeline: one hold of the latches of every
// shard the round touches, each record installed without validation by
// installLocked — versions bump and local readers are broadcast-aborted as
// for native commits, and a multi-shard record is logged as one record —
// then one log sync. No reader sees part of a round, and the replica's ACK
// for it follows the sync. Records come off the wire: a part on an
// unknown shard, or parts out of ascending order, fail the whole round.
func (s *Store) ApplyReplicated(recs []Replicated) error {
	var latch []int
	for _, rec := range recs {
		for j, idx := range rec.Shards {
			if idx < 0 || idx >= len(s.shards) || (j > 0 && idx <= rec.Shards[j-1]) {
				return fmt.Errorf("shard: ApplyReplicated to shards %v, want ascending indices below %d", rec.Shards, len(s.shards))
			}
		}
		latch = append(latch, rec.Shards...)
	}
	slices.Sort(latch)
	return engine.Commit(s.shards, slices.Compact(latch), nil, func() {
		for _, rec := range recs {
			s.installLocked(rec.Shards, rec.Writes, 0, nil)
		}
	})
}

// View runs fn as a serializable read-only transaction over the declared
// keys: the involved shards are latched in ascending order for the
// duration, so fn observes a consistent cut across partitions. It never
// retries and never fails validation — the latches are the snapshot.
func (s *Store) View(keys []string, fn func(Tx) error) error {
	involved := shardsOf(len(keys), func(i int) int { return s.ShardOf(keys[i]) })
	if len(involved) == 0 {
		return errors.New("shard: view declared no keys")
	}
	for _, idx := range involved {
		s.shards[idx].LockCommit()
	}
	defer func() {
		for _, idx := range involved {
			s.shards[idx].UnlockCommit()
		}
	}()
	return fn(viewTx{s: s, involved: involved})
}

// viewTx reads committed state under held latches.
type viewTx struct {
	s        *Store
	involved []int
}

func (v viewTx) Get(key string) ([]byte, error) {
	idx := v.s.ShardOf(key)
	if !slices.Contains(v.involved, idx) {
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
