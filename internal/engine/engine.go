// Package engine is a live, concurrent in-memory key-value store using
// Speculative Concurrency Control — the systems counterpart of the
// simulator in internal/rtdbs.
//
// A transaction is a deterministic closure over Tx. Its optimistic shadow
// runs the closure immediately, on the caller's goroutine, reading
// committed values. On a detected read-write conflict the engine forks a
// speculative shadow: a second run of the closure on a pooled goroutine
// (pool.go), parked at the conflicting read until the conflicter
// resolves. A transaction carries no channel of its own until a parked
// shadow or a deferral must block on it (event, wait.go). If the
// conflict materializes, the optimistic shadow aborts and the speculative
// one wakes with the fresh value, finishing without a from-scratch
// restart. OCC-BC mode restarts instead (the paper's baseline). Closures
// must be deterministic and side-effect free before Update returns: all
// but one concurrent run is discarded.
//
// Commits coalesce in the store's commit queue (commitqueue.go), and every
// install is appended to the store's commit log (SetCommitLog) under the
// store latch — the total commit order replication ships (internal/repl)
// — and crosses one commit boundary before its verdict (commit.go). Layer map:
// docs/ARCHITECTURE.md.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Mode selects the concurrency control protocol.
type Mode int

const (
	// SCC2S runs an optimistic shadow plus up to one speculative shadow
	// per transaction (the paper's SCC-2S).
	SCC2S Mode = iota
	// OCCBC runs optimistically and restarts on broadcast commit.
	OCCBC
)

func (m Mode) String() string {
	if m == OCCBC {
		return "OCC-BC"
	}
	return "SCC-2S"
}

// ErrAborted is returned by Tx operations inside a shadow that lost its
// conflict; the closure must propagate it (or any error wrapping it).
var ErrAborted = errors.New("engine: shadow aborted")

// AttemptsError reports a transaction that exhausted its re-execution
// budget without committing — the engine's "I give up under contention"
// verdict. It is a distinct type so callers (the serving layer's TXN
// COMMIT) can classify it as a retryable conflict without matching
// message text.
type AttemptsError struct{ Attempts int }

func (e *AttemptsError) Error() string {
	return fmt.Sprintf("engine: transaction exceeded %d attempts", e.Attempts)
}

// MaxAttempts bounds a transaction's executions — closure re-executions
// here, cross-shard validation retries in internal/shard. Exhausting it
// surfaces as an *AttemptsError.
const MaxAttempts = 100

// Config configures a Store. The attempt budget is not part of it: every
// store bounds a transaction by MaxAttempts.
type Config struct {
	Mode Mode
	// GroupCommit coalesces commit critical sections: transactions that
	// finish while a flush is running commit together under one store-latch
	// acquisition and one log sync when it completes. See commitqueue.go.
	GroupCommit GroupCommit
}

// Stats are cumulative engine counters.
type Stats struct {
	Commits    int64
	Aborts     int64 // optimistic shadows aborted by conflicting commits
	Restarts   int64 // from-scratch re-executions (OCC-BC path)
	Forks      int64 // speculative shadows forked
	Promotions int64 // speculative shadows that finished the transaction
	Deferrals  int64 // commits deferred for a higher-value conflicter
	// CommitBatches counts commit-latch acquisitions spent processing
	// commit attempts, one per flush of the commit queue. A flush whose
	// steps all fail validation counts too, so under contention
	// Commits/CommitBatches falls below 1 and is not the coalescing win.
	CommitBatches int64
	// ConflictScans counts in-flight handles examined by the Read and
	// Write Rules — the O(active) work that makes conflict detection
	// expensive under load.
	ConflictScans int64
}

// Add accumulates other's counters into s (shard-level aggregation lives
// here so a counter added to the struct cannot be silently dropped from
// aggregates).
func (s *Stats) Add(other Stats) {
	s.Commits += other.Commits
	s.Aborts += other.Aborts
	s.Restarts += other.Restarts
	s.Forks += other.Forks
	s.Promotions += other.Promotions
	s.Deferrals += other.Deferrals
	s.CommitBatches += other.CommitBatches
	s.ConflictScans += other.ConflictScans
}

// Store is the engine.
type Store struct {
	cfg   Config
	queue *CommitQueue // over this store alone; every commit attempt goes through it

	mu        sync.Mutex
	log       CommitLog    // never nil: nopLog without a commit log
	durable   atomic.Bool  // log.Durable(), readable without mu
	fence     func() error // the commit boundary's last check (SetFence); may be nil
	dirty     bool         // installed since the last commit boundary
	committed map[string]versioned
	active    []*txnHandle // in flight, in arrival order
	stats     Stats
	closed    bool

	pool Pool // the speculative shadows' goroutines
}

type versioned struct {
	val []byte
	ver uint64
}

// Open returns an empty store.
func Open(cfg Config) *Store {
	s := &Store{
		cfg:       cfg,
		log:       nopLog{},
		committed: make(map[string]versioned),
	}
	s.queue = NewCommitQueue([]*Store{s}, []int{0}, cfg.GroupCommit, func() { s.stats.CommitBatches++ })
	return s
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Get reads a committed value outside any transaction.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.committed[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v.val))
	copy(out, v.val)
	return out, true
}

// txnHandle is one logical transaction: the closure plus its shadows.
type txnHandle struct {
	store *Store
	fn    func(*Tx) error
	value float64
	tr    *obs.Trace // nil unless the request asked for a lifecycle trace
	// beforeWait is the caller's wait seam (wait.go), called by the
	// driver only; nil when the caller may block anywhere.
	beforeWait func()

	// done fires when the driver returns: the transaction committed or
	// gave up. Shadows of other transactions gate on it, and deferrals
	// wait for it.
	done event

	// guarded by store.mu:
	// opt is the current optimistic attempt. It is set before the handle
	// joins store.active and never cleared, so every rule that walks
	// active dereferences it unchecked.
	opt      *attempt
	shadow   *attempt
	resolved bool
	result   any // the committed attempt's stashed result
	// attempts counts restarts so far: the commit queue's priority.
	// Written only between rounds (no attempt of h is queued then).
	attempts int
}

// attempt is one shadow: a single run of the closure.
type attempt struct {
	h    *txnHandle
	tx   Tx   // the closure's view, pointing back here
	spec bool // speculative: parks at gateIdx until the gate opens
	// gateIdx is the read ordinal to park at. The gate opens when the
	// conflicting transaction resolves (gateOn.done) or when its current
	// optimistic attempt aborts (gateAtt.aborted) — the latter keeps the
	// engine live when two transactions' shadows would otherwise gate on
	// each other after a third party aborts both optimistic runs. All
	// three are fixed at the fork.
	gateIdx int
	gateOn  *txnHandle
	gateAtt *attempt

	aborted event // fired under store.mu (abortLocked)
	// keys is every key the attempt has read or written, in first-touch
	// order; every conflict rule looks a key up in it with find. keys,
	// inline and index are guarded by store.mu: other transactions' rules
	// read them under it. inline is the storage of the first len(inline)
	// keys, so a short transaction allocates none; index is built once the
	// list passes indexAt keys, so a long one is not scanned quadratically.
	keys    []txKey
	inline  [4]txKey
	index   map[string]int
	readSeq int // this attempt's goroutine only
	result  any // written only by this attempt's goroutine via Tx.Stash
	// committed is set by commitLocked, in the flush that serves this
	// attempt; tryCommit reads it once the queue has delivered the verdict.
	committed bool
	report    chan verdict // speculative shadows only: the one verdict, buffered
}

// newAttempt returns h's next optimistic attempt, or a speculative one
// when report is non-nil.
func newAttempt(h *txnHandle, report chan verdict) *attempt {
	a := &attempt{h: h, spec: report != nil, report: report}
	a.tx.a = a
	return a
}

// txKey is one key of an attempt's key list, guarded by store.mu. read
// is set by the first read that did not see the attempt's own write, and
// fixes ver (the committed version it saw) and readAt (its read ordinal);
// write is set by the first Set, and val is the buffered value.
type txKey struct {
	key    string
	ver    uint64
	readAt int
	val    []byte
	read   bool
	write  bool
}

// indexAt is the key count past which an attempt indexes its key list.
const indexAt = 8

// find returns key's slot, nil if a has not touched key. The pointer is
// valid until the next append. Caller holds store.mu.
func (a *attempt) find(key string) *txKey {
	if a.index != nil {
		if i, ok := a.index[key]; ok {
			return &a.keys[i]
		}
		return nil
	}
	for i := range a.keys {
		if a.keys[i].key == key {
			return &a.keys[i]
		}
	}
	return nil
}

// slot is find, appending an empty slot on the key's first touch.
func (a *attempt) slot(key string) *txKey {
	if k := a.find(key); k != nil {
		return k
	}
	if a.keys == nil {
		a.keys = a.inline[:0]
	}
	a.keys = append(a.keys, txKey{key: key})
	if a.index != nil {
		a.index[key] = len(a.keys) - 1
	} else if len(a.keys) > indexAt {
		a.index = make(map[string]int, 2*len(a.keys))
		for i := range a.keys {
			a.index[a.keys[i].key] = i
		}
	}
	return &a.keys[len(a.keys)-1]
}

func (a *attempt) abortLocked(s *Store) {
	if a.aborted.fire() {
		s.stats.Aborts++
	}
}

// Tx is the transactional view a closure operates on.
type Tx struct {
	a *attempt
}

// Get returns the value of key as of this shadow's serialization view.
func (tx *Tx) Get(key string) ([]byte, error) {
	a := tx.a
	s := a.h.store

	// A speculative shadow parks at its gate until the conflicting
	// transaction resolves (commit or give-up) — the simulator's Blocking
	// Rule.
	if a.spec && a.readSeq == a.gateIdx {
		a.h.tr.Event(obs.StagePark)
		if a.park() {
			return nil, ErrAborted
		}
		a.h.tr.Event(obs.StageResume)
	}
	if a.aborted.fired() {
		return nil, ErrAborted
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	k := a.slot(key)
	if k.write {
		// Read-your-writes from the private buffer: not a read.
		out := make([]byte, len(k.val))
		copy(out, k.val)
		a.readSeq++
		return out, nil
	}
	v := s.committed[key]
	if !k.read {
		k.read, k.ver, k.readAt = true, v.ver, a.readSeq
	}
	idx := k.readAt
	a.readSeq++

	// Read Rule: this read conflicts with every in-flight writer of key.
	if !a.spec && s.cfg.Mode == SCC2S {
		for _, other := range s.active {
			if other == a.h || other.resolved {
				continue
			}
			s.stats.ConflictScans++
			if o := other.opt.find(key); o != nil && o.write {
				s.forkShadowLocked(a.h, other, idx)
			}
		}
	}
	out := make([]byte, len(v.val))
	copy(out, v.val)
	return out, nil
}

// Stash records v as this execution's result. A closure may run several
// times concurrently (shadows); each execution must Stash into its own
// freshly built value, and only the execution that commits has its stash
// returned by UpdateTracedResult. This is the race-free way to get data
// out of a transaction: captured variables are shared across shadow
// runs, stashes are not.
func (tx *Tx) Stash(v any) { tx.a.result = v }

// Set buffers a write.
func (tx *Tx) Set(key string, val []byte) error {
	a := tx.a
	s := a.h.store
	if a.aborted.fired() {
		return ErrAborted
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := a.slot(key)
	k.val = make([]byte, len(val))
	copy(k.val, val)
	k.write = true
	if !a.spec {
		// Write Rule: in-flight readers of key gain a conflict with us.
		if s.cfg.Mode == SCC2S {
			for _, other := range s.active {
				if other == a.h || other.resolved {
					continue
				}
				s.stats.ConflictScans++
				if o := other.opt.find(key); o != nil && o.read {
					s.forkShadowLocked(other, a.h, o.readAt)
				}
			}
		}
	}
	return nil
}

// gateShut reports whether speculative shadow a may still park at its
// gate: the conflict it was forked on is unresolved.
func (a *attempt) gateShut() bool {
	return !a.gateOn.done.fired() && !a.gateAtt.aborted.fired()
}

// park blocks speculative shadow a at its gate until the gate opens or a
// is aborted, and reports whether a was aborted. The events' channels are
// made only when the gate is still shut.
func (a *attempt) park() (aborted bool) {
	if a.aborted.fired() {
		return true
	}
	if !a.gateShut() {
		return false
	}
	s := a.h.store
	s.mu.Lock()
	gate, gateAtt, self := a.gateOn.done.waitLocked(), a.gateAtt.aborted.waitLocked(), a.aborted.waitLocked()
	s.mu.Unlock()
	select {
	case <-gate:
	case <-gateAtt:
	case <-self:
		return true
	}
	return false
}

// forkShadowLocked gives h a speculative shadow gated on the resolution of
// gateOn. SCC-2S keeps a single shadow: an existing one is kept (it parks
// at the earliest conflict already; re-running the closure from the start
// subsumes any later gate).
func (s *Store) forkShadowLocked(h, gateOn *txnHandle, gateIdx int) {
	if h.shadow != nil || h.resolved {
		return
	}
	sh := newAttempt(h, make(chan verdict, 1))
	sh.gateIdx, sh.gateOn, sh.gateAtt = gateIdx, gateOn, gateOn.opt
	h.shadow = sh
	s.stats.Forks++
	h.tr.Event(obs.StageFork)
	s.pool.Go(func() { h.runAttempt(sh) })
}

// Update executes fn transactionally and blocks until an execution of fn
// commits (or the attempt budget is exhausted / fn returns a non-conflict
// error). All Update transactions have equal worth and run untraced; it
// is UpdateTracedResult(0, nil, nil, fn) with the stash dropped.
func (s *Store) Update(fn func(*Tx) error) error {
	_, err := s.UpdateTracedResult(0, nil, nil, fn)
	return err
}

// UpdateTracedResult is the full form of Update: it returns the
// committed execution's Tx.Stash value (nil if it never stashed), and
// takes a transaction value, a lifecycle trace and a wait hook.
//
// value is the live-engine counterpart of SCC-VW's commit deferment: a
// finished transaction whose in-flight conflicters include one of
// strictly higher value yields to it (waits for it to resolve, then
// revalidates) instead of committing immediately and destroying the more
// valuable work. Strict value dominance makes deferral cycles
// impossible. Zero-value transactions never defer and are never yielded
// to.
//
// When tr is non-nil, every stage the transaction passes through inside
// the engine — fork, park, resume, promotion, restart, defer, install —
// is stamped onto it, from whichever shadow goroutine reaches the stage.
// A nil tr costs one predictable branch per site.
//
// beforeWait, when non-nil, is called on the calling goroutine before
// each blocking wait of the call (wait.go); a transaction that never
// waits never calls it.
//
// h.result is published under the store latch by the winning attempt's
// tryCommit before resolved is set, so reading it after observing the
// commit is race-free even if a losing shadow is still executing the
// closure.
func (s *Store) UpdateTracedResult(value float64, tr *obs.Trace, beforeWait func(), fn func(*Tx) error) (any, error) {
	h := &txnHandle{
		store:      s,
		fn:         fn,
		value:      value,
		tr:         tr,
		beforeWait: beforeWait,
	}
	defer h.done.fire()

	for attempts := 0; attempts < MaxAttempts; attempts++ {
		a := newAttempt(h, nil)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, errors.New("engine: store closed")
		}
		h.opt = a
		h.shadow = nil
		h.attempts = attempts
		if !slices.Contains(s.active, h) {
			s.active = append(s.active, h)
		}
		if attempts > 0 {
			s.stats.Restarts++
			h.tr.Event(obs.StageRestart)
		}
		s.mu.Unlock()

		v := h.runSync(a)
		if v.committed {
			if v.err != nil {
				// Installed but never made durable (Sync failed): the
				// verdict is an error, not success — no ack may race a
				// failed sync. The transaction must not be retried.
				s.handOff(h, false)
				return nil, v.err
			}
			return h.result, nil
		}
		// The optimistic run did not commit: it lost a conflict (restart,
		// unless a speculative shadow finishes the transaction first) or
		// the closure failed (give up, unless a shadow already committed —
		// the commit wins).
		fnErr := v.err
		if errors.Is(fnErr, ErrAborted) {
			fnErr = nil
		}
		sh, resolved := s.handOff(h, fnErr == nil)
		if sh != nil {
			// A committing shadow's verdict is delivered only after the
			// commit boundary (tryCommit/flush order), so even a commit
			// already visible as resolved is acknowledged off the report,
			// never off the flag — and a boundary error on it must surface
			// as failure, not success. The wait is one to announce while
			// the shadow can still park at its conflict (the Blocking
			// Rule); past its gate, onDevice decides, as for a commit.
			wait := h.beforeWait
			if !sh.gateShut() {
				wait = s.queue.onDevice(wait)
			}
			sv := Await(sh.report, wait)
			if !resolved {
				_, resolved = s.handOff(h, false)
			}
			if resolved {
				if sv.err != nil {
					return nil, sv.err
				}
				return h.result, nil
			}
			if fnErr == nil && !errors.Is(sv.err, ErrAborted) {
				fnErr = sv.err
			}
		}
		if fnErr != nil {
			return nil, fnErr
		}
		// Detached and unresolved: fall through to a fresh optimistic
		// attempt (restart).
	}
	return nil, &AttemptsError{Attempts: MaxAttempts}
}

// handOff is the one place a driver lets go of a round whose optimistic
// run is over, and it decides in a single critical section. Split in two,
// a fork landing between "do I have a shadow?" and "leave the active set"
// can run and commit the transaction behind a driver that goes on to
// restart it: every later attempt bounces off resolved and the caller is
// told AttemptsError for an installed commit.
//
// With wait set and a shadow that has not committed, h stays active and
// the shadow is returned for the driver to wait on; its slot stays
// occupied, so nothing else can fork meanwhile. Otherwise h is detached —
// what is left of the shadow is aborted and h leaves the active set, after
// which neither the Read nor the Write Rule can fork for it — and resolved
// says whether an attempt already committed; sh is then the committing
// shadow, whose report the driver must still receive. Restarting, giving
// up and returning a closure error are sound only on a detached,
// unresolved handle.
func (s *Store) handOff(h *txnHandle, wait bool) (sh *attempt, resolved bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, resolved = h.shadow, h.resolved
	if sh != nil && wait && !resolved {
		return sh, false
	}
	if sh != nil {
		sh.abortLocked(s)
		h.shadow = nil
	}
	s.leaveLocked(h)
	if !resolved {
		sh = nil
	}
	return sh, resolved
}

// leaveLocked takes h out of the in-flight set, keeping arrival order; a
// handle already out stays out. Caller holds s.mu.
func (s *Store) leaveLocked(h *txnHandle) {
	if i := slices.Index(s.active, h); i >= 0 {
		s.active = slices.Delete(s.active, i, i+1)
	}
}

type verdict struct {
	err       error
	committed bool
}

// runSync runs an attempt in the calling goroutine.
func (h *txnHandle) runSync(a *attempt) verdict {
	if err := h.fn(&a.tx); err != nil {
		return verdict{err: err}
	}
	h.store.deferForValue(a)
	return h.store.tryCommit(a, h.beforeWait)
}

// deferForValue implements the VW-style Termination Rule: while a strictly
// higher-value transaction conflicts with the finished attempt, wait for
// it to resolve (bounded rounds keep the engine robust against value
// churn). The subsequent validation handles whatever happened meanwhile.
//
// What a deferral protects is the other transaction's optimistic run,
// which this commit would abort. Once that run is aborted anyway there is
// nothing left to protect — and its driver may by then be waiting on a
// shadow that is parked on this very transaction, so holding on would
// deadlock the three of them. Such handles are skipped, and a deferral in
// progress ends when the protected run aborts.
func (s *Store) deferForValue(a *attempt) {
	for round := 0; round < 3; round++ {
		s.mu.Lock()
		var wait *txnHandle
		for _, other := range s.active {
			if other == a.h || other.resolved || other.value <= a.h.value || other.opt.aborted.fired() {
				continue
			}
			conflict := false
			for _, k := range a.keys {
				if o := other.opt.find(k.key); o != nil && (k.write && o.read || k.read && o.write) {
					conflict = true
					break
				}
			}
			if conflict && (wait == nil || other.value > wait.value) {
				wait = other
			}
		}
		if wait == nil {
			s.mu.Unlock()
			return
		}
		s.stats.Deferrals++
		a.h.tr.Event(obs.StageDefer)
		done, protected, self := wait.done.waitLocked(), wait.opt.aborted.waitLocked(), a.aborted.waitLocked()
		s.mu.Unlock()
		if a.h.beforeWait != nil {
			a.h.beforeWait()
		}
		select {
		case <-done:
		case <-protected:
		case <-self:
			return
		}
	}
}

// runAttempt executes a speculative shadow to completion and reports.
func (h *txnHandle) runAttempt(sh *attempt) {
	if err := h.fn(&sh.tx); err != nil {
		sh.report <- verdict{err: err}
		return
	}
	sh.report <- h.store.tryCommit(sh, nil)
}

// tryCommit validates and installs an attempt's writes through the commit
// queue. The verdict is not committed if the attempt read stale data (a
// conflicting transaction committed first); the caller falls back to its
// shadow or restarts. A successful commit is reported only once it has
// crossed the commit boundary (Commit): a boundary failure reports
// committed with a *SyncError — installed, but never to be acknowledged.
// beforeWait is the driver's hook, nil on a shadow's goroutine.
func (s *Store) tryCommit(a *attempt, beforeWait func()) verdict {
	err := s.queue.Commit(a.h.attempts, beforeWait, func() bool { return s.commitLocked(a) })
	return verdict{err: err, committed: a.committed}
}

// PendingCommits reports how many finished attempts are queued behind the
// running commit-queue flush.
func (s *Store) PendingCommits() int { return s.queue.Pending() }

// commitLocked is the commit critical section: validate the attempt's
// reads against committed state and install its writes. Caller holds s.mu.
func (s *Store) commitLocked(a *attempt) bool {
	h := a.h
	if a.aborted.fired() {
		return false
	}
	if h.resolved {
		return false // another shadow of this transaction already won
	}
	if !s.validateLocked(a) {
		a.abortLocked(s)
		return false
	}
	var writes map[string][]byte // retained by the commit log
	for _, k := range a.keys {
		if k.write {
			if writes == nil {
				writes = make(map[string][]byte, len(a.keys))
			}
			writes[k.key] = k.val
		}
	}
	h.resolved = true
	h.result = a.result
	s.leaveLocked(h)
	if a.spec {
		s.stats.Promotions++
		h.tr.Event(obs.StagePromotion)
	}
	// Stamp the epoch the log gave this install before the install stage,
	// so the flight event carries it too.
	h.tr.SetEpoch(s.installLocked(CommitRecord{Writes: writes, Value: h.value}))
	s.stats.Commits++
	h.tr.Event(obs.StageInstall)
	a.committed = true
	return true
}

// validateLocked reports whether every read of a still observes the
// committed version it saw. Caller holds s.mu.
func (s *Store) validateLocked(a *attempt) bool {
	for _, k := range a.keys {
		if k.read && s.committed[k.key].ver != k.ver {
			return false
		}
	}
	return true
}

// installLocked logs and installs a standalone record (applyLocked) and
// returns the epoch the log stamped on it (0 for an empty write set).
// Callers hold s.mu.
func (s *Store) installLocked(rec CommitRecord) uint64 {
	if len(rec.Writes) == 0 {
		return 0
	}
	epoch := s.log.AppendCommit(rec)
	s.applyLocked(rec.Writes)
	return epoch
}

// applyLocked installs writes with bumped versions, marks the store as
// owing a commit boundary and broadcasts the commit: in-flight optimistic
// shadows that read what was written are aborted. Their speculative
// shadows (often gated on the committer) take over — the gate opens when
// the committing handle's done event fires. Callers hold s.mu.
func (s *Store) applyLocked(writes map[string][]byte) {
	s.dirty = true
	for key, val := range writes {
		s.committed[key] = versioned{val: val, ver: s.committed[key].ver + 1}
	}
	for _, other := range s.active {
		if other.resolved {
			continue
		}
		for key := range writes {
			if o := other.opt.find(key); o != nil && o.read {
				other.opt.abortLocked(s)
				break
			}
		}
	}
}

// Close marks the store closed; subsequent Updates fail. In-flight
// transactions drain normally, and Close returns once their shadows have
// finished and the pooled goroutines have exited.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.pool.Close()
}
