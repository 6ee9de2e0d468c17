// Package engine is a live, concurrent in-memory key-value store using
// Speculative Concurrency Control with goroutine shadows — the systems
// counterpart of the simulator in internal/rtdbs.
//
// A transaction is a deterministic closure over Tx. Its optimistic shadow
// runs the closure immediately, reading committed values. On a detected
// read-write conflict the engine forks a speculative shadow: a second
// goroutine re-running the closure, parked at the conflicting read until
// the conflicter resolves. If the conflict materializes, the optimistic
// shadow aborts and the speculative one wakes with the fresh value,
// finishing without a from-scratch restart. OCC-BC mode restarts instead
// (the paper's baseline). Closures must be deterministic and side-effect
// free before Update returns: all but one concurrent run is discarded.
//
// Commits coalesce in the store's commit queue (commitqueue.go), and every
// install is appended to Config.CommitLog under the store latch — the
// total commit order replication ships (internal/repl) — and crosses one
// commit boundary before its verdict (commit.go). Layer map:
// docs/ARCHITECTURE.md.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

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
	// CommitLog, when non-nil, receives every installed write set under
	// the store's commit latch — the store's total commit order, suitable
	// for replication log shipping (internal/repl) and write-ahead
	// logging (internal/durable). It can also be installed after Open
	// with SetCommitLog, which recovery uses to replay history unlogged.
	CommitLog CommitLog
	// Metrics, when non-nil, receives hot-path observations (group-commit
	// batch sizes and flush latency, speculative-shadow park waits,
	// conflict-scan work). All fields must be populated. Each observation
	// is an atomic add or two, so leaving this enabled in production is
	// the intended configuration.
	Metrics *Metrics
}

// Metrics are the engine's optional instruments, registered by the
// serving layer in its obs.Registry and shared across shards (the
// counters aggregate; the per-shard split is not worth the label
// cardinality).
type Metrics struct {
	// BatchSize observes commits processed per commit-latch acquisition;
	// the coalescing win is its mean.
	BatchSize *obs.Histogram
	// FlushSeconds observes commit-queue flush latency: latch acquisition
	// through log sync and fence — how long the commits queueing behind the
	// flush wait for theirs to start.
	FlushSeconds *obs.Histogram
	// ParkSeconds observes how long speculative shadows sit parked at
	// their gate — the park→promotion gap when the shadow goes on to win.
	ParkSeconds *obs.Histogram
	// ConflictScans counts in-flight handles examined by the Read and
	// Write Rules — the O(active) work that makes conflict detection
	// expensive under load.
	ConflictScans *obs.Counter
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
	// commit attempts, one per flush of the commit queue — the coalescing
	// win is Commits/CommitBatches.
	CommitBatches int64
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
}

// Store is the engine.
type Store struct {
	cfg   Config
	queue *CommitQueue // over this store alone; every commit attempt goes through it

	mu        sync.Mutex
	log       CommitLog    // never nil: nopLog without a commit log
	fence     func() error // the commit boundary's last check (SetFence); may be nil
	dirty     bool         // installed since the last commit boundary
	committed map[string]versioned
	active    []*txnHandle // in flight, in arrival order
	stats     Stats
	closed    bool
}

type versioned struct {
	val []byte
	ver uint64
}

// Open returns an empty store.
func Open(cfg Config) *Store {
	s := &Store{
		cfg:       cfg,
		committed: make(map[string]versioned),
	}
	s.SetCommitLog(cfg.CommitLog)
	s.queue = NewCommitQueue([]*Store{s}, []int{0}, cfg.GroupCommit, func() { s.stats.CommitBatches++ }, cfg.Metrics)
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

	// done is closed when the transaction commits or gives up; shadows of
	// other transactions gate on it.
	done chan struct{}

	// guarded by store.mu:
	opt      *attempt
	shadow   *attempt
	writes   map[string][]byte // optimistic shadow's write buffer
	resolved bool
	result   any // the committed attempt's stashed result
	// attempts counts restarts so far: the commit queue's priority.
	// Written only between rounds (no attempt of h is queued then).
	attempts int
}

// attempt is one shadow: a single run of the closure.
type attempt struct {
	h    *txnHandle
	spec bool // speculative: parks at gateIdx until the gate opens
	// gateIdx is the read ordinal to park at. The gate opens when the
	// conflicting transaction resolves (gateOn.done) or when its current
	// optimistic attempt aborts (gateAtt.aborted) — the latter keeps the
	// engine live when two transactions' shadows would otherwise gate on
	// each other after a third party aborts both optimistic runs.
	gateIdx int
	gateOn  *txnHandle
	gateAtt *attempt

	aborted chan struct{} // closed under store.mu exactly once
	reads   map[string]uint64
	readAt  map[string]int // first-read ordinal per key
	readSeq int
	writes  map[string][]byte
	result  any // written only by this attempt's goroutine via Tx.Stash
	// committed is set by commitLocked, in the flush that serves this
	// attempt; tryCommit reads it once the queue has delivered the verdict.
	committed bool
	report    chan verdict // speculative shadows only: the one verdict, buffered
}

func (a *attempt) abortLocked(s *Store) {
	select {
	case <-a.aborted:
	default:
		close(a.aborted)
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
	// transaction resolves (commit or give-up) — the channel equivalent
	// of the simulator's Blocking Rule.
	if a.spec && a.readSeq == a.gateIdx && a.gateOn != nil {
		gate, gateAtt := a.gateOn, a.gateAtt
		a.gateOn, a.gateAtt = nil, nil
		a.h.tr.Event(obs.StagePark)
		parkStart := time.Now()
		aborted := false
		if gateAtt != nil {
			select {
			case <-gate.done:
			case <-gateAtt.aborted:
			case <-a.aborted:
				aborted = true
			}
		} else {
			select {
			case <-gate.done:
			case <-a.aborted:
				aborted = true
			}
		}
		if met := s.cfg.Metrics; met != nil {
			met.ParkSeconds.Observe(int64(time.Since(parkStart)))
		}
		if aborted {
			return nil, ErrAborted
		}
		a.h.tr.Event(obs.StageResume)
	}
	select {
	case <-a.aborted:
		return nil, ErrAborted
	default:
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, mine := a.writes[key]; mine {
		// Read-your-writes from the private buffer.
		out := make([]byte, len(a.writes[key]))
		copy(out, a.writes[key])
		a.readSeq++
		return out, nil
	}
	v := s.committed[key]
	if a.reads == nil {
		a.reads = make(map[string]uint64)
		a.readAt = make(map[string]int)
	}
	if _, seen := a.reads[key]; !seen {
		a.reads[key] = v.ver
		a.readAt[key] = a.readSeq
	}
	idx := a.readAt[key]
	a.readSeq++

	// Read Rule: this read conflicts with every in-flight writer of key.
	if !a.spec && s.cfg.Mode == SCC2S {
		scanned := 0
		for _, other := range s.active {
			if other == a.h || other.resolved {
				continue
			}
			scanned++
			if _, wrote := other.writes[key]; wrote {
				s.forkShadowLocked(a.h, other, idx)
			}
		}
		if met := s.cfg.Metrics; met != nil && scanned > 0 {
			met.ConflictScans.Add(int64(scanned))
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
	select {
	case <-a.aborted:
		return ErrAborted
	default:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := make([]byte, len(val))
	copy(buf, val)
	a.writes[key] = buf
	if !a.spec {
		a.h.writes[key] = buf
		// Write Rule: in-flight readers of key gain a conflict with us.
		if s.cfg.Mode == SCC2S {
			scanned := 0
			for _, other := range s.active {
				if other == a.h || other.resolved || other.opt == nil {
					continue
				}
				scanned++
				if at, read := other.opt.readAt[key]; read {
					s.forkShadowLocked(other, a.h, at)
				}
			}
			if met := s.cfg.Metrics; met != nil && scanned > 0 {
				met.ConflictScans.Add(int64(scanned))
			}
		}
	}
	return nil
}

// forkShadowLocked gives h a speculative shadow gated on the resolution of
// gateOn. SCC-2S keeps a single shadow: an existing one is kept (it parks
// at the earliest conflict already; re-running the closure from the start
// subsumes any later gate).
func (s *Store) forkShadowLocked(h, gateOn *txnHandle, gateIdx int) {
	if h.shadow != nil || h.resolved {
		return
	}
	sh := &attempt{
		h: h, spec: true, gateIdx: gateIdx, gateOn: gateOn, gateAtt: gateOn.opt,
		aborted: make(chan struct{}),
		writes:  make(map[string][]byte),
		report:  make(chan verdict, 1),
	}
	h.shadow = sh
	s.stats.Forks++
	h.tr.Event(obs.StageFork)
	go h.runAttempt(sh)
}

// Update executes fn transactionally and blocks until an execution of fn
// commits (or the attempt budget is exhausted / fn returns a non-conflict
// error). All Update transactions have equal worth and run untraced; it
// is UpdateTracedResult(0, nil, fn) with the stash dropped.
func (s *Store) Update(fn func(*Tx) error) error {
	_, err := s.UpdateTracedResult(0, nil, fn)
	return err
}

// UpdateTracedResult is the full form of Update: it returns the
// committed execution's Tx.Stash value (nil if it never stashed), and
// takes a transaction value and a lifecycle trace.
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
// h.result is published under the store latch by the winning attempt's
// tryCommit before resolved is set, so reading it after observing the
// commit is race-free even if a losing shadow is still executing the
// closure.
func (s *Store) UpdateTracedResult(value float64, tr *obs.Trace, fn func(*Tx) error) (any, error) {
	h := &txnHandle{
		store:  s,
		fn:     fn,
		value:  value,
		tr:     tr,
		done:   make(chan struct{}),
		writes: make(map[string][]byte),
	}
	defer close(h.done)

	for attempts := 0; attempts < MaxAttempts; attempts++ {
		a := &attempt{
			h:       h,
			aborted: make(chan struct{}),
			writes:  make(map[string][]byte),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, errors.New("engine: store closed")
		}
		h.opt = a
		h.shadow = nil
		h.writes = make(map[string][]byte)
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
			// as failure, not success.
			sv := <-sh.report
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
	if err := h.fn(&Tx{a: a}); err != nil {
		return verdict{err: err}
	}
	h.store.deferForValue(a)
	return h.store.tryCommit(a)
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
			if other == a.h || other.resolved || other.value <= a.h.value || other.opt == nil {
				continue
			}
			select {
			case <-other.opt.aborted:
				continue
			default:
			}
			conflict := false
			for key := range a.writes {
				if _, read := other.opt.reads[key]; read {
					conflict = true
					break
				}
			}
			if !conflict {
				for key := range a.reads {
					if _, wrote := other.writes[key]; wrote {
						conflict = true
						break
					}
				}
			}
			if conflict && (wait == nil || other.value > wait.value) {
				wait = other
			}
		}
		var protected *attempt
		if wait != nil {
			protected = wait.opt
			s.stats.Deferrals++
			a.h.tr.Event(obs.StageDefer)
		}
		s.mu.Unlock()
		if wait == nil {
			return
		}
		select {
		case <-wait.done:
		case <-protected.aborted:
		case <-a.aborted:
			return
		}
	}
}

// runAttempt executes a speculative shadow to completion and reports.
func (h *txnHandle) runAttempt(sh *attempt) {
	if err := h.fn(&Tx{a: sh}); err != nil {
		sh.report <- verdict{err: err}
		return
	}
	sh.report <- h.store.tryCommit(sh)
}

// tryCommit validates and installs an attempt's writes through the commit
// queue. The verdict is not committed if the attempt read stale data (a
// conflicting transaction committed first); the caller falls back to its
// shadow or restarts. A successful commit is reported only once it has
// crossed the commit boundary (Commit): a boundary failure reports
// committed with a *SyncError — installed, but never to be acknowledged.
func (s *Store) tryCommit(a *attempt) verdict {
	err := s.queue.Commit(a.h.attempts, func() bool { return s.commitLocked(a) })
	return verdict{err: err, committed: a.committed}
}

// PendingCommits reports how many finished attempts are queued behind the
// running commit-queue flush.
func (s *Store) PendingCommits() int { return s.queue.Pending() }

// commitLocked is the commit critical section: validate the attempt's
// reads against committed state and install its writes. Caller holds s.mu.
func (s *Store) commitLocked(a *attempt) bool {
	h := a.h
	select {
	case <-a.aborted:
		return false
	default:
	}
	if h.resolved {
		return false // another shadow of this transaction already won
	}
	if !s.ValidateLocked(a.reads) {
		a.abortLocked(s)
		return false
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
	h.tr.SetEpoch(s.installLocked(CommitRecord{Writes: a.writes, Value: h.value}))
	s.stats.Commits++
	h.tr.Event(obs.StageInstall)
	a.committed = true
	return true
}

// installLocked logs and installs rec's writes with bumped versions and
// broadcasts the commit: in-flight optimistic shadows that read what was
// written are aborted. Their speculative shadows (often gated on the
// committer) take over — the gate opens when the committing handle's
// done channel closes. It returns the epoch the log stamped on the record
// (0 for an empty write set) and marks the store as owing a commit
// boundary. Callers hold s.mu.
func (s *Store) installLocked(rec CommitRecord) uint64 {
	writes := rec.Writes
	if len(writes) == 0 {
		return 0
	}
	s.dirty = true
	epoch := s.log.AppendCommit(rec)
	for key, val := range writes {
		s.committed[key] = versioned{val: val, ver: s.committed[key].ver + 1}
	}
	for _, other := range s.active {
		if other.resolved || other.opt == nil {
			continue
		}
		stale := false
		for key := range writes {
			if _, read := other.opt.reads[key]; read {
				stale = true
				break
			}
		}
		if stale {
			other.opt.abortLocked(s)
		}
	}
	return epoch
}

// Close marks the store closed; subsequent Updates fail. In-flight
// transactions drain normally.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}
