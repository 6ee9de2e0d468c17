// Group commit: coalescing commit critical sections.
//
// Every commit of a Store must hold the store latch (s.mu) while it
// validates its read set and installs its writes. On the per-commit path
// that is one latch acquisition per commit attempt; under many concurrent
// connections the latch handoffs themselves become the hot path (Larson et
// al.'s observation that commit critical sections dominate once the engine
// is fast). Group commit batches them: committers enqueue their finished
// attempt with a flat-combining committer, the first enqueuer becomes the
// flush leader, gathers more commits for one flush window (or until the
// batch cap), then acquires the latch once and processes the whole batch
// under that single hold. Validation semantics are unchanged — each
// attempt in the batch validates against the state left by the attempts
// processed before it, exactly as if they had taken the latch back to
// back — only the number of latch acquisitions drops.
//
// The flush window is a latency/throughput trade: a commit waits up to
// Window for company. Tests inject the trigger instead of the clock:
// TriggerFlush wakes the gathering leader immediately, and PendingCommits
// exposes the queue depth, so coalescing behaviour is testable without
// timing sleeps.

package engine

import (
	"sort"
	"sync"
	"time"
)

// GroupCommit configures commit coalescing for a Store.
type GroupCommit struct {
	// Enabled turns group commit on. Off, every commit attempt acquires
	// the store latch itself.
	Enabled bool
	// Window is the longest a flush leader gathers commits before
	// flushing (default 100µs). Commits wait at most this long for
	// company.
	Window time.Duration
	// MaxBatch flushes early once this many commits are pending
	// (default 64).
	MaxBatch int
}

func (g *GroupCommit) defaults() {
	if g.Window <= 0 {
		g.Window = 100 * time.Microsecond
	}
	if g.MaxBatch <= 0 {
		g.MaxBatch = 64
	}
}

// commitReq is one finished attempt awaiting its commit verdict.
type commitReq struct {
	a    *attempt
	done chan verdict
}

// groupCommitter is the flat-combining commit queue of one Store.
type groupCommitter struct {
	s        *Store
	window   time.Duration
	maxBatch int

	// kick wakes the gathering leader early: followers send when the
	// batch cap is reached, TriggerFlush sends from tests.
	kick chan struct{}

	mu        sync.Mutex
	pending   []commitReq
	gathering bool // a leader is collecting the current batch
}

func newGroupCommitter(s *Store, cfg GroupCommit) *groupCommitter {
	cfg.defaults()
	return &groupCommitter{
		s:        s,
		window:   cfg.Window,
		maxBatch: cfg.MaxBatch,
		kick:     make(chan struct{}, 1),
	}
}

// commit enqueues a finished attempt and blocks until a flush delivers its
// verdict. The first enqueuer of a batch becomes the leader: it waits out
// the flush window (cut short by a kick) and then processes the whole
// batch under one latch acquisition. Followers just wait; a follower that
// fills the batch wakes the leader early.
func (g *groupCommitter) commit(a *attempt) (bool, error) {
	req := commitReq{a: a, done: make(chan verdict, 1)}
	g.mu.Lock()
	g.pending = append(g.pending, req)
	n := len(g.pending)
	leader := !g.gathering
	if leader {
		g.gathering = true
	}
	g.mu.Unlock()

	if leader {
		if n < g.maxBatch {
			t := time.NewTimer(g.window)
			select {
			case <-t.C:
			case <-g.kick:
			}
			t.Stop()
		}
		g.flush()
	} else if n >= g.maxBatch {
		select {
		case g.kick <- struct{}{}:
		default:
		}
	}
	v := <-req.done
	return v.committed, v.err
}

// flush takes the gathered batch and commits it under one store-latch
// acquisition. Requests enqueued after the batch is taken elect their own
// leader (the gathering flag is cleared in the same critical section), so
// no request is ever orphaned.
func (g *groupCommitter) flush() {
	g.mu.Lock()
	batch := g.pending
	g.pending = nil
	g.gathering = false
	// Drop a stale kick inside the critical section: until gathering is
	// cleared no new leader can exist, so any buffered kick was aimed at
	// this flush and is already satisfied. Draining it later could
	// swallow the next leader's batch-cap kick and leave a full batch
	// sleeping out its whole window.
	select {
	case <-g.kick:
	default:
	}
	g.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	s := g.s
	flushStart := time.Now()
	verdicts := make([]bool, len(batch))
	// One commit boundary covers every commit of the flush, and no
	// committer learns its verdict before the batch has crossed it (the
	// done channels are buffered, so delivery order is the only thing
	// deferred). A boundary failure converts every committed verdict of the
	// batch to an error: the writes are installed but must never be
	// acknowledged.
	err := s.commitBatch(func() {
		// Starvation control: when a batch carries several conflicting
		// read-modify-writes of one key, only the first to validate commits —
		// the rest restart and meet again next flush, so plain FIFO order can
		// starve the same transaction round after round. Processing the
		// most-restarted transactions first (stable otherwise, so FIFO within
		// a generation) guarantees a transaction's wait is bounded: once it is
		// the oldest in its batch, its fresh re-read validates unless a commit
		// landed before this flush even started.
		sort.SliceStable(batch, func(i, j int) bool {
			return batch[i].a.h.attempts > batch[j].a.h.attempts
		})
		s.stats.CommitBatches++
		for i, req := range batch {
			verdicts[i] = s.commitLocked(req.a)
		}
	})
	if met := s.cfg.Metrics; met != nil {
		met.BatchSize.Observe(int64(len(batch)))
		met.FlushSeconds.Observe(int64(time.Since(flushStart)))
	}
	for i, req := range batch {
		v := verdict{committed: verdicts[i]}
		if verdicts[i] {
			v.err = err
		}
		req.done <- v
	}
}

// TriggerFlush wakes a gathering group-commit leader immediately instead
// of waiting out its flush window. It is the injected flush trigger for
// deterministic tests; a no-op when group commit is disabled. With no
// leader gathering, the kick is buffered and at worst shortens the next
// leader's window (each flush clears stale kicks).
func (s *Store) TriggerFlush() {
	if s.gc == nil {
		return
	}
	select {
	case s.gc.kick <- struct{}{}:
	default:
	}
}

// PendingCommits reports how many finished attempts are queued for the
// next group-commit flush (0 when group commit is disabled).
func (s *Store) PendingCommits() int {
	if s.gc == nil {
		return 0
	}
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	return len(s.gc.pending)
}
