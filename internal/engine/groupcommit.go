// Group commit: coalescing commit critical sections behind the running
// flush.
//
// Every commit of a Store must hold the store latch (s.mu) while it
// validates its read set and installs its writes, and must cross the
// commit boundary (log sync, fence — commit.go) before its verdict. On
// the per-commit path that is one latch acquisition and one sync per
// attempt. Group commit batches them with a completion-driven flat
// combiner, the shape shard.combineCross has: committers enqueue their
// finished attempt; the first to find no flush running becomes the leader
// and flushes at once; commits that arrive while a flush is between latch
// and verdict queue up and form the next batch, taken when the running
// one completes. Batching is therefore exactly as deep as the commit
// boundary is slow — deep behind a real fsync, one or two in memory — and
// no commit ever waits for a clock (Hekaton's group commit batches behind
// log I/O already in flight, never behind a timer). Validation semantics
// are unchanged: each attempt in a batch validates against the state left
// by the attempts processed before it, exactly as if they had taken the
// latch back to back — only the number of latch acquisitions and syncs
// drops.
//
// The seam tests use is the boundary itself: a CommitLog whose Sync
// blocks holds a flush open for as long as the test likes, and
// PendingCommits exposes the queue forming behind it.

package engine

import (
	"slices"
	"sync"
	"time"
)

// GroupCommit configures commit coalescing for a Store.
type GroupCommit struct {
	// Enabled turns group commit on. Off, every commit attempt acquires
	// the store latch itself.
	Enabled bool
	// Window is ignored: flushes are driven by the completion of the one
	// before, not by a timer. The field is kept for source compatibility
	// with bench/ (frozen outside a [benchmark] PR, which is where its
	// removal is queued).
	Window time.Duration
	// MaxBatch caps how many queued commits one flush takes (default 64);
	// the remainder is the next batch.
	MaxBatch int
}

// commitReq is one finished attempt awaiting its commit verdict.
type commitReq struct {
	a    *attempt
	ok   bool // validated and installed; written by the flush that serves it
	done chan verdict
}

// groupCommitter is the flat-combining commit queue of one Store.
type groupCommitter struct {
	s        *Store
	maxBatch int

	mu       sync.Mutex
	pending  []commitReq
	flushing bool // a leader owns the queue; cleared only on seeing it empty

	// spare is the leader's: the array of the batch it served last, which
	// becomes the queue when it takes the next one, so a steady stream of
	// flushes allocates no queue storage.
	spare []commitReq
}

func newGroupCommitter(s *Store, cfg GroupCommit) *groupCommitter {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	return &groupCommitter{s: s, maxBatch: cfg.MaxBatch}
}

// commit enqueues a finished attempt and blocks until a flush delivers its
// verdict. An enqueuer that finds no flush running leads: its own request
// is at the head of the queue and is flushed immediately.
func (g *groupCommitter) commit(a *attempt) (bool, error) {
	req := commitReq{a: a, done: make(chan verdict, 1)}
	g.mu.Lock()
	g.pending = append(g.pending, req)
	lead := !g.flushing
	g.flushing = true
	g.mu.Unlock()
	if lead {
		g.drain()
	}
	v := <-req.done
	return v.committed, v.err
}

// drain flushes the queue, at most maxBatch commits per flush, until it
// is empty. Leadership is cleared only in the critical section that
// observes the empty queue, so no request is ever orphaned. The leader is
// an ordinary transaction whose verdict was delivered in its first batch;
// draining what queued behind it inline saves the followers a goroutine
// start per batch, but under sustained load would hold its caller hostage
// for as long as work keeps arriving, so after its own batch it serves at
// most maxBatch further commits and then passes the queue to a detached
// drainer.
func (g *groupCommitter) drain() {
	budget := -1 // the first batch carries the leader's own commit and is free
	for {
		g.mu.Lock()
		n := min(len(g.pending), g.maxBatch)
		if n == 0 {
			g.flushing = false
			g.mu.Unlock()
			return
		}
		if budget == 0 {
			g.mu.Unlock()
			go g.drain()
			return
		}
		if budget > 0 {
			n = min(n, budget)
		}
		batch := g.pending[:n]
		g.pending = append(g.spare[:0], g.pending[n:]...)
		g.mu.Unlock()

		g.flush(batch)
		clear(batch)
		g.spare = batch[:0]
		if budget < 0 {
			budget = g.maxBatch
		} else {
			budget -= n
		}
	}
}

// flush commits batch under one store-latch acquisition and one commit
// boundary.
func (g *groupCommitter) flush(batch []commitReq) {
	s := g.s
	// Starvation control: when a batch carries several conflicting
	// read-modify-writes of one key, only the first to validate commits —
	// the rest restart and meet again in a later flush, so plain FIFO order
	// can starve the same transaction round after round. Processing the
	// most-restarted transactions first (stable otherwise, so FIFO within
	// a generation) bounds a transaction's wait: once it is the oldest in
	// its batch, its fresh re-read validates unless a commit landed before
	// this flush even started.
	slices.SortStableFunc(batch, func(x, y commitReq) int {
		return y.a.h.attempts - x.a.h.attempts
	})
	flushStart := time.Now()
	// One commit boundary covers every commit of the flush, and no
	// committer learns its verdict before the batch has crossed it. A
	// boundary failure converts every committed verdict of the batch to an
	// error: the writes are installed but must never be acknowledged.
	err := s.commitBatch(func() {
		s.stats.CommitBatches++
		for i := range batch {
			batch[i].ok = s.commitLocked(batch[i].a)
		}
	})
	if met := s.cfg.Metrics; met != nil {
		met.BatchSize.Observe(int64(len(batch)))
		met.FlushSeconds.Observe(int64(time.Since(flushStart)))
	}
	for _, req := range batch {
		v := verdict{committed: req.ok}
		if req.ok {
			v.err = err
		}
		req.done <- v
	}
}

// PendingCommits reports how many finished attempts are queued behind the
// running group-commit flush (0 when group commit is disabled).
func (s *Store) PendingCommits() int {
	if s.gc == nil {
		return 0
	}
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	return len(s.gc.pending)
}
