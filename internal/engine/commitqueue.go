// The commit queue: how commits wait for each other, written once.
//
// Every commit must hold its stores' latches while it validates its read
// set and installs its writes, and must cross the commit boundary (log
// sync, fence — commit.go) before its verdict. A CommitQueue batches those
// critical sections with a completion-driven flat combiner: committers
// enqueue a step; the first to find no flush running becomes the leader
// and flushes at once; steps that arrive while a flush is between latch
// and verdict queue up and form the next batch, taken when the running
// one completes. Batching is therefore exactly as deep as the commit
// boundary is slow — deep behind a real fsync, one or two in memory — and
// no commit ever waits for a clock (Hekaton's group commit batches behind
// log I/O already in flight, never behind a timer). Validation semantics
// are unchanged: each step of a batch runs against the state left by the
// steps before it, exactly as if they had taken the latches back to back
// — only the number of latch acquisitions and syncs drops.
//
// A Store owns one queue over itself (its step is commitLocked);
// internal/shard owns one per involved-shard set (its step validates per
// shard and installs across them). Both keep only their step, a priority
// and their per-flush counter.
//
// The seam tests use is the boundary itself: a CommitLog whose Sync
// blocks holds a flush open for as long as the test likes, and Pending
// exposes the queue forming behind it.

package engine

import (
	"slices"
	"sync"
	"time"
)

// GroupCommit configures commit coalescing for a Store.
type GroupCommit struct {
	// Enabled turns group commit on. Off, the commit queue flushes one
	// commit at a time: every commit attempt is its own latch acquisition.
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

// queuedStep is one commit awaiting its verdict.
type queuedStep struct {
	prio      int
	step      func() bool
	installed bool       // written by the flush that serves it
	done      chan error // a follower's verdict; nil for a leader's own step
}

// CommitQueue is the flat-combining commit queue of one ascending set of
// stores.
type CommitQueue struct {
	stores   []*Store
	latch    []int
	maxBatch int
	onFlush  func()   // the owner's batch counter; runs under the latches, once per flush
	met      *Metrics // FlushSeconds; nil = unobserved

	mu       sync.Mutex
	pending  []queuedStep // highest prio first, FIFO among equals
	flushing bool         // a leader owns the queue; cleared only on seeing it empty

	// spare is the leader's: the array of the batch it served last, which
	// becomes the queue when it takes the next one (or goes idle), so a
	// steady stream of flushes allocates no queue storage.
	spare []queuedStep
}

// NewCommitQueue returns the queue for commits that latch stores[i] for
// every i in latch (ascending; retained).
func NewCommitQueue(stores []*Store, latch []int, cfg GroupCommit, onFlush func(), met *Metrics) *CommitQueue {
	maxBatch := 1
	if cfg.Enabled {
		if maxBatch = cfg.MaxBatch; maxBatch <= 0 {
			maxBatch = 64
		}
	}
	return &CommitQueue{stores: stores, latch: latch, maxBatch: maxBatch, onFlush: onFlush, met: met}
}

// Commit enqueues step and blocks until a flush has run it — under the
// latches, where it may call only the *Locked methods of the latched
// stores — and carried the batch across the commit boundary. step reports
// whether it installed anything; a non-nil result is the boundary's
// *SyncError (installed, never to be acknowledged) and only ever reaches a
// step that did. Higher prio is served first, FIFO among equals. A caller
// that finds no flush running leads: the queue was empty, so its step is a
// batch of its own, taken before another step can queue ahead of it, and
// it reads its verdict from the flush it runs at once. beforeWait is the
// caller's wait seam (wait.go), kept only when the queue's logs wait on a
// device (onDevice): a leader calls it before each boundary of its
// flushes, and a follower before waiting for its verdict.
func (q *CommitQueue) Commit(prio int, beforeWait func(), step func() (installed bool)) error {
	beforeWait = q.onDevice(beforeWait)
	req := queuedStep{prio: prio, step: step}
	q.mu.Lock()
	if !q.flushing {
		q.flushing = true
		batch := append(q.pending[:0], req)
		q.pending = nil
		q.mu.Unlock()
		err := q.flush(batch, beforeWait)
		installed := batch[0].installed
		clear(batch)
		q.spare = batch[:0]
		q.drain(q.maxBatch, beforeWait)
		if !installed {
			return nil
		}
		return err
	}
	req.done = make(chan error, 1)
	// Starvation control: when several conflicting read-modify-writes of
	// one key are queued, only the first to validate commits — the rest
	// restart and meet again in a later flush, so plain FIFO order can
	// starve the same transaction round after round (with a batch cap of
	// one, the k-th in line would need k attempts). The engine and
	// internal/shard's cross-shard loop pass their restart count as prio:
	// queueing the most-restarted first (behind their equals, so FIFO
	// within a generation) bounds a transaction's wait — once it is the
	// oldest queued, its fresh re-read validates unless a commit landed
	// before its flush even started.
	i := len(q.pending)
	for i > 0 && q.pending[i-1].prio < prio {
		i--
	}
	q.pending = slices.Insert(q.pending, i, req)
	q.mu.Unlock()
	return Await(req.done, beforeWait)
}

// drain flushes the queue, at most maxBatch steps per flush, until it is
// empty. Leadership is cleared only in the critical section that observes
// the empty queue, so no request is ever orphaned. The leader is an
// ordinary transaction whose own verdict its first flush delivered;
// draining what queued behind it inline saves the followers a goroutine
// start per batch, but under sustained load would hold its caller hostage
// for as long as work keeps arriving, so it serves at most budget further
// steps and then passes the queue to a detached drainer, which waits for
// no one. A negative budget makes the first batch free and then allows
// maxBatch more.
func (q *CommitQueue) drain(budget int, beforeWait func()) {
	for {
		q.mu.Lock()
		n := min(len(q.pending), q.maxBatch)
		if n == 0 {
			// An idle queue keeps one array, not two: internal/shard has
			// one queue per shard set, thousands of them idle at a time,
			// and what they retain the garbage collector scans.
			q.flushing = false
			if q.pending == nil {
				q.pending = q.spare
			}
			q.spare = nil
			q.mu.Unlock()
			return
		}
		if budget == 0 {
			q.mu.Unlock()
			go q.drain(-1, nil)
			return
		}
		if budget > 0 {
			n = min(n, budget)
		}
		batch := q.pending[:n]
		q.pending = append(q.spare[:0], q.pending[n:]...)
		q.mu.Unlock()

		q.flush(batch, beforeWait)
		clear(batch)
		q.spare = batch[:0]
		if budget < 0 {
			budget = q.maxBatch
		} else {
			budget -= n
		}
	}
}

// flush runs batch under one acquisition of the latches and one commit
// boundary, and returns the boundary's error.
func (q *CommitQueue) flush(batch []queuedStep, beforeWait func()) error {
	flushStart := time.Now()
	// One commit boundary covers every install of the flush, and no
	// committer learns its verdict before the batch has crossed it. A
	// boundary failure converts every installed verdict of the batch to an
	// error: the writes are in place but must never be acknowledged.
	err := Commit(q.stores, q.latch, beforeWait, func() {
		q.onFlush()
		for i := range batch {
			batch[i].installed = batch[i].step()
		}
	})
	if q.met != nil {
		q.met.FlushSeconds.Observe(int64(time.Since(flushStart)))
	}
	for _, req := range batch {
		switch {
		case req.done == nil: // the leader's own step: it reads the batch
		case req.installed:
			req.done <- err
		default:
			req.done <- nil
		}
	}
	return err
}

// Pending reports how many steps are queued behind the running flush.
func (q *CommitQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}
