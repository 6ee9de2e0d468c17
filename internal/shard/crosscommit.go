// Flat-combining cross-shard commits. Before this existed, every
// multi-shard transaction latched its involved shards itself — one
// latch-acquisition round per validate+apply, the cross-shard analogue of
// the per-commit path the engine's group commit already removed for
// single-shard transactions. Here, commits with the same involved-shard
// set (the overwhelmingly common case under a fixed mix: the same shard
// pairs recur) queue per shard-set signature; the first enqueuer becomes
// the combiner, latches the set once, and validates+applies every queued
// request under that single hold, draining requests that arrive while it
// works. Validation semantics are unchanged — each request validates
// against the state left by the ones processed before it, exactly as if
// each had latched in turn — and the latch order (ascending shard index)
// is preserved, so combiners of overlapping sets cannot deadlock. A side
// effect that replication relies on: all installs into a shard, native or
// cross-shard, happen under that shard's commit latch, so the shard's
// commit log (engine.Config.CommitLog) is a single total order.
//
// Crash atomicity. A commit whose writes span several shards spans
// several WALs; the two-round presumed-abort protocol that keeps it
// all-or-nothing across a crash lives in the engine's commit pipeline
// (engine/commit.go), which the combiner's batch runs through like every
// other install path. Verdicts are delivered only after the batch has
// crossed that boundary; a failure converts every installed verdict of
// the batch to an error.

package shard

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
)

// crossVerdict is one request's outcome: ok reports validation, err (only
// ever set alongside ok for an installing request) reports a durability
// failure — installed but not durable, which the caller must surface as
// an error and must not retry.
type crossVerdict struct {
	ok  bool
	err error
}

// crossReq is one cross-shard validate(+apply) awaiting its verdict.
type crossReq struct {
	reads  map[int]map[string]uint64 // read versions, grouped by shard
	writes map[int]map[string][]byte // writes, grouped by shard (nil = validate only)
	value  float64                   // transaction value, forwarded to the shards' commit logs
	tr     *obs.Trace                // epoch-stamped by the combiner (nil-safe)
	done   chan crossVerdict
}

// crossQueue is the pending work for one involved-shard signature.
type crossQueue struct {
	involved []int // ascending shard indices, shared by every queued request
	pending  []crossReq
	leading  bool // a combiner is draining this queue
}

// crossFC is the per-store registry of combining queues.
type crossFC struct {
	mu     sync.Mutex
	queues map[string]*crossQueue
}

// signature keys a shard set; involved is sorted, so the key is canonical.
func signature(involved []int) string {
	var b strings.Builder
	for i, idx := range involved {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(idx))
	}
	return b.String()
}

// commitCross atomically validates (and, when apply is set, installs) a
// cross-shard transaction through the combining queue of its shard set.
// With apply false it is a pure validation pass — used to decide whether
// a closure error came from a serializable read cut. Blocks until a
// combiner (possibly the caller) delivers the verdict. A non-nil error
// means the transaction was installed but could not be made durable; the
// caller must fail it and must not retry.
func (s *Store) commitCross(involved []int, c *crossTx, apply bool, tr *obs.Trace) (bool, error) {
	req := crossReq{reads: s.groupReads(c.reads), value: c.value, tr: tr, done: make(chan crossVerdict, 1)}
	if apply {
		req.writes = make(map[int]map[string][]byte)
		for key, val := range c.writes {
			idx := s.ShardOf(key)
			m := req.writes[idx]
			if m == nil {
				m = make(map[string][]byte)
				req.writes[idx] = m
			}
			m[key] = val
		}
	}

	sig := signature(involved)
	s.cross.mu.Lock()
	q := s.cross.queues[sig]
	if q == nil {
		own := make([]int, len(involved))
		copy(own, involved)
		q = &crossQueue{involved: own}
		s.cross.queues[sig] = q
	}
	q.pending = append(q.pending, req)
	lead := !q.leading
	if lead {
		q.leading = true
	}
	s.cross.mu.Unlock()
	if lead {
		s.combineCross(q)
	}
	v := <-req.done
	return v.ok, v.err
}

// combineCross serves q's pending batch: latch the shard set once, serve
// every queued request under that hold, unlatch. Requests that arrived
// while the combiner held the latches are handed to a detached goroutine
// rather than drained inline: the combiner is an ordinary transaction
// whose verdict was delivered in its own batch, and under sustained
// same-signature load an inline drain would hold its caller hostage for
// as long as new work keeps arriving — unbounded tail latency for a
// deadline-priced request. Leadership is cleared only in the critical
// section that observes an empty queue, so no request is ever orphaned.
func (s *Store) combineCross(q *crossQueue) {
	s.cross.mu.Lock()
	batch := q.pending
	q.pending = nil
	if len(batch) == 0 {
		q.leading = false
		s.cross.mu.Unlock()
		return
	}
	s.cross.mu.Unlock()

	verdicts := make([]bool, len(batch))
	applied := make([]bool, len(batch)) // installed writes (owes the commit boundary)
	err := engine.Commit(s.shards, q.involved, func() {
		s.crossBatches.Add(1)
		for i, req := range batch {
			ok := true
			for idx, reads := range req.reads {
				if !s.shards[idx].ValidateLocked(reads) {
					ok = false
					break
				}
			}
			if ok && len(req.writes) > 0 {
				applied[i] = true
				s.installLocked(req.writes, req.value, req.tr)
			}
			verdicts[i] = ok
		}
	})
	for i, req := range batch {
		v := crossVerdict{ok: verdicts[i]}
		if applied[i] {
			v.err = err
		}
		req.done <- v
	}

	s.cross.mu.Lock()
	more := len(q.pending) > 0
	if !more {
		q.leading = false
	}
	s.cross.mu.Unlock()
	if more {
		go s.combineCross(q)
	}
}

// installLocked installs one transaction's writes, grouped by shard,
// inside a Commit step that latched every shard written. Writes that all
// landed on one shard are an ordinary valued install; writes spanning
// several mint a global commit epoch (stamped on tr) and install as one
// cross-store commit the pipeline decides atomically.
func (s *Store) installLocked(writes map[int]map[string][]byte, value float64, tr *obs.Trace) {
	if len(writes) <= 1 {
		for idx, w := range writes {
			s.shards[idx].ApplyLocked(w, value)
		}
		return
	}
	parts := make([]int, 0, len(writes))
	for idx := range writes {
		parts = append(parts, idx)
	}
	sort.Ints(parts)
	epoch := s.epochs.Next()
	tr.SetEpoch(epoch)
	engine.InstallCrossLocked(s.shards, epoch, parts, writes, value)
}
