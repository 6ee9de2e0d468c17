// Cross-shard commits. Commits with the same involved-shard set (the
// overwhelmingly common case under a fixed mix: the same shard pairs
// recur) share one engine.CommitQueue per shard-set signature — the same
// flat combiner every shard's own commits go through — so a flush latches
// the set once and validates+applies every queued request under that
// single hold. Validation semantics are unchanged — each request validates
// against the state left by the ones processed before it, exactly as if
// each had latched in turn — and the latch order (ascending shard index)
// is preserved, so flushes of overlapping sets cannot deadlock. A side
// effect that replication relies on: all installs into a shard, native or
// cross-shard, happen under that shard's commit latch, so the shard's
// commit log (engine.Config.CommitLog) is a single total order.
//
// Crash atomicity. A commit whose writes span several shards mints one
// epoch and hands each participant's commit log its part, all under the
// latches (engine.InstallCrossLocked); a durable node log writes the
// parts as one record, so the commit survives a crash whole or not at
// all. The queue's flush runs through the engine's commit pipeline
// (engine/commit.go) like every other install path: verdicts are
// delivered only after the batch's log sync, and a failure converts
// every installed verdict of the batch to an error.

package shard

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
)

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

// queueFor returns the commit queue of a shard set, created on first
// use. CrossBatches is its per-flush counter.
func (s *Store) queueFor(involved []int) *engine.CommitQueue {
	sig := signature(involved)
	s.queuesMu.Lock()
	defer s.queuesMu.Unlock()
	q := s.queues[sig]
	if q == nil {
		q = engine.NewCommitQueue(s.shards, involved, s.groupCommit, s.countBatch, nil)
		s.queues[sig] = q
	}
	return q
}

// commitCross atomically validates (and, when apply is set, installs) a
// cross-shard transaction through the commit queue of its shard set. With
// apply false it is a pure validation pass — used to decide whether a
// closure error came from a serializable read cut. Blocks until a flush
// (possibly the caller's) delivers the verdict. A non-nil error means the
// transaction was installed but could not be made durable; the caller
// must fail it and must not retry.
func (s *Store) commitCross(involved []int, c *crossTx, apply bool, tr *obs.Trace) (ok bool, err error) {
	reads := groupByShard(s, c.reads)
	var writes map[int]map[string][]byte
	if apply {
		writes = groupByShard(s, c.writes)
	}
	err = s.queueFor(involved).Commit(0, func() bool {
		for idx, r := range reads {
			if !s.shards[idx].ValidateLocked(r) {
				return false
			}
		}
		ok = true
		if len(writes) == 0 {
			return false
		}
		s.installLocked(writes, c.value, tr)
		return true
	})
	return ok, err
}

// groupByShard splits a transaction's read or write set by owning shard.
func groupByShard[V any](s *Store, set map[string]V) map[int]map[string]V {
	out := make(map[int]map[string]V)
	for key, v := range set {
		idx := s.ShardOf(key)
		m := out[idx]
		if m == nil {
			m = make(map[string]V)
			out[idx] = m
		}
		m[key] = v
	}
	return out
}

// installLocked installs one transaction's writes, grouped by shard,
// inside a Commit step that latched every shard written. Writes that all
// landed on one shard are an ordinary valued install; writes spanning
// several mint a global commit epoch (stamped on tr) and install as one
// cross-store commit, which a durable log writes as one record.
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
