// Cross-shard commits. Commits with the same involved-shard set (the
// overwhelmingly common case under a fixed mix: the same shard pairs
// recur) share one engine.CommitQueue per shard set — the same flat
// combiner every shard's own commits go through — so a flush latches the
// set once and validates+applies every queued request under that single
// hold. A request walks its flat key list, checking each read's version
// with engine.Store.VersionLocked, against the state left by the
// requests processed before it, exactly as if each had latched in turn;
// the only maps it builds are the per-shard write sets a commit log
// retains. The latch order (ascending shard index) is preserved, so
// flushes of overlapping sets cannot deadlock. A side effect that
// replication relies on: all installs into a shard, native or
// cross-shard, happen under that shard's commit latch, so the shard's
// commit log (engine.Store.SetCommitLog) is a single total order.
//
// Crash atomicity. A commit whose writes span several shards mints one
// epoch and hands the whole commit to its lowest participant's commit log
// in one call, under the latches (engine.InstallCrossLocked); a durable
// node log writes it as one record, so the commit survives a crash whole
// or not at all. The queue's flush runs through the engine's commit pipeline
// (engine/commit.go) like every other install path: verdicts are
// delivered only after the batch's log sync, and a failure converts
// every installed verdict of the batch to an error.

package shard

import (
	"slices"
	"strconv"

	"repro/internal/engine"
	"repro/internal/obs"
)

// queueFor returns the commit queue of a shard set, created on first
// use. CrossBatches is its per-flush counter. The set's key, its
// ascending indices comma-separated, is built on the stack: the lookup
// m[string(buf)] does not allocate.
func (s *Store) queueFor(involved []int) *engine.CommitQueue {
	var buf [48]byte
	sig := buf[:0]
	for i, idx := range involved {
		if i > 0 {
			sig = append(sig, ',')
		}
		sig = strconv.AppendInt(sig, int64(idx), 10)
	}
	s.queuesMu.Lock()
	defer s.queuesMu.Unlock()
	q := s.queues[string(sig)]
	if q == nil {
		q = engine.NewCommitQueue(s.shards, involved, s.groupCommit, s.countBatch)
		s.queues[string(sig)] = q
	}
	return q
}

// commitCross atomically validates (and, when apply is set, installs) a
// cross-shard transaction through the commit queue of its shard set. With
// apply false it is a pure validation pass — used to decide whether a
// closure error came from a serializable read cut. Blocks until a flush
// (possibly the caller's) delivers the verdict, calling beforeWait as
// CommitQueue.Commit does. A non-nil error means the
// transaction was installed but could not be made durable; the caller
// must fail it and must not retry.
func (s *Store) commitCross(c *crossTx, apply bool, tr *obs.Trace, beforeWait func()) (ok bool, err error) {
	var parts []int
	var writes []map[string][]byte
	if apply {
		parts, writes = c.writeSets()
	}
	err = s.queueFor(c.involved).Commit(c.attempt, beforeWait, func() bool {
		for _, k := range c.keys {
			if k.read && s.shards[k.shard].VersionLocked(k.key) != k.ver {
				return false
			}
		}
		ok = true
		if len(parts) == 0 {
			return false
		}
		s.installLocked(parts, writes, c.value, tr)
		return true
	})
	return ok, err
}

// writeSets groups c's buffered writes by shard: writes[j] is shard
// parts[j]'s, parts ascending and holding only shards written. Every map
// is fresh, because the commit log retains it.
func (c *crossTx) writeSets() (parts []int, writes []map[string][]byte) {
	parts, writes = make([]int, 0, len(c.involved)), make([]map[string][]byte, len(c.involved))
	for _, k := range c.keys {
		if !k.write {
			continue
		}
		j, _ := slices.BinarySearch(c.involved, k.shard)
		if writes[j] == nil {
			writes[j] = make(map[string][]byte)
		}
		writes[j][k.key] = k.val
	}
	for j, w := range writes {
		if w != nil {
			parts = append(parts, c.involved[j])
			writes[len(parts)-1] = w
		}
	}
	return parts, writes[:len(parts)]
}

// installLocked installs one transaction's writes — writes[j] on shard
// parts[j], parts ascending — inside a Commit step that latched every
// shard written. Writes that all landed on one shard are an ordinary
// valued install; writes spanning several mint a global commit epoch
// (stamped on tr) and install as one cross-store commit, which a durable
// log writes as one record.
func (s *Store) installLocked(parts []int, writes []map[string][]byte, value float64, tr *obs.Trace) {
	if len(parts) <= 1 {
		for j, idx := range parts {
			s.shards[idx].ApplyLocked(writes[j], value)
		}
		return
	}
	epoch := s.epochs.Next()
	tr.SetEpoch(epoch)
	engine.InstallCrossLocked(s.shards, epoch, parts, writes, value)
}
