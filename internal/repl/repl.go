// Package repl replicates a sharded SCC store: the engine's commit hook
// (engine.Config.CommitLog) appends every installed write set to a
// per-shard Log, a Feed bundles the logs of one primary and tracks
// subscriber progress, and a Replica streams the logs over the wire
// protocol's REPL/ACK verbs (see docs/PROTOCOL.md) into a local store via
// the ApplyLocked path. Replica reads are value-cognizant: a LagGate sheds
// read-only transactions whose value function would cross zero before the
// replica's estimated catch-up, the replication analogue of the paper's
// zero-crossing load shedding. docs/ARCHITECTURE.md places the package in
// the overall data flow.
//
// Logs are trimmable: records below a trim point are dropped from memory
// (the durability layer, internal/durable, keeps them on disk), and a
// subscriber asking for a trimmed index is refused with ErrCompacted —
// it bootstraps from a snapshot (the SNAP verb) instead of replaying
// from index 1. Trimming advances to
// min(acked floor, durability floor, head − retention): never past what
// a tracking subscriber still owes, never past the newest checkpoint,
// and always keeping the retention window for briefly-absent
// subscribers to resume without a snapshot.
package repl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// ErrCompacted is returned by Log.From when the requested index has been
// trimmed away. The subscriber cannot replay from there; it must
// bootstrap from a snapshot and resume above the log's Base.
var ErrCompacted = errors.New("repl: log trimmed below requested index")

// unbounded marks an absent floor (no tracking subscriber, no
// checkpoint): it never constrains a min().
const unbounded = ^uint64(0)

// Record is one committed transaction's write set on one shard, at Index
// (1-based) in that shard's total commit order. Records applied in Index
// order reproduce the primary shard's committed state and per-key
// versions exactly.
//
// Epoch is the global commit epoch stamped on the record (0 only from
// legacy sinks with no epoch source); within one shard's log, epochs are
// strictly increasing. Shards is nil for a standalone commit; for a
// cross-shard commit it lists every participant shard (ascending), and
// each participant's log carries a record with the SAME epoch — the
// replica apply barrier uses this to make the commit visible on all
// shards at once.
type Record struct {
	Index  uint64
	Epoch  uint64
	Shards []int
	Writes map[string][]byte
}

// Cross reports whether the record is one shard's part of a multi-shard
// commit (and therefore subject to the replica apply barrier).
func (r Record) Cross() bool { return len(r.Shards) > 1 }

// Log is the ordered commit log of one shard. It implements
// engine.CommitLog: the engine appends under the shard's commit latch, so
// append order is the shard's version order.
type Log struct {
	epochs *engine.Epochs // stamps standalone appends; nil = epoch 0 (legacy sinks)

	mu        sync.Mutex
	base      uint64 // highest trimmed-away index; recs[0].Index == base+1
	lastEpoch uint64 // epoch of the newest record ever appended (survives trims)
	recs      []Record
	wake      chan struct{} // closed and replaced on every append

	retain   uint64 // auto-trim keeps at least this many newest records (0 = keep all)
	ackFloor uint64 // min acked index over tracking subscribers (unbounded if none)
	durFloor uint64 // newest checkpoint index (unbounded without durability)
	autoTrim bool   // retention or a durability floor has been configured
	trimmed  int64  // records dropped by trimming, cumulative
	resliced int    // trimmed records whose backing memory is still pinned
}

// NewLog returns an empty log stamping epochs from epochs (nil leaves
// every record at epoch 0 — acceptable only for tests and legacy sinks).
func NewLog(epochs *engine.Epochs) *Log {
	return &Log{epochs: epochs, wake: make(chan struct{}), ackFloor: unbounded, durFloor: unbounded}
}

// Append records one standalone write set (AppendCommit with no epoch).
func (l *Log) Append(writes map[string][]byte) {
	l.AppendCommit(engine.CommitRecord{Writes: writes})
}

// AppendCommit implements engine.CommitLog: it records one installed
// write set and wakes blocked readers. The map is retained, not copied;
// the engine guarantees committed write sets are never mutated
// afterwards. A standalone record's epoch is allocated here — under the
// shard's commit latch, so per-shard epoch order matches log order; a
// cross-shard record ships with its pre-allocated epoch and participant
// set.
func (l *Log) AppendCommit(rec engine.CommitRecord) uint64 {
	if rec.Epoch == 0 && l.epochs != nil {
		rec.Epoch = l.epochs.Next()
	}
	l.AppendStamped(rec.Writes, rec.Epoch, rec.Shards)
	return rec.Epoch
}

// The durability half of engine.CommitLog is a no-op in memory: with no
// WAL there is no decision record to gate shipping on and nothing to
// sync.
func (l *Log) AppendIntent(uint64, []int) {}
func (l *Log) AppendDecision(uint64)      {}
func (l *Log) ReleaseCross(uint64)        {}
func (l *Log) Sync() error                { return nil }
func (l *Log) Durable() bool              { return false }

// AppendStamped records one write set with a pre-assigned epoch and (for
// cross-shard commits) participant set — the publication path durable
// sinks use after the fsync that makes the record safe to ship.
func (l *Log) AppendStamped(writes map[string][]byte, epoch uint64, shards []int) {
	l.mu.Lock()
	l.recs = append(l.recs, Record{
		Index:  l.base + uint64(len(l.recs)) + 1,
		Epoch:  epoch,
		Shards: shards,
		Writes: writes,
	})
	if epoch > l.lastEpoch {
		l.lastEpoch = epoch
	}
	close(l.wake)
	l.wake = make(chan struct{})
	l.maybeTrimLocked()
	l.mu.Unlock()
}

// LastEpoch returns the epoch of the newest record ever appended (or the
// epoch restored by ResetBase). SNAP reply headers carry it so a
// bootstrapping replica can seed its apply-barrier bookkeeping.
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastEpoch
}

// Head returns the index of the newest record (the trim base when empty,
// 0 when never written).
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.recs))
}

// Base returns the highest trimmed-away index: records with Index <= Base
// are gone from memory and can only be recovered from a snapshot.
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// ResetBase starts an empty log at base with lastEpoch restored to
// epoch: the next Append gets index base+1. Recovery uses it so a
// restarted primary's log resumes at its recovered commit index (and
// epoch) instead of restarting from 1. It is a boot-time operation:
// calling it on a log that holds records panics.
func (l *Log) ResetBase(base, epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) > 0 {
		panic("repl: ResetBase on a non-empty log")
	}
	l.base = base
	l.lastEpoch = epoch
}

// From returns up to max records with Index >= from, plus a channel that
// is closed on the next append — the blocking handle for tailing readers:
// when the returned slice is empty and err is nil, wait on the channel
// and retry. A from at or below the trim base draws ErrCompacted: those
// records are gone, the reader must snapshot-bootstrap instead.
func (l *Log) From(from uint64, max int) ([]Record, <-chan struct{}, error) {
	if from == 0 {
		from = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	wake := l.wake
	if from <= l.base {
		return nil, wake, ErrCompacted
	}
	if from > l.base+uint64(len(l.recs)) {
		return nil, wake, nil
	}
	recs := l.recs[from-l.base-1:]
	if max > 0 && len(recs) > max {
		recs = recs[:max]
	}
	return recs, wake, nil
}

// trimBelowLocked drops every record with Index <= idx (clamped to the
// head). The records' memory is released; readers below the new base
// get ErrCompacted. Caller holds l.mu.
func (l *Log) trimBelowLocked(idx uint64) {
	head := l.base + uint64(len(l.recs))
	if idx > head {
		idx = head
	}
	if idx <= l.base {
		return
	}
	n := int(idx - l.base)
	// Reslice now (O(1) — at steady state auto-trim drops one record per
	// append, and copying the whole retention window each time would be
	// an O(retain) tax per commit under the shard latch), but compact
	// with a real copy once the pinned prefix outgrows the live tail:
	// a bare reslice keeps every trimmed record's write set alive in the
	// backing array, so unbounded reslicing would defeat trimming.
	l.recs = l.recs[n:]
	l.resliced += n
	if l.resliced > 1024 && l.resliced >= len(l.recs) {
		kept := make([]Record, len(l.recs))
		copy(kept, l.recs)
		l.recs = kept
		l.resliced = 0
	}
	l.base = idx
	l.trimmed += int64(n)
}

// SetRetention enables retention-bounded auto-trim: every append trims
// the log to min(acked floor, durability floor, head − retain). Zero
// keeps auto-trim driven by the durability floor alone (or fully off if
// none is ever set).
func (l *Log) SetRetention(retain uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retain = retain
	if retain > 0 {
		l.autoTrim = true
	}
	l.maybeTrimLocked()
}

// SetAckFloor updates the min-acked-subscriber floor (unbounded-max when
// no subscriber tracks this shard). The Feed maintains it.
func (l *Log) SetAckFloor(idx uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ackFloor = idx
	l.maybeTrimLocked()
}

// SetDurableFloor records the newest checkpoint index: auto-trim never
// advances past it, and its presence alone enables auto-trim (with
// durability, in-memory records below min(checkpoint, min acked) serve
// no one — recovery replays from disk, joiners bootstrap via SNAP).
func (l *Log) SetDurableFloor(idx uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.durFloor = idx
	l.autoTrim = true
	l.maybeTrimLocked()
}

// maybeTrimLocked applies the auto-trim policy. Caller holds l.mu.
func (l *Log) maybeTrimLocked() {
	if !l.autoTrim {
		return
	}
	limit := l.ackFloor
	if l.durFloor < limit {
		limit = l.durFloor
	}
	if l.retain > 0 {
		head := l.base + uint64(len(l.recs))
		keepTo := uint64(0)
		if head > l.retain {
			keepTo = head - l.retain
		}
		if keepTo < limit {
			limit = keepTo
		}
	} else if limit == unbounded {
		// Durability floor configured but no retention and no acked
		// floor yet: nothing bounds the trim meaningfully.
		return
	}
	l.trimBelowLocked(limit)
}

// Trimmed returns how many records trimming has dropped so far.
func (l *Log) Trimmed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.trimmed
}

// Feed bundles the per-shard commit logs of one primary and tracks the
// ack progress of its subscribers (replicas).
type Feed struct {
	logs []*Log

	mu          sync.Mutex
	subs        map[*Sub]struct{}
	everTracked []bool        // shards some subscriber has tracked at least once
	ackWake     chan struct{} // closed and replaced on every ack-state change
	closed      bool          // Close was called: no ack is coming
}

// NewFeed returns a feed with one empty log per shard, all stamping
// commit epochs from the shared epochs counter (nil leaves records at
// epoch 0; pass the store's counter on any real primary).
func NewFeed(shards int, epochs *engine.Epochs) *Feed {
	f := &Feed{
		logs:        make([]*Log, shards),
		subs:        make(map[*Sub]struct{}),
		everTracked: make([]bool, shards),
		ackWake:     make(chan struct{}),
	}
	for i := range f.logs {
		f.logs[i] = NewLog(epochs)
	}
	return f
}

// Shards returns the number of per-shard logs.
func (f *Feed) Shards() int { return len(f.logs) }

// Log returns shard's commit log. It satisfies engine.CommitLog, so it
// plugs directly into shard.Config.CommitLogFor.
func (f *Feed) Log(shard int) *Log { return f.logs[shard] }

// SetRetention configures retention-bounded auto-trim on every log.
func (f *Feed) SetRetention(retain uint64) {
	for _, l := range f.logs {
		l.SetRetention(retain)
	}
}

// Heads returns every shard's newest log index.
func (f *Feed) Heads() []uint64 {
	out := make([]uint64, len(f.logs))
	for i, l := range f.logs {
		out[i] = l.Head()
	}
	return out
}

// EpochWatermark returns the highest commit epoch any shard log has
// recorded — the head token of HEAD replies. Lease and caught-up-ness
// decisions (cluster failover) read it without a REPL subscription.
func (f *Feed) EpochWatermark() uint64 {
	var max uint64
	for _, l := range f.logs {
		if e := l.LastEpoch(); e > max {
			max = e
		}
	}
	return max
}

// Trimmed returns the total records trimmed across all shard logs — the
// primary's log_trimmed stat.
func (f *Feed) Trimmed() int64 {
	var n int64
	for _, l := range f.logs {
		n += l.Trimmed()
	}
	return n
}

// ackFloorLocked returns the minimum acked index over subscribers
// tracking shard, or the unbounded max when none tracks it — the safe
// trim limit from the subscriber side. Caller holds f.mu.
func (f *Feed) ackFloorLocked(shard int) uint64 {
	floor := uint64(unbounded)
	for s := range f.subs {
		s.mu.Lock()
		if s.tracked[shard] && s.acked[shard] < floor {
			floor = s.acked[shard]
		}
		s.mu.Unlock()
	}
	return floor
}

// refloor recomputes shard's ack floor and pushes it into the log, which
// may auto-trim. Called whenever a subscriber's state changes. The
// compute and the apply happen under one f.mu hold: two racing refloors
// could otherwise apply out of order and install a stale high floor — a
// new subscriber's Track(=floor 0) overwritten by an older Ack's
// floor — trimming records the new subscriber is about to stream.
func (f *Feed) refloor(shard int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.logs[shard].SetAckFloor(f.ackFloorLocked(shard))
	// Ack state changed: wake WaitAcked callers blocked on subscriber
	// progress (a broadcast — each re-checks its own condition).
	close(f.ackWake)
	f.ackWake = make(chan struct{})
}

// maxAckedLocked returns the HIGHEST acked index over subscribers
// tracking shard and how many track it. Where the trim floor needs the
// minimum (nothing a subscriber still owes may be dropped), semi-sync
// ack gating needs the maximum: a commit is replicated once at least
// one replica holds it. Caller holds f.mu.
func (f *Feed) maxAckedLocked(shard int) (uint64, int) {
	var best uint64
	tracking := 0
	for s := range f.subs {
		s.mu.Lock()
		if s.tracked[shard] {
			tracking++
			if s.acked[shard] > best {
				best = s.acked[shard]
			}
		}
		s.mu.Unlock()
	}
	return best, tracking
}

// WaitAcked blocks until at least one subscriber tracking shard has
// acked its log through index, or the timeout expires. It is the
// semi-synchronous replication gate: a primary calls it after a commit
// installs and before the verdict is acknowledged, so an OK implies the
// write survives the primary's death. A shard that has never had a
// tracking subscriber returns immediately — a primary running alone (or
// freshly promoted, before any replica re-follows) degrades to
// asynchronous acks rather than stalling every write; the at-least-one
// semantics pair with most-caught-up promotion, which elects exactly a
// replica that holds the acked prefix. A shard whose subscriber
// *vanished*, though, waits out the timeout: a dying replica connection
// must not instantly open an unreplicated-ack window (the caller counts
// the eventual timeout as a degrade) — by then a client whose
// connection died with the failover has already treated the commit as
// unacknowledged. After Close it fails at once instead of waiting.
func (f *Feed) WaitAcked(shard int, index uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		f.mu.Lock()
		best, tracking := f.maxAckedLocked(shard)
		ever := f.everTracked[shard]
		wake := f.ackWake
		closed := f.closed
		f.mu.Unlock()
		if tracking > 0 && best >= index {
			return nil
		}
		if tracking == 0 && !ever {
			return nil
		}
		if closed {
			return fmt.Errorf("repl: feed closed before shard %d record %d was acked (best %d)", shard, index, best)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("repl: shard %d record %d not acked by any replica within %s (best %d)",
				shard, index, timeout, best)
		}
		// Either way, the next pass re-checks: a wake-up may have brought
		// the ack, and a timer that fired leaves no time remaining.
		t := time.NewTimer(remain)
		select {
		case <-wake:
		case <-t.C:
		}
		t.Stop()
	}
}

// Close wakes every WaitAcked caller and makes later ones fail at once:
// a closing server has closed its replicas' connections, so no ack can
// arrive and a wait would only run out its timeout. The logs stay
// usable.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		f.closed = true
		close(f.ackWake)
		f.ackWake = make(chan struct{})
	}
}

// Subscribe registers a replica connection for ack tracking. Mark each
// shard the connection actually subscribes with Track — lag is accounted
// only over tracked shards, since a partial subscriber owes no progress
// on shards it never asked for. Close the returned Sub when the
// connection goes away.
func (f *Feed) Subscribe() *Sub {
	s := &Sub{
		feed:    f,
		acked:   make([]uint64, len(f.logs)),
		tracked: make([]bool, len(f.logs)),
	}
	f.mu.Lock()
	f.subs[s] = struct{}{}
	f.mu.Unlock()
	return s
}

// Subscribers returns the number of live subscriptions.
func (f *Feed) Subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// MaxLag returns, over all live subscribers, the largest total number of
// unacked records (sum over the subscriber's tracked shards of head
// minus acked index) — the primary's repl_lag stat. Zero with no
// subscribers.
func (f *Feed) MaxLag() uint64 {
	heads := f.Heads()
	f.mu.Lock()
	defer f.mu.Unlock()
	var worst uint64
	for s := range f.subs {
		var lag uint64
		s.mu.Lock()
		for i, h := range heads {
			if !s.tracked[i] {
				continue
			}
			if a := s.acked[i]; h > a {
				lag += h - a
			}
		}
		s.mu.Unlock()
		if lag > worst {
			worst = lag
		}
	}
	return worst
}

// Sub is one subscriber's ack state.
type Sub struct {
	feed    *Feed
	mu      sync.Mutex
	acked   []uint64
	tracked []bool // shards this subscriber actually REPL-subscribed
}

// Track marks shard as subscribed, entering it into lag accounting and
// pinning the shard's trim floor at this subscriber's acked index (0
// until its first ack) so the records it is about to stream cannot be
// trimmed out from under it.
func (s *Sub) Track(shard int) {
	if shard < 0 || shard >= len(s.tracked) {
		return
	}
	s.mu.Lock()
	s.tracked[shard] = true
	s.mu.Unlock()
	s.feed.mu.Lock()
	s.feed.everTracked[shard] = true
	s.feed.mu.Unlock()
	s.feed.refloor(shard)
}

// Ack records that the subscriber has applied shard's log through index.
// Acks are monotone; a stale ack is ignored. Out-of-range shards are
// ignored (the server validates before calling). An advancing ack may
// raise the shard's trim floor.
func (s *Sub) Ack(shard int, index uint64) {
	if shard < 0 || shard >= len(s.acked) {
		return
	}
	s.mu.Lock()
	advanced := index > s.acked[shard]
	if advanced {
		s.acked[shard] = index
	}
	s.mu.Unlock()
	if advanced {
		s.feed.refloor(shard)
	}
}

// Close unregisters the subscriber from its feed and releases the trim
// floors it held.
func (s *Sub) Close() {
	s.feed.mu.Lock()
	delete(s.feed.subs, s)
	s.feed.mu.Unlock()
	s.mu.Lock()
	tracked := make([]bool, len(s.tracked))
	copy(tracked, s.tracked)
	s.mu.Unlock()
	for shard, on := range tracked {
		if on {
			s.feed.refloor(shard)
		}
	}
}
