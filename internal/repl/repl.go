// Package repl replicates a sharded SCC store. A node's commit order is
// one in-memory Log of whole transactions: every shard's store appends
// to it through its own sink (an engine.CommitLog view of the log), and a
// cross-shard commit arrives in one call and sits in the log as its parts
// side by side. A Feed tracks subscriber progress on the log, and a
// Replica streams it over the wire protocol's REPL/ACK verbs (see
// docs/PROTOCOL.md) into a local store in log order, via the ApplyLocked
// path. Replica reads are value-cognizant: a LagGate sheds read-only
// transactions whose value function would cross zero before the
// replica's estimated catch-up, the replication analogue of the paper's
// zero-crossing load shedding. docs/ARCHITECTURE.md places the package
// in the overall data flow.
//
// A position is a part's rank in the node's commit order (1-based), so
// the position after a record is the sum of its shards' commit-log
// indices. Logs are trimmable: parts below a trim point are dropped from
// memory (the durability layer, internal/durable, keeps them on disk),
// and a subscriber asking for a trimmed position is refused with
// ErrCompacted — it bootstraps from a snapshot (the SNAP verb) instead.
// Trimming advances to min(acked floor, head − retention): never past
// what a subscriber still owes, and always keeping the retention window
// for briefly-absent subscribers to resume without a snapshot.
package repl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// ErrCompacted is returned by Log.From when the requested position has
// been trimmed away. The subscriber cannot replay from there; it must
// bootstrap from a snapshot and resume above the log's Base.
var ErrCompacted = errors.New("repl: log trimmed below requested position")

// retention is how many of the newest parts a log keeps whatever its
// subscribers have acked.
const retention = 1 << 16

// unbounded marks an absent floor (no subscriber): it never constrains a
// min().
const unbounded = ^uint64(0)

// Record is one part of a committed transaction: the writes it installed
// on Shard, at position Index in the node's commit order. Records applied
// in Index order reproduce the primary's committed state and per-key
// versions exactly.
//
// Epoch is the global commit epoch stamped on the commit (0 only from
// legacy sinks with no epoch source); within one shard, epochs are
// strictly increasing. Shards is nil for a standalone commit. For a
// cross-shard commit it lists every participant shard (ascending), and
// the commit's parts sit at consecutive positions in that order, each
// carrying the same epoch and list.
type Record struct {
	Index  uint64
	Shard  int
	Epoch  uint64
	Shards []int
	Writes map[string][]byte
}

// Cross reports whether the record is one part of a multi-shard commit.
func (r Record) Cross() bool { return len(r.Shards) > 1 }

// Log is a node's commit order. Its sinks append under the shard latches,
// so each shard's parts appear in that shard's version order.
type Log struct {
	epochs *engine.Epochs // stamps standalone appends; nil = epoch 0 (legacy sinks)

	mu        sync.Mutex
	base      uint64 // highest trimmed-away position; recs[0].Index == base+1
	lastEpoch uint64 // highest epoch ever appended (survives trims)
	recs      []Record
	wake      chan struct{} // closed and replaced on every append

	retain   uint64 // auto-trim keeps at least this many newest parts
	ackFloor uint64 // min acked position over subscribers (unbounded if none)
	trimmed  int64  // parts dropped by trimming, cumulative
	resliced int    // trimmed parts whose backing memory is still pinned
}

// NewLog returns an empty log stamping epochs from epochs (nil leaves
// every record at epoch 0 — acceptable only for tests and legacy sinks).
func NewLog(epochs *engine.Epochs) *Log {
	return &Log{epochs: epochs, wake: make(chan struct{}), retain: retention, ackFloor: unbounded}
}

// Append records one standalone write set on shard 0.
func (l *Log) Append(writes map[string][]byte) {
	l.publish(0, engine.CommitRecord{Writes: writes})
}

// publish appends one commit — a standalone record of shard's, or every
// part of a cross-shard one — under one hold of the mutex and wakes
// blocked readers. The maps are retained, not copied: committed write
// sets are never mutated afterwards. A standalone record's epoch is
// allocated here, under the shard's latch, so per-shard epoch order
// matches log order; a cross-shard record ships with its pre-allocated
// epoch.
func (l *Log) publish(shard int, c engine.CommitRecord) uint64 {
	if c.Epoch == 0 && l.epochs != nil {
		c.Epoch = l.epochs.Next()
	}
	l.mu.Lock()
	next := l.base + uint64(len(l.recs)) + 1
	if c.Shards == nil {
		l.recs = append(l.recs, Record{Index: next, Shard: shard, Epoch: c.Epoch, Writes: c.Writes})
	}
	for j, s := range c.Shards {
		l.recs = append(l.recs, Record{Index: next + uint64(j), Shard: s, Epoch: c.Epoch, Shards: c.Shards, Writes: c.Parts[j]})
	}
	l.lastEpoch = max(l.lastEpoch, c.Epoch)
	close(l.wake)
	l.wake = make(chan struct{})
	l.maybeTrimLocked()
	l.mu.Unlock()
	return c.Epoch
}

// sink is one shard's view of a node's log: the engine.CommitLog that
// shard's store appends to. The log is in memory, so Sync has nothing to
// do.
type sink struct {
	log   *Log
	shard int
}

func (s sink) AppendCommit(c engine.CommitRecord) uint64 { return s.log.publish(s.shard, c) }
func (sink) Sync() error                                 { return nil }
func (sink) Durable() bool                               { return false }

// LastEpoch returns the highest epoch ever appended (or the epoch
// restored by ResetBase): the feed's epoch watermark, which SNAP and HEAD
// replies carry.
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastEpoch
}

// Head returns the position of the newest part (the trim base when
// empty, 0 when never written).
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.recs))
}

// Base returns the highest trimmed-away position: parts at or below it
// are gone from memory and can only be recovered from a snapshot.
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// ResetBase starts an empty log at base with lastEpoch restored to
// epoch: the next part gets position base+1. Recovery and promotion use
// it so a log resumes the node's numbering instead of restarting from 1.
// It is a boot-time operation: calling it on a log that holds records
// panics.
func (l *Log) ResetBase(base, epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) > 0 {
		panic("repl: ResetBase on a non-empty log")
	}
	l.base = base
	l.lastEpoch = epoch
}

// From returns up to max parts with position >= from, plus a channel that
// is closed on the next append — the blocking handle for tailing readers:
// when the returned slice is empty and err is nil, wait on the channel
// and retry. A from at or below the trim base draws ErrCompacted: those
// parts are gone, the reader must snapshot-bootstrap instead.
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

// trimBelowLocked drops every part at or below pos (clamped to the
// head). The parts' memory is released; readers below the new base get
// ErrCompacted. Caller holds l.mu.
func (l *Log) trimBelowLocked(pos uint64) {
	pos = min(pos, l.base+uint64(len(l.recs)))
	if pos <= l.base {
		return
	}
	n := int(pos - l.base)
	// Reslice now (O(1) — at steady state auto-trim drops one commit per
	// append, and copying the whole retention window each time would be
	// an O(retain) tax per commit under the shard latch), but compact
	// with a real copy once the pinned prefix outgrows the live tail:
	// a bare reslice keeps every trimmed part's write set alive in the
	// backing array, so unbounded reslicing would defeat trimming.
	l.recs = l.recs[n:]
	l.resliced += n
	if l.resliced > 1024 && l.resliced >= len(l.recs) {
		kept := make([]Record, len(l.recs))
		copy(kept, l.recs)
		l.recs = kept
		l.resliced = 0
	}
	l.base = pos
	l.trimmed += int64(n)
}

// SetRetention sets how many of the newest parts the log keeps whatever
// its subscribers have acked (the default is 65 536), and trims to the
// new window.
func (l *Log) SetRetention(retain uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retain = retain
	l.maybeTrimLocked()
}

// setAckFloor updates the min-acked-subscriber floor (unbounded with no
// subscriber) and trims to it. The Feed maintains it.
func (l *Log) setAckFloor(pos uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ackFloor = pos
	l.maybeTrimLocked()
}

// maybeTrimLocked trims to min(acked floor, head − retention). Caller
// holds l.mu.
func (l *Log) maybeTrimLocked() {
	if head := l.base + uint64(len(l.recs)); head > l.retain {
		l.trimBelowLocked(min(l.ackFloor, head-l.retain))
	}
}

// Trimmed returns how many parts trimming has dropped so far.
func (l *Log) Trimmed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.trimmed
}

// Feed is a primary's replication feed: its node log, one sink per shard
// into it, and the acked positions of its subscribers (replicas).
type Feed struct {
	log   *Log
	sinks []engine.CommitLog

	mu      sync.Mutex
	subs    map[*Sub]struct{}
	hadSubs bool          // a subscriber has existed: semi-sync waits from then on
	ackWake chan struct{} // closed and replaced on every ack-state change
	closed  bool          // Close was called: no ack is coming
}

// NewFeed returns a feed over an empty log with one sink per shard,
// stamping commit epochs from the shared epochs counter (nil leaves
// records at epoch 0; pass the store's counter on any real primary).
func NewFeed(shards int, epochs *engine.Epochs) *Feed {
	f := &Feed{
		log:     NewLog(epochs),
		sinks:   make([]engine.CommitLog, shards),
		subs:    make(map[*Sub]struct{}),
		ackWake: make(chan struct{}),
	}
	for i := range f.sinks {
		f.sinks[i] = sink{log: f.log, shard: i}
	}
	return f
}

// Shards returns the number of shards the feed has sinks for.
func (f *Feed) Shards() int { return len(f.sinks) }

// Log returns the feed's node log.
func (f *Feed) Log() *Log { return f.log }

// Sink returns shard's view of the log. It satisfies engine.CommitLog, so
// it plugs directly into the shard's store; a durable node publishes its
// synced records through it.
func (f *Feed) Sink(shard int) engine.CommitLog { return f.sinks[shard] }

// refloorLocked pushes the subscribers' minimum acked position into the
// log, which may trim, and wakes WaitAcked callers. Caller holds f.mu:
// computing and applying under one hold keeps two racing refloors from
// installing a stale high floor — a new subscriber's floor of 0
// overwritten by an older ack's — and trimming what the new subscriber is
// about to stream.
func (f *Feed) refloorLocked() {
	floor := uint64(unbounded)
	for s := range f.subs {
		floor = min(floor, s.acked)
	}
	f.log.setAckFloor(floor)
	close(f.ackWake)
	f.ackWake = make(chan struct{})
}

// WaitAcked blocks until at least one subscriber has acked position pos,
// or the timeout expires. It is the semi-synchronous replication gate: a
// primary calls it after a commit installs and before the verdict is
// acknowledged, so an OK implies the write survives the primary's death.
// A feed that has never had a subscriber returns immediately — a primary
// running alone (or freshly promoted, before any replica re-follows)
// degrades to asynchronous acks rather than stalling every write; the
// at-least-one semantics pair with most-caught-up promotion, which
// elects exactly a replica that holds the acked prefix. A feed whose
// subscriber *vanished*, though, waits out the timeout: a dying replica
// connection must not instantly open an unreplicated-ack window (the
// caller counts the eventual timeout as a degrade) — by then a client
// whose connection died with the failover has already treated the commit
// as unacknowledged. After Close it fails at once instead of waiting.
func (f *Feed) WaitAcked(pos uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		f.mu.Lock()
		var best uint64
		for s := range f.subs {
			best = max(best, s.acked)
		}
		subs, had, wake, closed := len(f.subs), f.hadSubs, f.ackWake, f.closed
		f.mu.Unlock()
		if (subs > 0 && best >= pos) || !had {
			return nil
		}
		if closed {
			return fmt.Errorf("repl: feed closed before position %d was acked (best %d)", pos, best)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("repl: position %d not acked by any replica within %s (best %d)", pos, timeout, best)
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
// arrive and a wait would only run out its timeout. The log stays
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

// Subscribe registers a replica connection for ack tracking. Until its
// first Ack the subscriber pins the log's trim floor at 0, so the parts
// it is about to stream cannot be trimmed out from under it. Close the
// returned Sub when the connection goes away.
func (f *Feed) Subscribe() *Sub {
	s := &Sub{feed: f}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.subs[s] = struct{}{}
	f.hadSubs = true
	f.refloorLocked()
	return s
}

// Subscribers returns the number of live subscriptions.
func (f *Feed) Subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Sub is one subscriber's ack state.
type Sub struct {
	feed  *Feed
	acked uint64 // guarded by feed.mu
}

// Ack records that the subscriber has applied the log through pos. Acks
// are monotone; a stale ack is ignored. An advancing ack may raise the
// log's trim floor.
func (s *Sub) Ack(pos uint64) {
	f := s.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	if pos > s.acked {
		s.acked = pos
		f.refloorLocked()
	}
}

// Close unregisters the subscriber from its feed and releases the trim
// floor it held.
func (s *Sub) Close() {
	f := s.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.subs, s)
	f.refloorLocked()
}
