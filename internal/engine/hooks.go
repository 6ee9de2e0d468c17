// Cross-store hooks: the latch-level surface internal/shard, recovery and
// snapshots build on without access to engine internals. A multi-store
// commit latches the involved stores in shard-index order through Commit
// (commit.go), validates every read via ValidateLocked and installs via
// ApplyLocked / InstallCrossLocked inside its step; holding every latch
// across validate and install makes the commit atomic with respect to
// other multi-store commits and to each store's own live transactions,
// and hands a durable log all of its parts before any other install on
// those stores — which is what lets it write them as one record.
// LockCommit/UnlockCommit serve the read-only and boot-time users (views,
// checkpoints, SNAP, recovery replay).

package engine

// SnapshotRead returns the committed value of key and its version. Missing
// keys report version 0, which ValidateLocked/VersionLocked reproduce, so
// reads of absent keys validate correctly.
func (s *Store) SnapshotRead(key string) ([]byte, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.committed[key]
	if !ok {
		return nil, 0
	}
	out := make([]byte, len(v.val))
	copy(out, v.val)
	return out, v.ver
}

// LockCommit acquires the store's commit latch. While held, no transaction
// of this store can commit and no committed state changes. Callers must
// not invoke any non-*Locked method of the same store before UnlockCommit,
// and must lock multiple stores in a deterministic global order.
func (s *Store) LockCommit() { s.mu.Lock() }

// UnlockCommit releases the commit latch.
func (s *Store) UnlockCommit() { s.mu.Unlock() }

// GetLocked returns the committed value of key. The caller holds the
// commit latch.
func (s *Store) GetLocked(key string) ([]byte, bool) {
	v, ok := s.committed[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v.val))
	copy(out, v.val)
	return out, true
}

// ValidateLocked reports whether every read in reads still observes the
// committed version it saw. The caller holds the commit latch.
func (s *Store) ValidateLocked(reads map[string]uint64) bool {
	for key, ver := range reads {
		if s.committed[key].ver != ver {
			return false
		}
	}
	return true
}

// ApplyLocked installs writes as one standalone commit of the given
// transaction value, with exactly the visibility a native commit has
// (bumped versions, broadcast abort). It does not touch the store's
// Commits counter: cross-store transactions are counted once by the
// coordinator, not once per shard. The caller holds the commit latch —
// inside a Commit step, or via LockCommit before the commit log is wired
// (recovery replay, which must not re-log its own past).
func (s *Store) ApplyLocked(writes map[string][]byte, value float64) {
	s.installLocked(CommitRecord{Writes: writes, Value: value})
}

// RangeLocked calls fn for every committed key until fn returns false.
// The value slice is the store's internal buffer: fn must not mutate it
// and must copy (or serialize) before the latch is released. The caller
// holds the commit latch. Iteration order is unspecified. This is the
// snapshot surface checkpoints and SNAP bootstraps are built on.
func (s *Store) RangeLocked(fn func(key string, val []byte) bool) {
	for k, v := range s.committed {
		if !fn(k, v.val) {
			return
		}
	}
}

// SetCommitLog installs (or replaces) the store's commit log; nil
// detaches it. Recovery opens the store with no log, replays history
// through ApplyLocked and only then wires the log, from which point every
// install is recorded again.
func (s *Store) SetCommitLog(cl CommitLog) {
	if cl == nil {
		cl = nopLog{}
	}
	s.mu.Lock()
	s.log = cl
	s.mu.Unlock()
}

// SetFence installs the last check of the commit boundary: f runs once
// per installing batch, after the batch is durable and before any of its
// verdicts is delivered, and a non-nil error fails them all — installed,
// never acknowledged. The cluster layer uses it so a deposed primary
// never acks, whatever its commit log is. nil removes the check.
func (s *Store) SetFence(f func() error) {
	s.mu.Lock()
	s.fence = f
	s.mu.Unlock()
}

// SyncCommitLog flushes the commit log outside any commit: the
// durability flush a snapshot needs before state that may include
// not-yet-synced installs leaves the server. Callers must NOT hold the
// commit latch.
func (s *Store) SyncCommitLog() error {
	s.mu.Lock()
	log := s.log
	s.mu.Unlock()
	return log.Sync()
}
