// The commit pipeline: the one place that knows what must be true
// between an install and its verdict. Every path that installs writes —
// a commit-queue flush (commitqueue.go: a store's own commits, and
// internal/shard's cross-shard ones) and the two replica applies
// (internal/shard) — is a caller of Commit, which runs the paper's Commit
// Rule as one staged batch:
//
//	latch the stores, ascending
//	run the caller's validate+install step
//	unlatch
//	sync the log of every store that installed
//	check the fence
//
// and hands back one error the caller stamps onto its installed verdicts.
// How commits wait for each other — queueing, leader election, drain,
// ordering — is the commit queue's; its callers keep only their
// validate+install step and a priority.
//
// Crash atomicity of a cross-store install is the commit log's: every
// participant's part is appended under all the latches, stamped with one
// epoch and the participant set (InstallCrossLocked), and the durable
// log (internal/durable) writes the parts as one record. On disk the
// commit is whole or absent, so its boundary is the same one sync a
// single-store commit crosses.

package engine

// CommitRecord is one install as the commit log sees it. Epoch 0 is a
// standalone install (the log stamps its own epoch); non-zero carries a
// cross-store commit's pre-allocated epoch and its ascending participant
// set, the atomicity metadata the durable log and the replica apply
// barrier need. Value is the installing transaction's value (zero for
// replicated or unvalued installs), which the durability layer ranks
// checkpoints by. Writes is retained by the log and never mutated after
// commit.
type CommitRecord struct {
	Writes map[string][]byte
	Value  float64
	Epoch  uint64
	Shards []int
}

// CommitLog is a store's commit-log sink: the replication log
// (internal/repl) or the write-ahead log (internal/durable). AppendCommit
// runs under the store latch, so calls are serialized and their order IS
// the store's version order; it must be fast, must not call back into
// the store, and reports no errors — a log that cannot accept a record
// turns sticky-broken and fails every later Sync. In-memory logs answer
// Sync with a no-op.
type CommitLog interface {
	// AppendCommit records one install and returns the epoch it carries
	// (the log's own for a standalone record). The parts of a cross-store
	// install arrive one call per participant, all under every
	// participant's latch.
	AppendCommit(rec CommitRecord) uint64
	// Sync makes everything appended so far durable. It runs outside the
	// latch, once per batch, before any verdict of the batch is delivered.
	Sync() error
	// Durable reports whether Sync does I/O; logs that answer false are
	// not synced.
	Durable() bool
}

// nopLog is the sink of a store without a commit log.
type nopLog struct{}

func (nopLog) AppendCommit(CommitRecord) uint64 { return 0 }
func (nopLog) Sync() error                      { return nil }
func (nopLog) Durable() bool                    { return false }

// SyncError is the verdict of a commit that was installed but failed the
// commit boundary — its log could not be synced, or the node was fenced
// meanwhile. The writes are in memory but were never acknowledged.
// Callers must report failure (the serving layer answers ERR and books
// the value as lost) and must not retry — the writes are in place.
type SyncError struct{ Err error }

func (e *SyncError) Error() string { return "engine: commit not durable: " + e.Err.Error() }
func (e *SyncError) Unwrap() error { return e.Err }

// Commit runs step under the commit latches of stores[i] for every i in
// latch — which must be ascending, so concurrent batches over
// overlapping sets cannot deadlock — then carries whatever step
// installed across the commit boundary. A non-nil result is a *SyncError:
// every install of the batch is in memory and none may be acknowledged;
// verdicts of requests that installed nothing are unaffected. step may
// call only the *Locked methods of the latched stores.
func Commit(stores []*Store, latch []int, step func()) error {
	for _, i := range latch {
		stores[i].mu.Lock()
	}
	step()
	var (
		syncBuf [4]CommitLog
		syncs   = syncBuf[:0]
		fence   func() error
	)
	installed := false
	for _, i := range latch {
		st := stores[i]
		if st.dirty {
			st.dirty, installed = false, true
			fence = st.fence
			if st.log.Durable() {
				syncs = append(syncs, st.log)
			}
		}
		st.mu.Unlock()
	}
	if !installed {
		return nil
	}
	// One after the other: logs that share a file (a node's shards,
	// internal/durable) find the first Sync did the fsync.
	for _, l := range syncs {
		if err := l.Sync(); err != nil {
			return &SyncError{Err: err}
		}
	}
	if fence != nil {
		if err := fence(); err != nil {
			return &SyncError{Err: err}
		}
	}
	return nil
}

// InstallCrossLocked installs one transaction's writes across several
// stores under epoch: writes[i] on stores[i] for every i in parts
// (ascending, at least two, each with writes, all latched by the
// enclosing Commit). Each participant's log receives its part stamped
// with the epoch and the participant set.
func InstallCrossLocked(stores []*Store, epoch uint64, parts []int, writes map[int]map[string][]byte, value float64) {
	for _, i := range parts {
		stores[i].installLocked(CommitRecord{Writes: writes[i], Value: value, Epoch: epoch, Shards: parts})
	}
}
