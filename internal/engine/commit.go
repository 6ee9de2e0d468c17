// The commit pipeline: the one place that knows what must be true
// between an install and its verdict. Every path that installs writes —
// a commit-queue flush (commitqueue.go: a store's own commits, and
// internal/shard's cross-shard ones) and the replica apply
// (internal/shard) — is a caller of Commit, which runs the paper's Commit
// Rule as one staged batch:
//
//	latch the stores, ascending
//	run the caller's validate+install step
//	unlatch
//	sync the log the installs went to (one per node)
//	check the fence
//
// and hands back one error the caller stamps onto its installed verdicts.
// How commits wait for each other — queueing, leader election, drain,
// ordering — is the commit queue's; its callers keep only their
// validate+install step and a priority.
//
// Crash atomicity of a cross-store install is the commit log's: the
// whole commit — every participant's part, stamped with one epoch and the
// participant set — reaches the log in one call, under all the latches
// (InstallCrossLocked). The durable log writes it as one record and the
// replication log as adjacent parts, so the commit is whole or absent on
// disk and on the wire, and its boundary is the same one sync a
// single-store commit crosses.

package engine

// CommitRecord is one install as the commit log sees it. A standalone
// install carries its Writes and Epoch 0 (the log stamps its own epoch).
// A cross-store install carries its pre-allocated epoch, the ascending
// participant set Shards and the parallel Parts, Parts[j] being the
// writes of Shards[j]. Value is the installing transaction's value (zero
// for replicated or unvalued installs), which the durability layer ranks
// checkpoints by. The log retains every map and slice and never mutates
// them.
type CommitRecord struct {
	Writes map[string][]byte
	Value  float64
	Epoch  uint64
	Shards []int
	Parts  []map[string][]byte
}

// CommitLog is a store's commit-log sink: the replication log
// (internal/repl) or the write-ahead log (internal/durable). The stores
// one Commit latches share one log — each store's sink is a per-shard
// view of a node's — so a cross-store install is appended once, to its
// lowest participant's sink, and one Sync covers a whole batch.
// AppendCommit runs under the store latch (all the participants' for a
// cross-store record), so calls are serialized per store and their order
// IS the store's version order; it must be fast, must not call back into
// the store, and reports no errors — a log that cannot accept a record
// turns sticky-broken and fails every later Sync. In-memory logs answer
// Sync with a no-op.
type CommitLog interface {
	// AppendCommit records one install and returns the epoch it carries
	// (the log's own for a standalone record).
	AppendCommit(rec CommitRecord) uint64
	// Sync makes everything appended so far durable. It runs outside the
	// latch, once per installing batch, before any verdict of the batch is
	// delivered.
	Sync() error
	// Durable reports whether Sync waits on a device: only commits through
	// such a log announce their waits (CommitQueue.onDevice, wait.go).
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
// call only the *Locked methods of the latched stores. beforeWait, when
// set, is called before the boundary's Sync.
func Commit(stores []*Store, latch []int, beforeWait func(), step func()) error {
	for _, i := range latch {
		stores[i].mu.Lock()
	}
	step()
	var (
		sync  CommitLog
		fence func() error
	)
	installed := false
	for _, i := range latch {
		st := stores[i]
		if st.dirty {
			st.dirty, installed = false, true
			fence = st.fence
			if sync == nil {
				sync = st.log
			}
		}
		st.mu.Unlock()
	}
	if !installed {
		return nil
	}
	if beforeWait != nil {
		beforeWait()
	}
	if err := sync.Sync(); err != nil {
		return &SyncError{Err: err}
	}
	if fence != nil {
		if err := fence(); err != nil {
			return &SyncError{Err: err}
		}
	}
	return nil
}

// InstallCrossLocked installs one transaction's writes across several
// stores under epoch: writes[j] on stores[parts[j]] for every j (parts
// ascending, at least two, each with writes, all latched by the enclosing
// Commit). Every participant's state changes first; then the whole commit
// goes to the lowest participant's log in one AppendCommit, which retains
// parts and writes.
func InstallCrossLocked(stores []*Store, epoch uint64, parts []int, writes []map[string][]byte, value float64) {
	for j, i := range parts {
		stores[i].applyLocked(writes[j])
	}
	stores[parts[0]].log.AppendCommit(CommitRecord{Value: value, Epoch: epoch, Shards: parts, Parts: writes})
}
