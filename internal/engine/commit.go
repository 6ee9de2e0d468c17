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
//	round 1: sync the log of every store that installed
//	if the step minted cross-store epochs (InstallCrossLocked):
//	    append DECISION(epoch) to each epoch's coordinator log
//	    round 2: sync the coordinators — the commit point
//	    release the epochs for replication shipping
//	check the fence
//
// and hands back one error the caller stamps onto its installed verdicts.
// How commits wait for each other — queueing, leader election, drain,
// ordering — is the commit queue's; its callers keep only their
// validate+install step and a priority.
//
// Crash atomicity of a cross-store install is presumed-abort, keyed by
// its commit epoch: INTENT(epoch, participants) lands on every
// participant's log ahead of the epoch's data records, all under the
// latches; the single DECISION is appended strictly after round 1, so it
// can never be durable before the data it decides. Recovery
// (internal/durable) keeps an epoch with a durable decision on every
// participant and discards one without on every participant — a crash
// between the rounds can lose an unacknowledged commit, never tear one.

package engine

import (
	"slices"
	"sync"
)

// CommitRecord is one install as the commit log sees it. Epoch 0 is a
// standalone install (the log stamps its own epoch); non-zero carries a
// cross-store commit's pre-allocated epoch and its ascending participant
// set, the atomicity metadata recovery and the replica apply barrier
// need. Value is the installing transaction's value (zero for replicated
// or unvalued installs), which the durability layer ranks checkpoints by.
// Writes is retained by the log and never mutated after commit.
type CommitRecord struct {
	Writes map[string][]byte
	Value  float64
	Epoch  uint64
	Shards []int
}

// CommitLog is a store's commit-log sink: the replication log
// (internal/repl) or the write-ahead log (internal/durable). The append
// methods run under the store latch, so calls are serialized and their
// order IS the store's version order; they must be fast, must not call
// back into the store, and report no errors — a log that cannot accept a
// record turns sticky-broken and fails every later Sync. In-memory logs
// answer the durability methods with no-ops.
type CommitLog interface {
	// AppendCommit records one install and returns the epoch it carries
	// (the log's own for a standalone record).
	AppendCommit(rec CommitRecord) uint64
	// AppendIntent and AppendDecision write a cross-store epoch's control
	// records; ReleaseCross un-gates the epoch's data record for
	// replication shipping once its decision is durable.
	AppendIntent(epoch uint64, shards []int)
	AppendDecision(epoch uint64)
	ReleaseCross(epoch uint64)
	// Sync makes everything appended so far durable. It runs outside the
	// latch, once per batch, before any verdict of the batch is delivered.
	Sync() error
	// Durable reports whether Sync does I/O; logs that answer false are
	// left out of the sync rounds.
	Durable() bool
}

// nopLog is the sink of a store without a commit log.
type nopLog struct{}

func (nopLog) AppendCommit(CommitRecord) uint64 { return 0 }
func (nopLog) AppendIntent(uint64, []int)       {}
func (nopLog) AppendDecision(uint64)            {}
func (nopLog) ReleaseCross(uint64)              {}
func (nopLog) Sync() error                      { return nil }
func (nopLog) Durable() bool                    { return false }

// SyncError is the verdict of a commit that was installed but failed the
// commit boundary — its log could not be synced, its cross-store epoch
// could not be decided, or the node was fenced meanwhile. The writes are
// in memory but were never acknowledged. Callers must report failure (the
// serving layer answers ERR and books the value as lost) and must not
// retry — the writes are in place.
type SyncError struct{ Err error }

func (e *SyncError) Error() string { return "engine: commit not durable: " + e.Err.Error() }
func (e *SyncError) Unwrap() error { return e.Err }

// crossInstall is one cross-store install awaiting its decision: the
// epoch and its participants' logs, the coordinator's first.
type crossInstall struct {
	epoch uint64
	logs  []CommitLog
}

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
		syncBuf  [4]CommitLog
		crossBuf [4]crossInstall
		syncs    = syncBuf[:0]
		cross    = crossBuf[:0]
		fence    func() error
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
		cross = append(cross, st.undecided...)
		st.undecided = st.undecided[:0]
		st.mu.Unlock()
	}
	if !installed {
		return nil
	}
	err := settle(syncs, cross)
	if err == nil && fence != nil {
		err = fence()
	}
	if err != nil {
		return &SyncError{Err: err}
	}
	return nil
}

// settle is the durability boundary of one batch. On error the
// un-decided epochs stay gated: the log is sticky-broken by then and the
// server fail-stops, so the gate never starves a healthy pipeline.
func settle(syncs []CommitLog, cross []crossInstall) error {
	if err := syncLogs(syncs); err != nil {
		return err
	}
	if len(cross) == 0 {
		return nil
	}
	var coordBuf [4]CommitLog
	coords := coordBuf[:0]
	for _, in := range cross {
		coord := in.logs[0]
		coord.AppendDecision(in.epoch)
		if coord.Durable() && !slices.Contains(coords, coord) {
			coords = append(coords, coord)
		}
	}
	if err := syncLogs(coords); err != nil {
		return err
	}
	for _, in := range cross {
		for _, l := range in.logs {
			l.ReleaseCross(in.epoch)
		}
	}
	return nil
}

// syncLogs syncs logs and returns the first error. The logs are
// independent files, so several sync concurrently: the batch waits one
// fsync, not len(logs) of them.
func syncLogs(logs []CommitLog) error {
	switch len(logs) {
	case 0:
		return nil
	case 1:
		return logs[0].Sync()
	}
	errs := make([]error, len(logs))
	var wg sync.WaitGroup
	for i, l := range logs {
		wg.Add(1)
		go func(i int, l CommitLog) {
			defer wg.Done()
			errs[i] = l.Sync()
		}(i, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// InstallCrossLocked installs one transaction's writes across several
// stores under epoch: writes[i] on stores[i] for every i in parts
// (ascending, at least two, all latched by the enclosing Commit, whose
// boundary then decides the epoch). Intents go to every participant
// before any data record, so each log sees INTENT ahead of its data and
// no other commit interleaves.
func InstallCrossLocked(stores []*Store, epoch uint64, parts []int, writes map[int]map[string][]byte, value float64) {
	logs := make([]CommitLog, len(parts))
	for k, i := range parts {
		logs[k] = stores[i].log
		logs[k].AppendIntent(epoch, parts)
	}
	for _, i := range parts {
		stores[i].installLocked(CommitRecord{Writes: writes[i], Value: value, Epoch: epoch, Shards: parts})
	}
	coord := stores[parts[0]]
	coord.undecided = append(coord.undecided, crossInstall{epoch: epoch, logs: logs})
}
