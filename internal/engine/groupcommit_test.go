package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// stallLog is a durable commit log whose Sync blocks until the test lets
// it go — the deterministic seam for "batch behind a running sync": each
// Sync announces itself on syncing and returns on a token from release.
type stallLog struct {
	nopLog
	syncing, release chan struct{}
}

func newStallLog() *stallLog {
	return &stallLog{syncing: make(chan struct{}), release: make(chan struct{})}
}

func (l *stallLog) Durable() bool { return true }
func (l *stallLog) Sync() error {
	l.syncing <- struct{}{}
	<-l.release
	return nil
}

// waitPending spins (no sleeps — the flush in front is held open by the
// log, not by a clock) until n commits are queued behind it.
func waitPending(t *testing.T, s *Store, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.PendingCommits() < n {
		if time.Now().After(deadline) {
			t.Fatalf("pending commits stuck at %d, want %d", s.PendingCommits(), n)
		}
		runtime.Gosched()
	}
}

// setAll starts one blind single-key write per key and returns the group
// to wait on.
func setAll(t *testing.T, s *Store, keys ...string) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, key := range keys {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if err := s.Update(func(tx *Tx) error { return tx.Set(key, []byte{1}) }); err != nil {
				t.Errorf("update %s: %v", key, err)
			}
		}(key)
	}
	return &wg
}

func keysN(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}

// TestGroupCommitCoalesces is the deterministic coalescing test: a lone
// commit flushes at once and stalls in its log sync; the n commits that
// finish meanwhile queue behind it and, when it completes, commit under
// ONE further latch acquisition and one sync. The zero GroupCommit
// batches too: no configuration commits one latch acquisition at a time.
func TestGroupCommitCoalesces(t *testing.T) {
	const n = 8
	for _, gc := range []GroupCommit{{MaxBatch: 1 << 20}, {}} {
		log := newStallLog()
		s := Open(Config{GroupCommit: gc})
		s.SetCommitLog(log)
		defer s.Close()
		first := setAll(t, s, "first")
		<-log.syncing // nothing to wait for: the lone commit is already at its boundary
		rest := setAll(t, s, keysN(n)...)
		waitPending(t, s, n)
		log.release <- struct{}{}
		<-log.syncing
		if got := s.PendingCommits(); got != 0 {
			t.Fatalf("%+v: pending behind the second flush = %d, want 0 (it took the whole queue)", gc, got)
		}
		log.release <- struct{}{}
		first.Wait()
		rest.Wait()
		if st := s.Stats(); st.Commits != n+1 || st.CommitBatches != 2 {
			t.Errorf("%+v: commits = %d, batches = %d, want %d commits under 2 latch acquisitions",
				gc, st.Commits, st.CommitBatches, n+1)
		}
	}
}

// TestGroupCommitMaxBatch: a flush takes at most MaxBatch queued commits
// and the remainder is the next batch — and a leader that has served
// MaxBatch commits beyond its own batch passes the queue on instead of
// draining it to the end.
func TestGroupCommitMaxBatch(t *testing.T) {
	const max = 4
	log := newStallLog()
	s := Open(Config{GroupCommit: GroupCommit{MaxBatch: max}})
	s.SetCommitLog(log)
	defer s.Close()
	first := setAll(t, s, "first")
	<-log.syncing
	rest := setAll(t, s, keysN(2*max+1)...)
	waitPending(t, s, 2*max+1)
	// Behind the stalled flush: 9 queued. The leader takes 4, then has
	// spent its budget; its successor takes 4 and then the last 1.
	for _, want := range []int{max + 1, 1, 0} {
		log.release <- struct{}{}
		<-log.syncing
		if got := s.PendingCommits(); got != want {
			t.Errorf("pending behind a capped flush = %d, want %d", got, want)
		}
	}
	log.release <- struct{}{}
	first.Wait()
	rest.Wait()
	if st := s.Stats(); st.Commits != 2*max+2 || st.CommitBatches != 4 {
		t.Errorf("commits = %d, batches = %d, want %d commits in 4 flushes (1, %d, %d, 1)",
			st.Commits, st.CommitBatches, 2*max+2, max, max)
	}
}

// TestGroupCommitConflicts drives contended read-modify-writes through the
// group path: correctness must be identical to the per-commit path under
// both protocols — every increment lands exactly once.
func TestGroupCommitConflicts(t *testing.T) {
	for _, mode := range []Mode{SCC2S, OCCBC} {
		t.Run(mode.String(), func(t *testing.T) {
			s := Open(Config{Mode: mode, GroupCommit: GroupCommit{MaxBatch: 8}})
			defer s.Close()
			const workers, iters = 8, 25
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						err := s.Update(func(tx *Tx) error {
							v, err := tx.Get("hot")
							if err != nil {
								return err
							}
							var n byte
							if len(v) > 0 {
								n = v[0]
							}
							return tx.Set("hot", []byte{n + 1})
						})
						if err != nil {
							t.Errorf("update: %v", err)
						}
					}
				}()
			}
			wg.Wait()
			checkQuiesced(t, s)
			v, ok := s.Get("hot")
			if !ok || len(v) == 0 || v[0] != workers*iters {
				t.Fatalf("hot = %v (ok=%v), want [%d]", v, ok, workers*iters)
			}
			st := s.Stats()
			if st.CommitBatches == 0 || st.Commits < workers*iters {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}
