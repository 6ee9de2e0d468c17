package engine

import (
	"strconv"
	"sync"
	"testing"
)

// recLog records appended write sets; Append runs under the store latch,
// so no locking of its own is needed for the engine's calls, but the
// test reads it after the fact.
type recLog struct {
	nopLog
	mu   sync.Mutex
	recs []map[string][]byte
}

func (l *recLog) AppendCommit(rec CommitRecord) uint64 {
	l.mu.Lock()
	l.recs = append(l.recs, rec.Writes)
	l.mu.Unlock()
	return 0
}

// TestCommitLogOrderMatchesState: replaying the commit log against a
// fresh map reproduces the store's committed state — the property
// replication log shipping rests on. Concurrent read-modify-writes force
// conflicts, so the log order is a real serialization order, not just
// arrival order.
func TestCommitLogOrderMatchesState(t *testing.T) {
	log := &recLog{}
	s := Open(Config{})
	s.SetCommitLog(log)
	const workers, incs = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				err := s.Update(func(tx *Tx) error {
					v, err := tx.Get("n")
					if err != nil {
						return err
					}
					n := 0
					if len(v) > 0 {
						n, _ = strconv.Atoi(string(v))
					}
					return tx.Set("n", []byte(strconv.Itoa(n+1)))
				})
				if err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()

	replay := make(map[string]string)
	for _, rec := range log.recs {
		for k, v := range rec {
			replay[k] = string(v)
		}
	}
	got, _ := s.Get("n")
	want := strconv.Itoa(workers * incs)
	if string(got) != want {
		t.Fatalf("committed n = %s, want %s", got, want)
	}
	if replay["n"] != want {
		t.Fatalf("log replay n = %s, want %s (log order is not the commit order)", replay["n"], want)
	}
	if len(log.recs) != workers*incs {
		t.Fatalf("log has %d records, want %d (one per commit)", len(log.recs), workers*incs)
	}
}
