//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// A hot key in fake time. Run with `make paper-fake`
// (GOEXPERIMENT=synctest); plain `go test ./...` skips this file. go.mod
// says 1.22, which keeps the pre-1.23 timer channels that synctest
// cannot use, hence the go:debug line; only one file in the package may
// carry it.

package engine

import (
	"errors"
	"sync"
	"testing"
	"testing/synctest"
	"time"
)

// TestLockstepHotKey: 8 goroutines each increment one key 50 times, with
// a 1 ms sleep between the Get and the Set, so in fake time every
// increment overlaps the others' in lockstep. The key must equal the
// number of commits (no lost update). An *AttemptsError is a transaction
// that gave up under contention; the count is printed, not bounded.
func TestLockstepHotKey(t *testing.T) {
	modes(t, func(t *testing.T, mode Mode) {
		synctest.Run(func() {
			s := Open(Config{Mode: mode})
			defer s.Close()
			const workers, increments = 8, 50
			var (
				all               sync.WaitGroup
				mu                sync.Mutex
				commits, attempts int64
			)
			for range workers {
				all.Add(1)
				go func() {
					defer all.Done()
					for range increments {
						err := s.Update(func(tx *Tx) error {
							v, err := getInt(tx, "hot")
							if err != nil {
								return err
							}
							time.Sleep(time.Millisecond)
							return setInt(tx, "hot", v+1)
						})
						var ae *AttemptsError
						mu.Lock()
						switch {
						case err == nil:
							commits++
						case errors.As(err, &ae):
							attempts++
						default:
							t.Errorf("increment failed: %v", err)
						}
						mu.Unlock()
					}
				}()
			}
			all.Wait()
			b, _ := s.Get("hot")
			if got := btoi(b); got != commits {
				t.Errorf("hot = %d after %d commits (lost updates)", got, commits)
			}
			st := s.Stats()
			if st.Commits != commits {
				t.Errorf("Stats().Commits = %d, want %d", st.Commits, commits)
			}
			t.Logf("%v: %d commits, %d AttemptsError, %.2f restarts and %.2f forks per commit",
				mode, commits, attempts, float64(st.Restarts)/float64(commits), float64(st.Forks)/float64(commits))
		})
	})
}
