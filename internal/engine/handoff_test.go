package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHandOffNeverLosesACommit is the regression stress for the shadow
// hand-off: a driver whose optimistic run lost must decide "wait for my
// shadow" or "leave the active set and restart" in one critical section.
// When it did not, a Write-Rule fork landing in between could run and
// commit the transaction behind a driver that then restarted it, every
// later attempt bounced off the resolved flag, and the caller was told
// AttemptsError for an installed commit.
//
// The closures are session-shaped, as in server.session.liveFn: they read,
// park on a sync.Cond until their client's verdict is broadcast, then
// write — so optimistic runs sit aborted while conflicting writers come
// and go, and every re-execution sails past the cond. (One-shot closures
// do not reach the window.) Each transaction also writes a marker of its
// own, so an error verdict for installed writes is caught directly, and
// the acked transfers must add up to exactly the stored balances.
func TestHandOffNeverLosesACommit(t *testing.T) {
	const keys, workers, per, think = 8, 32, 100, 4
	// More Ps than a small CI box has cores: the OS then preempts drivers
	// between critical sections, which is what the window needs (with the
	// hand-off split in two again this fails about every second run at 4,
	// one run in ten at 2).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	s := Open(Config{Mode: SCC2S})
	defer s.Close()
	key := func(i int) string { return fmt.Sprintf("acct%d", i) }

	var acked [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				from := rng.Intn(keys)
				to := (from + 1 + rng.Intn(keys-1)) % keys
				d := int64(1 + rng.Intn(9))
				marker := fmt.Sprintf("m/%d/%d", w, i)

				var mu sync.Mutex
				cond, fin := sync.NewCond(&mu), false
				go func() { // the client: its COMMIT arrives after some think time
					for j := 0; j < think; j++ {
						runtime.Gosched()
					}
					mu.Lock()
					fin = true
					cond.Broadcast()
					mu.Unlock()
				}()
				err := s.Update(func(tx *Tx) error {
					a, err := getInt(tx, key(from))
					if err != nil {
						return err
					}
					b, err := getInt(tx, key(to))
					if err != nil {
						return err
					}
					mu.Lock()
					for !fin {
						cond.Wait()
					}
					mu.Unlock()
					if err := setInt(tx, key(from), a-d); err != nil {
						return err
					}
					if err := setInt(tx, key(to), b+d); err != nil {
						return err
					}
					return tx.Set(marker, []byte{1})
				})
				if err == nil {
					acked[from].Add(-d)
					acked[to].Add(d)
					continue
				}
				if _, installed := s.Get(marker); installed {
					var ae *AttemptsError
					t.Errorf("txn %s: verdict %q (AttemptsError: %v) but its writes are installed",
						marker, err, errors.As(err, &ae))
				}
			}
		}(w)
	}
	wg.Wait()
	checkQuiesced(t, s)
	for i := range acked {
		b, _ := s.Get(key(i))
		if got, want := btoi(b), acked[i].Load(); got != want {
			t.Errorf("%s = %d, acked transfers sum to %d: a commit was installed and not acknowledged (or the reverse)",
				key(i), got, want)
		}
	}
}
