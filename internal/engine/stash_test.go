package engine

import (
	"encoding/binary"
	"sync"
	"testing"
)

// TestStashUnderContention pins the race-free result channel: 8 workers
// increment one hot counter, each stashing the value it installed. Because
// every commit bumps the counter by exactly one, the multiset of returned
// stashes must be a permutation of 1..N — a stale stash (from a losing
// shadow's execution) or a torn captured slice would duplicate or skip
// values.
func TestStashUnderContention(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	const workers, per = 8, 50
	results := make(chan uint64, workers*per)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				res, err := s.UpdateTracedResult(0, nil, nil, func(tx *Tx) error {
					v, err := tx.Get("hot")
					if err != nil {
						return err
					}
					var n uint64
					if len(v) == 8 {
						n = binary.BigEndian.Uint64(v)
					}
					n++
					var buf [8]byte
					binary.BigEndian.PutUint64(buf[:], n)
					if err := tx.Set("hot", buf[:]); err != nil {
						return err
					}
					tx.Stash(n)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				n, ok := res.(uint64)
				if !ok {
					t.Errorf("stash type = %T", res)
					return
				}
				results <- n
			}
		}()
	}
	wg.Wait()
	checkQuiesced(t, s)
	close(results)
	seen := make(map[uint64]bool)
	for n := range results {
		if seen[n] {
			t.Fatalf("stash value %d returned twice: a losing shadow's result leaked", n)
		}
		seen[n] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d distinct stashes, want %d", len(seen), workers*per)
	}
	for i := uint64(1); i <= workers*per; i++ {
		if !seen[i] {
			t.Fatalf("stash %d missing", i)
		}
	}
}

func TestStashNilWhenNeverStashed(t *testing.T) {
	s := Open(Config{})
	res, err := s.UpdateTracedResult(0, nil, nil, func(tx *Tx) error {
		return tx.Set("k", []byte("v"))
	})
	if err != nil || res != nil {
		t.Fatalf("res=%v err=%v, want nil,nil", res, err)
	}
}
