package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/engine"
)

func num(v []byte) int64 {
	if len(v) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(v))
}

func bytes8(n int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	return b[:]
}

func TestFastPathRouting(t *testing.T) {
	s := Open(Config{Shards: 8})
	defer s.Close()
	if err := s.Update([]string{"a"}, func(tx Tx) error {
		return tx.Set("a", bytes8(7))
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("a"); !ok || num(v) != 7 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	st := s.Stats()
	if st.FastPath != 1 || st.CrossCommits != 0 {
		t.Errorf("stats = %+v, want 1 fast-path, 0 cross", st)
	}
	if st.Engine.Commits != 1 {
		t.Errorf("engine commits = %d, want 1", st.Engine.Commits)
	}
}

// twoShardKeys returns two keys guaranteed to live on different shards.
func twoShardKeys(t *testing.T, s *Store) (string, string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		a := fmt.Sprintf("k%d", i)
		for j := i + 1; j < 1000; j++ {
			b := fmt.Sprintf("k%d", j)
			if s.ShardOf(a) != s.ShardOf(b) {
				return a, b
			}
		}
	}
	t.Fatal("could not find keys on distinct shards")
	return "", ""
}

func TestCrossShardCommit(t *testing.T) {
	s := Open(Config{Shards: 8})
	defer s.Close()
	a, b := twoShardKeys(t, s)
	if err := s.Update([]string{a, b}, func(tx Tx) error {
		if err := tx.Set(a, bytes8(1)); err != nil {
			return err
		}
		return tx.Set(b, bytes8(2))
	}); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(a); num(v) != 1 {
		t.Errorf("%s = %d", a, num(v))
	}
	if v, _ := s.Get(b); num(v) != 2 {
		t.Errorf("%s = %d", b, num(v))
	}
	st := s.Stats()
	if st.CrossCommits != 1 {
		t.Errorf("cross commits = %d, want 1", st.CrossCommits)
	}
	if st.TotalCommits() != 1 {
		t.Errorf("total commits = %d, want 1", st.TotalCommits())
	}
}

func TestUndeclaredKeyRejected(t *testing.T) {
	s := Open(Config{Shards: 8})
	defer s.Close()
	a, b := twoShardKeys(t, s)
	// Fast path: closure reaches for a key on another shard.
	err := s.Update([]string{a}, func(tx Tx) error {
		_, err := tx.Get(b)
		return err
	})
	if !errors.Is(err, ErrKeyNotDeclared) {
		t.Errorf("fast path: err = %v, want ErrKeyNotDeclared", err)
	}
	// Cross path: find a third key on a shard outside {shard(a), shard(b)}.
	var c string
	for i := 0; ; i++ {
		c = fmt.Sprintf("x%d", i)
		if s.ShardOf(c) != s.ShardOf(a) && s.ShardOf(c) != s.ShardOf(b) {
			break
		}
	}
	err = s.Update([]string{a, b}, func(tx Tx) error {
		return tx.Set(c, bytes8(1))
	})
	if !errors.Is(err, ErrKeyNotDeclared) {
		t.Errorf("cross path: err = %v, want ErrKeyNotDeclared", err)
	}
}

// TestCrossShardAtomicity hammers transfers between two accounts on
// different shards while a View repeatedly checks that the total is
// conserved — a torn (non-atomic) cross-shard commit would surface as an
// intermediate sum.
func TestCrossShardAtomicity(t *testing.T) {
	s := Open(Config{Shards: 8})
	defer s.Close()
	a, b := twoShardKeys(t, s)
	keys := []string{a, b}
	const initial = 1000
	for _, k := range keys {
		k := k
		if err := s.Update([]string{k}, func(tx Tx) error {
			return tx.Set(k, bytes8(initial))
		}); err != nil {
			t.Fatal(err)
		}
	}

	const workers, transfers = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	checkerDone := make(chan error, 1)
	go func() {
		checks := 0
		for {
			select {
			case <-stop:
				checkerDone <- nil
				return
			default:
			}
			err := s.View(keys, func(tx Tx) error {
				va, _ := tx.Get(a)
				vb, _ := tx.Get(b)
				if got := num(va) + num(vb); got != 2*initial {
					return fmt.Errorf("conservation violated after %d checks: %d", checks, got)
				}
				return nil
			})
			if err != nil {
				checkerDone <- err
				return
			}
			checks++
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from, to := a, b
			if w%2 == 1 {
				from, to = b, a
			}
			for i := 0; i < transfers; i++ {
				err := s.Update(keys, func(tx Tx) error {
					vf, err := tx.Get(from)
					if err != nil {
						return err
					}
					vt, err := tx.Get(to)
					if err != nil {
						return err
					}
					if err := tx.Set(from, bytes8(num(vf)-1)); err != nil {
						return err
					}
					return tx.Set(to, bytes8(num(vt)+1))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers/2; w++ {
		// Waves of single-shard traffic on the same keys, so the cross
		// path must also be atomic against native engine commits.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				err := s.Update([]string{a}, func(tx Tx) error {
					v, err := tx.Get(a)
					if err != nil {
						return err
					}
					return tx.Set(a, bytes8(num(v))) // identity write
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-checkerDone; err != nil {
		t.Fatal(err)
	}
	var total int64
	if err := s.View(keys, func(tx Tx) error {
		for _, k := range keys {
			v, _ := tx.Get(k)
			total += num(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != 2*initial {
		t.Fatalf("final sum = %d, want %d", total, 2*initial)
	}
	st := s.Stats()
	if st.CrossCommits < workers*transfers {
		t.Errorf("cross commits = %d, want >= %d", st.CrossCommits, workers*transfers)
	}
}

// TestCrossShardErrorOnStaleCutRetries pins the serializability of
// closure errors: a business-logic error decided off an inconsistent
// cross-shard read cut (a concurrent commit landed between the two shard
// reads) must trigger a retry, not surface to the caller. Only errors
// whose read sets still validate are real.
func TestCrossShardErrorOnStaleCutRetries(t *testing.T) {
	s := Open(Config{Shards: 8})
	defer s.Close()
	a, b := twoShardKeys(t, s)
	for _, k := range []string{a, b} {
		k := k
		if err := s.Update([]string{k}, func(tx Tx) error {
			return tx.Set(k, bytes8(1))
		}); err != nil {
			t.Fatal(err)
		}
	}
	errBiz := errors.New("insufficient funds")
	attempts := 0
	err := s.Update([]string{a, b}, func(tx Tx) error {
		attempts++
		va, err := tx.Get(a)
		if err != nil {
			return err
		}
		if attempts == 1 {
			// A concurrent transaction commits to a between this
			// transaction's reads of shard(a) and shard(b).
			if err := s.Update([]string{a}, func(tx2 Tx) error {
				return tx2.Set(a, bytes8(2))
			}); err != nil {
				return err
			}
		}
		if _, err := tx.Get(b); err != nil {
			return err
		}
		if num(va) == 1 {
			return errBiz // decision made off the now-stale value of a
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stale-cut error surfaced instead of retrying: %v", err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}

	// An error decided off a cut that still validates is real and must
	// surface unchanged.
	err = s.Update([]string{a, b}, func(tx Tx) error {
		if _, err := tx.Get(a); err != nil {
			return err
		}
		return errBiz
	})
	if !errors.Is(err, errBiz) {
		t.Errorf("valid-cut error = %v, want errBiz", err)
	}
}

func TestViewReadOnly(t *testing.T) {
	s := Open(Config{Shards: 4})
	defer s.Close()
	err := s.View([]string{"a"}, func(tx Tx) error {
		return tx.Set("a", bytes8(1))
	})
	if !errors.Is(err, ErrReadOnly) {
		t.Errorf("err = %v, want ErrReadOnly", err)
	}
}

func TestSingleShardDegeneratesToEngine(t *testing.T) {
	// With one shard every transaction is fast-path and the engine's SCC
	// machinery is fully in play.
	s := Open(Config{Shards: 1, Engine: engine.Config{Mode: engine.SCC2S}})
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = s.Update([]string{"hot"}, func(tx Tx) error {
					v, err := tx.Get("hot")
					if err != nil {
						return err
					}
					return tx.Set("hot", bytes8(num(v)+1))
				})
			}
		}()
	}
	wg.Wait()
	if v, _ := s.Get("hot"); num(v) != 800 {
		t.Fatalf("hot = %d, want 800 (lost updates)", num(v))
	}
	st := s.Stats()
	if st.FastPath != 800 || st.CrossCommits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestShardOfMatchesStdlibFNV pins the inlined hash to hash/fnv's
// FNV-1a: changing the routing function would silently re-partition
// every existing deployment's keyspace.
func TestShardOfMatchesStdlibFNV(t *testing.T) {
	s := Open(Config{Shards: 16})
	defer s.Close()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("some/key-%d", i)
		h := fnv.New32a()
		h.Write([]byte(k))
		if want := int(h.Sum32() % 16); s.ShardOf(k) != want {
			t.Fatalf("ShardOf(%q) = %d, want %d", k, s.ShardOf(k), want)
		}
	}
}

func TestStashAcrossPaths(t *testing.T) {
	s := Open(Config{Shards: 8})
	defer s.Close()
	// Fast path.
	res, err := s.UpdateTracedResult(0, []string{"a"}, nil, nil, nil, func(tx Tx) error {
		if err := tx.Set("a", bytes8(1)); err != nil {
			return err
		}
		tx.Stash("fast")
		return nil
	})
	if err != nil || res != "fast" {
		t.Fatalf("fast path stash = %v, %v", res, err)
	}
	// Cross path.
	a, b := twoShardKeys(t, s)
	res, err = s.UpdateTracedResult(0, []string{a, b}, nil, nil, nil, func(tx Tx) error {
		if err := tx.Set(a, bytes8(1)); err != nil {
			return err
		}
		if err := tx.Set(b, bytes8(2)); err != nil {
			return err
		}
		tx.Stash("cross")
		return nil
	})
	if err != nil || res != "cross" {
		t.Fatalf("cross path stash = %v, %v", res, err)
	}
}

func TestShardOfStable(t *testing.T) {
	s := Open(Config{Shards: 16})
	defer s.Close()
	spread := make(map[int]int)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if s.ShardOf(k) != s.ShardOf(k) {
			t.Fatal("ShardOf not deterministic")
		}
		spread[s.ShardOf(k)]++
	}
	if len(spread) != 16 {
		t.Errorf("1000 keys hit only %d of 16 shards", len(spread))
	}
}
