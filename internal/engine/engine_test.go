package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func itob(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

func btoi(b []byte) int64 {
	if len(b) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func getInt(tx *Tx, key string) (int64, error) {
	b, err := tx.Get(key)
	if err != nil {
		return 0, err
	}
	return btoi(b), nil
}

func setInt(tx *Tx, key string, v int64) error { return tx.Set(key, itob(v)) }

// checkQuiesced is the end-of-stress invariant: once every Update has
// returned, no handle is left in the in-flight set (a leaked one would be
// scanned by every later Read/Write Rule and could be forked for, forever)
// and the commit queue drains. The queue is given a moment: a losing
// shadow nobody waits for may still be on its way through it.
func checkQuiesced(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	n := len(s.active)
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("%d handles still in the in-flight set after every Update returned", n)
	}
	for deadline := time.Now().Add(5 * time.Second); s.PendingCommits() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("PendingCommits() = %d after every Update returned", s.PendingCommits())
			return
		}
	}
}

func modes(t *testing.T, f func(t *testing.T, mode Mode)) {
	for _, m := range []Mode{SCC2S, OCCBC} {
		m := m
		t.Run(m.String(), func(t *testing.T) { f(t, m) })
	}
}

func TestBasicReadWrite(t *testing.T) {
	modes(t, func(t *testing.T, mode Mode) {
		s := Open(Config{Mode: mode})
		if err := s.Update(func(tx *Tx) error { return setInt(tx, "a", 41) }); err != nil {
			t.Fatal(err)
		}
		if err := s.Update(func(tx *Tx) error {
			v, err := getInt(tx, "a")
			if err != nil {
				return err
			}
			return setInt(tx, "a", v+1)
		}); err != nil {
			t.Fatal(err)
		}
		b, ok := s.Get("a")
		if !ok || btoi(b) != 42 {
			t.Fatalf("a = %v %v, want 42", b, ok)
		}
	})
}

func TestReadYourWrites(t *testing.T) {
	s := Open(Config{})
	err := s.Update(func(tx *Tx) error {
		if err := setInt(tx, "k", 7); err != nil {
			return err
		}
		v, err := getInt(tx, "k")
		if err != nil {
			return err
		}
		if v != 7 {
			return fmt.Errorf("read-your-writes got %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissingKeyReadsZero(t *testing.T) {
	s := Open(Config{})
	if err := s.Update(func(tx *Tx) error {
		v, err := getInt(tx, "nope")
		if err != nil {
			return err
		}
		if v != 0 {
			return fmt.Errorf("missing key = %d", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("missing key present outside txn")
	}
}

func TestUserErrorPropagates(t *testing.T) {
	s := Open(Config{})
	boom := errors.New("boom")
	if err := s.Update(func(tx *Tx) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestConcurrentCounter: N goroutines increment one counter; no lost
// updates under either protocol.
func TestConcurrentCounter(t *testing.T) {
	modes(t, func(t *testing.T, mode Mode) {
		s := Open(Config{Mode: mode})
		const n = 200
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- s.Update(func(tx *Tx) error {
					v, err := getInt(tx, "counter")
					if err != nil {
						return err
					}
					return setInt(tx, "counter", v+1)
				})
			}()
		}
		wg.Wait()
		checkQuiesced(t, s)
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		b, _ := s.Get("counter")
		if got := btoi(b); got != n {
			t.Fatalf("counter = %d, want %d (lost updates)", got, n)
		}
		st := s.Stats()
		if st.Commits != n {
			t.Fatalf("commits = %d, want %d", st.Commits, n)
		}
	})
}

// TestBankTransfers: concurrent transfers conserve the total balance
// (serializability under write skew pressure would break this).
func TestBankTransfers(t *testing.T) {
	modes(t, func(t *testing.T, mode Mode) {
		s := Open(Config{Mode: mode})
		const accounts = 8
		const initial = 1000
		for i := 0; i < accounts; i++ {
			acc := fmt.Sprintf("acct%d", i)
			if err := s.Update(func(tx *Tx) error { return setInt(tx, acc, initial) }); err != nil {
				t.Fatal(err)
			}
		}
		const transfers = 300
		var wg sync.WaitGroup
		for i := 0; i < transfers; i++ {
			from := fmt.Sprintf("acct%d", i%accounts)
			to := fmt.Sprintf("acct%d", (i+3)%accounts)
			if from == to {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := s.Update(func(tx *Tx) error {
					fv, err := getInt(tx, from)
					if err != nil {
						return err
					}
					tv, err := getInt(tx, to)
					if err != nil {
						return err
					}
					if err := setInt(tx, from, fv-10); err != nil {
						return err
					}
					return setInt(tx, to, tv+10)
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		checkQuiesced(t, s)
		total := int64(0)
		for i := 0; i < accounts; i++ {
			b, _ := s.Get(fmt.Sprintf("acct%d", i))
			total += btoi(b)
		}
		if total != accounts*initial {
			t.Fatalf("total = %d, want %d (money created/destroyed)", total, accounts*initial)
		}
	})
}

// TestShadowsActuallyPromote forces a conflict with explicit coordination:
// A reads the key, B overwrites and commits, A's optimistic run dies and
// its speculative shadow (gated on B) must finish the transaction.
func TestShadowsActuallyPromote(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	if err := s.Update(func(tx *Tx) error { return setInt(tx, "hot", 1) }); err != nil {
		t.Fatal(err)
	}
	aRead := make(chan struct{})
	bDone := make(chan struct{})
	aFinished := make(chan error, 1)
	var once sync.Once
	go func() {
		aFinished <- s.Update(func(tx *Tx) error {
			v, err := getInt(tx, "hot")
			if err != nil {
				return err
			}
			once.Do(func() { close(aRead); <-bDone })
			return setInt(tx, "hot", v+10)
		})
	}()
	<-aRead
	if err := s.Update(func(tx *Tx) error {
		v, err := getInt(tx, "hot")
		if err != nil {
			return err
		}
		return setInt(tx, "hot", v+100)
	}); err != nil {
		t.Fatal(err)
	}
	close(bDone)
	if err := <-aFinished; err != nil {
		t.Fatal(err)
	}
	b, _ := s.Get("hot")
	if got := btoi(b); got != 111 {
		t.Fatalf("hot = %d, want 111 (1 + B's 100 + A's 10 on top)", got)
	}
	st := s.Stats()
	if st.Forks == 0 {
		t.Fatal("no speculative shadow forked")
	}
	if st.Promotions == 0 {
		t.Fatalf("shadow did not finish the transaction: %+v", st)
	}
	if st.Restarts != 0 {
		t.Fatalf("SCC resolved the conflict by restart, not promotion: %+v", st)
	}
}

// TestOCCModeNeverForks confirms the baseline really is shadow-free.
func TestOCCModeNeverForks(t *testing.T) {
	s := Open(Config{Mode: OCCBC})
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Update(func(tx *Tx) error {
				v, err := getInt(tx, "k")
				if err != nil {
					return err
				}
				return setInt(tx, "k", v+1)
			})
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Forks != 0 || st.Promotions != 0 {
		t.Fatalf("OCC-BC used shadows: %+v", st)
	}
}

// TestSerializableHistory: record per-transaction read versions and verify
// an equivalent serial order exists (monotone versions on a single key).
func TestSerializableHistory(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	const n = 150
	var mu sync.Mutex
	seen := make(map[int64]bool)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Shadows run the closure concurrently, so the observation
			// goes through Tx.Stash: only the committed execution's
			// value comes back, and no captured variable is shared.
			res, err := s.UpdateTracedResult(0, nil, nil, func(tx *Tx) error {
				v, err := getInt(tx, "seq")
				if err != nil {
					return err
				}
				tx.Stash(v)
				return setInt(tx, "seq", v+1)
			})
			if err != nil {
				t.Error(err)
				return
			}
			observed := res.(int64)
			mu.Lock()
			defer mu.Unlock()
			if seen[observed] {
				t.Errorf("two transactions observed the same value %d: not serializable", observed)
			}
			seen[observed] = true
		}()
	}
	wg.Wait()
	b, _ := s.Get("seq")
	if btoi(b) != n {
		t.Fatalf("seq = %d, want %d", btoi(b), n)
	}
}

func TestDisjointTransactionsDontConflict(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Update(func(tx *Tx) error { return setInt(tx, key, 1) }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Restarts != 0 {
		t.Fatalf("disjoint writers restarted %d times", st.Restarts)
	}
}

func TestValueIsolation(t *testing.T) {
	// Mutating the returned slice must not corrupt the store.
	s := Open(Config{})
	if err := s.Update(func(tx *Tx) error { return tx.Set("k", []byte{1, 2, 3}) }); err != nil {
		t.Fatal(err)
	}
	b, _ := s.Get("k")
	b[0] = 99
	b2, _ := s.Get("k")
	if b2[0] != 1 {
		t.Fatal("store value aliased caller slice")
	}
}

func TestClosedStore(t *testing.T) {
	s := Open(Config{})
	s.Close()
	if err := s.Update(func(tx *Tx) error { return nil }); err == nil {
		t.Fatal("Update on closed store succeeded")
	}
}

// TestStatsAddSumsEveryField: Add sums every counter of Stats, so a
// field added to the struct but not to Add fails here.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("Stats.%s is a %s; extend this test to it", av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("after Add, Stats.%s = %d, want %d: Add drops it", av.Type().Field(i).Name, got, want)
		}
	}
}
