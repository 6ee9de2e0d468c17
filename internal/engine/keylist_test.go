package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestUpdateAllocs is the allocation ratchet of the single-store path,
// with group commit on as the server runs it: a one-key increment and a
// two-key transfer through Store.Update, no commit log. The four maps an
// attempt used to keep (reads, read ordinals, writes and the handle's copy
// of the writes) cost 6 of the transfer's 21 allocations; the handle's and
// the attempt's channels, the separate Tx and the commit leader's verdict
// channel cost 5 more of the remaining 15.
func TestUpdateAllocs(t *testing.T) {
	s := Open(Config{Mode: SCC2S, GroupCommit: GroupCommit{Enabled: true}})
	defer s.Close()
	for _, c := range []struct {
		name string
		want int // measured; the ratchet allows 2 more
		keys []string
	}{
		{"increment", 8, []string{"a"}},
		{"transfer", 10, []string{"a", "b"}},
	} {
		got := testing.AllocsPerRun(2000, func() {
			err := s.Update(func(tx *Tx) error {
				for i, k := range c.keys {
					v, err := getInt(tx, k)
					if err != nil {
						return err
					}
					if err := setInt(tx, k, v+int64(1-2*i)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(c.want+2) {
			t.Errorf("%s: %.1f allocs, want <= %d", c.name, got, c.want+2)
		}
		t.Logf("%s: %.1f allocs (ceiling %d)", c.name, got, c.want+2)
	}
}

// heldTx is a transaction driven from its own goroutine whose closure
// calls hold at a point the test picks: the first execution to get there
// blocks until release; shadows that get there later wait for it, then go
// on, and re-executions pass straight through. A broken rule must fail the
// test, not hang it, so a transaction that ends before holding is not
// waited for.
type heldTx struct {
	reached, release chan struct{}
	err              chan error
	indexed          bool // the holding attempt's key list had its index
}

func startHeld(s *Store, fn func(tx *Tx, hold func(*Tx)) error) *heldTx {
	h := &heldTx{reached: make(chan struct{}), release: make(chan struct{}), err: make(chan error, 1)}
	var once sync.Once
	hold := func(tx *Tx) {
		once.Do(func() {
			s.mu.Lock()
			h.indexed = tx.a.index != nil
			s.mu.Unlock()
			close(h.reached)
			<-h.release
		})
	}
	go func() { h.err <- s.Update(func(tx *Tx) error { return fn(tx, hold) }) }()
	select {
	case <-h.reached:
	case err := <-h.err: // it never held: finish reports how it ended
		h.err <- err
	}
	return h
}

func (h *heldTx) finish(t *testing.T) {
	t.Helper()
	close(h.release)
	if err := <-h.err; err != nil {
		t.Fatal(err)
	}
}

func writeAll(tx *Tx, keys []string, v int64) error {
	for _, k := range keys {
		if err := setInt(tx, k, v); err != nil {
			return err
		}
	}
	return nil
}

func readAll(tx *Tx, keys []string) (map[string]int64, error) {
	vals := make(map[string]int64, len(keys))
	for _, k := range keys {
		v, err := getInt(tx, k)
		if err != nil {
			return nil, err
		}
		vals[k] = v
	}
	return vals, nil
}

// readRuleSchedule: T buffers writes of 100 to every key and holds; U
// reads k (the Read Rule forks U's shadow on T), holds, and increments k.
// T's commit aborts U's optimistic run and U's shadow finishes it.
func readRuleSchedule(t *testing.T, s *Store, keys []string, k string) *heldTx {
	T := startHeld(s, func(tx *Tx, hold func(*Tx)) error {
		if err := writeAll(tx, keys, 100); err != nil {
			return err
		}
		hold(tx)
		return nil
	})
	U := startHeld(s, func(tx *Tx, hold func(*Tx)) error {
		v, err := getInt(tx, k)
		if err != nil {
			return err
		}
		hold(tx)
		return setInt(tx, k, v+1)
	})
	T.finish(t)
	U.finish(t)
	return T
}

func update(t *testing.T, s *Store, fn func(tx *Tx) error) {
	t.Helper()
	if err := s.Update(fn); err != nil {
		t.Fatal(err)
	}
}

// TestConflictRules pins each rule that asks an attempt's key list "has
// this transaction read or written k?" to its counters and final values,
// on schedules fixed by held closures. T, the transaction whose key list
// the rules search, touches n keys; the conflict is on key c. At 64 keys
// with c = 40 every lookup goes through the list's index.
func TestConflictRules(t *testing.T) {
	type want struct{ forks, aborts, restarts, promotions, commits, k, rest int64 }
	cases := []struct {
		name string
		mode Mode
		// run drives the schedule and returns T.
		run  func(t *testing.T, s *Store, keys []string, k string) *heldTx
		want want
	}{
		// Aborts count the promoted shadow too: its driver detaches it.
		{"read rule forks", SCC2S, readRuleSchedule, want{1, 2, 0, 1, 2, 101, 100}},
		{"occ-bc never forks", OCCBC, readRuleSchedule, want{0, 1, 1, 0, 2, 101, 100}},
		{"write rule forks", SCC2S, func(t *testing.T, s *Store, keys []string, k string) *heldTx {
			// T reads every key and holds; U's blind write of k forks T's
			// shadow at T's read of k and its commit aborts T.
			T := startHeld(s, func(tx *Tx, hold func(*Tx)) error {
				vals, err := readAll(tx, keys)
				if err != nil {
					return err
				}
				hold(tx)
				return setInt(tx, k, vals[k]+1)
			})
			update(t, s, func(tx *Tx) error { return setInt(tx, k, 50) })
			T.finish(t)
			return T
		}, want{1, 2, 0, 1, 2, 51, 0}},
		{"read-your-writes is not a read", SCC2S, func(t *testing.T, s *Store, keys []string, k string) *heldTx {
			T := startHeld(s, func(tx *Tx, hold func(*Tx)) error {
				if err := writeAll(tx, keys, 7); err != nil {
					return err
				}
				if v, err := getInt(tx, k); err != nil || v != 7 {
					return fmt.Errorf("read-your-writes: %d, %v", v, err)
				}
				hold(tx)
				return nil
			})
			update(t, s, func(tx *Tx) error { return setInt(tx, k, 50) })
			T.finish(t)
			return T
		}, want{0, 0, 0, 0, 2, 7, 7}},
		{"blind write aborts every reader", SCC2S, func(t *testing.T, s *Store, keys []string, k string) *heldTx {
			// Two readers of k hold; T's blind writes fork both and hold.
			// U's blind write of k aborts both readers and not T, which
			// has no read to lose; the readers' shadows finish after T.
			var readers [2]*heldTx
			for i := range readers {
				readers[i] = startHeld(s, func(tx *Tx, hold func(*Tx)) error {
					if _, err := getInt(tx, k); err != nil {
						return err
					}
					hold(tx)
					return nil
				})
			}
			T := startHeld(s, func(tx *Tx, hold func(*Tx)) error {
				if err := writeAll(tx, keys, 9); err != nil {
					return err
				}
				hold(tx)
				return nil
			})
			update(t, s, func(tx *Tx) error { return setInt(tx, k, 5) })
			T.finish(t)
			for _, r := range readers {
				r.finish(t)
			}
			return T
		}, want{2, 4, 0, 2, 4, 9, 9}},
		{"disjoint keys never fork", SCC2S, func(t *testing.T, s *Store, keys []string, k string) *heldTx {
			T := startHeld(s, func(tx *Tx, hold func(*Tx)) error {
				vals, err := readAll(tx, keys)
				if err != nil {
					return err
				}
				for _, key := range keys {
					if err := setInt(tx, key, vals[key]+1); err != nil {
						return err
					}
				}
				hold(tx)
				return nil
			})
			update(t, s, func(tx *Tx) error {
				v, err := getInt(tx, "x")
				if err != nil {
					return err
				}
				return setInt(tx, "x", v+1)
			})
			T.finish(t)
			if b, _ := s.Get("x"); btoi(b) != 1 {
				t.Errorf("x = %d, want 1", btoi(b))
			}
			return T
		}, want{0, 0, 0, 0, 2, 1, 1}},
	}
	for _, n := range []int{2, 64} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%02d", i)
		}
		c := min(40, n-1)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%d keys", tc.name, n), func(t *testing.T) {
				s := Open(Config{Mode: tc.mode, GroupCommit: GroupCommit{Enabled: true}})
				defer s.Close()
				T := tc.run(t, s, keys, keys[c])
				checkQuiesced(t, s)
				if T.indexed != (n > indexAt) {
					t.Errorf("T's key list indexed = %v with %d keys", T.indexed, n)
				}
				st := s.Stats()
				got := want{st.Forks, st.Aborts, st.Restarts, st.Promotions, st.Commits, 0, tc.want.rest}
				for i, key := range keys {
					b, _ := s.Get(key)
					switch v := btoi(b); {
					case i == c:
						got.k = v
					case v != tc.want.rest:
						got.rest = v
					}
				}
				if got != tc.want {
					t.Errorf("{forks aborts restarts promotions commits k rest} = %v, want %v", got, tc.want)
				}
			})
		}
	}
}
