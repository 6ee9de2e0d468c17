package shard

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/engine"
)

// TestCrossKeyList pins what a cross-shard transaction's flat key list
// must keep from the read and write maps it replaced: duplicates in the
// declaration, read-your-writes, undeclared keys on involved shards,
// refusal of uninvolved shards, lookup that is not quadratic in the
// declared keys, and retries that start from a clean list — plus the
// ascending parts the (parts, writes) install shape requires.
func TestCrossKeyList(t *testing.T) {
	// a and b are declared and on different shards; u is undeclared on
	// a's shard; c is on a shard neither a nor b is on.
	type keys struct{ a, b, u, c string }
	incr := func(tx Tx, k string) error {
		v, err := tx.Get(k)
		if err != nil {
			return err
		}
		return tx.Set(k, bytes8(num(v)+1))
	}
	cases := []struct {
		name string
		run  func(t *testing.T, s *Store, k keys)
	}{
		{"duplicate-declared-key", func(t *testing.T, s *Store, k keys) {
			err := s.Update([]string{k.a, k.b, k.a}, func(tx Tx) error {
				if err := incr(tx, k.a); err != nil {
					return err
				}
				return incr(tx, k.a)
			})
			if v, _ := s.Get(k.a); err != nil || num(v) != 2 {
				t.Fatalf("err = %v, a = %d, want nil, 2", err, num(v))
			}
		}},
		{"read-your-writes", func(t *testing.T, s *Store, k keys) {
			res, err := s.UpdateTracedResult(0, []string{k.a, k.b}, nil, nil, nil, func(tx Tx) error {
				if err := tx.Set(k.b, bytes8(5)); err != nil {
					return err
				}
				v, err := tx.Get(k.b)
				tx.Stash(num(v))
				return err
			})
			if err != nil || res != int64(5) {
				t.Fatalf("read after write = %v, %v, want 5", res, err)
			}
		}},
		{"undeclared-key-on-involved-shard", func(t *testing.T, s *Store, k keys) {
			err := s.Update([]string{k.a, k.b}, func(tx Tx) error {
				if err := incr(tx, k.u); err != nil {
					return err
				}
				return incr(tx, k.b)
			})
			if v, _ := s.Get(k.u); err != nil || num(v) != 1 {
				t.Fatalf("err = %v, u = %d, want nil, 1 (installed)", err, num(v))
			}
		}},
		{"key-on-uninvolved-shard", func(t *testing.T, s *Store, k keys) {
			for name, touch := range map[string]func(Tx) error{
				"Get": func(tx Tx) error { _, err := tx.Get(k.c); return err },
				"Set": func(tx Tx) error { return tx.Set(k.c, bytes8(1)) },
			} {
				if err := s.Update([]string{k.a, k.b}, touch); !errors.Is(err, ErrKeyNotDeclared) {
					t.Errorf("%s: err = %v, want ErrKeyNotDeclared", name, err)
				}
			}
		}},
		{"50000-keys", func(t *testing.T, s *Store, k keys) {
			// Each key touched once: a lookup that scans the list would
			// make this 1.25e9 comparisons, minutes rather than a blink.
			many := make([]string, 50000)
			for i := range many {
				many[i] = "many" + strconv.Itoa(i)
			}
			err := s.Update(many, func(tx Tx) error {
				for _, key := range many {
					if err := tx.Set(key, bytes8(1)); err != nil {
						return err
					}
				}
				return nil
			})
			if v, _ := s.Get(many[len(many)-1]); err != nil || num(v) != 1 {
				t.Fatalf("err = %v, last key = %d, want nil, 1", err, num(v))
			}
		}},
		{"retry-starts-clean", func(t *testing.T, s *Store, k keys) {
			execs := 0
			res, err := s.UpdateTracedResult(0, []string{k.a, k.b}, nil, nil, nil, func(tx Tx) error {
				execs++
				if _, err := tx.Get(k.a); err != nil {
					return err
				}
				if execs == 1 {
					// An undeclared write, then a commit of the read key
					// from the side: this attempt must fail validation.
					if err := tx.Set(k.u, bytes8(9)); err != nil {
						return err
					}
					if err := s.Update([]string{k.a}, func(tx2 Tx) error { return tx2.Set(k.a, bytes8(7)) }); err != nil {
						return err
					}
				}
				tx.Stash(execs)
				return tx.Set(k.b, bytes8(int64(execs)))
			})
			if err != nil || res != 2 {
				t.Fatalf("stash = %v, %v, want the second attempt's, 2", res, err)
			}
			if st := s.Stats(); st.CrossRestarts != 1 {
				t.Errorf("cross restarts = %d, want 1", st.CrossRestarts)
			}
			if v, ok := s.Get(k.u); ok {
				t.Errorf("u = %d from the failed attempt, want absent", num(v))
			}
			if v, _ := s.Get(k.b); num(v) != 2 {
				t.Errorf("b = %d, want 2", num(v))
			}
		}},
		{"replicated-parts-must-ascend", func(t *testing.T, s *Store, k keys) {
			// The replica hands its parts over in the install shape, which
			// Commit latches in order: any other order could deadlock. A
			// bad record fails the whole round before a record of it is
			// installed.
			w := []map[string][]byte{{k.a: bytes8(1)}, {k.b: bytes8(1)}}
			first := Replicated{Shards: []int{s.ShardOf(k.u)}, Writes: []map[string][]byte{{k.u: bytes8(1)}}}
			for _, parts := range [][]int{{1, 0}, {0, 0}, {0, 8}} {
				if err := s.ApplyReplicated([]Replicated{first, {Shards: parts, Writes: w}}); err == nil {
					t.Errorf("ApplyReplicated(%v) = nil, want an error", parts)
				}
			}
			if _, ok := s.Get(k.u); ok {
				t.Errorf("u installed by a round that failed its input check")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Open(Config{Shards: 8})
			defer s.Close()
			var k keys
			k.a, k.b = twoShardKeys(t, s)
			for i := 0; k.u == "" || k.c == ""; i++ {
				key := "kl" + strconv.Itoa(i)
				switch s.ShardOf(key) {
				case s.ShardOf(k.a):
					k.u = key
				case s.ShardOf(k.b):
				default:
					k.c = key
				}
			}
			tc.run(t, s, k)
		})
	}
}

// TestCrossUpdateAllocs is the allocation ratchet of the cross-shard
// path, on the benchmark probe's shape (probe.shard.cross_update_allocs):
// two reads and two increments over four shards, no commit log. The read
// and write maps of maps this path used to build cost ~40 allocations
// per transaction; the commit queue's two allocations per leading commit
// (its verdict channel among them) went once a leader read its verdict
// from its own flush.
func TestCrossUpdateAllocs(t *testing.T) {
	const want = 18 // measured; the ratchet allows 2 more
	s := Open(Config{Shards: 16, Engine: engine.Config{Mode: engine.SCC2S}})
	defer s.Close()
	ks := keysOnDistinctShards(t, s, 4)
	got := testing.AllocsPerRun(2000, func() {
		err := s.Update(ks, func(tx Tx) error {
			for _, k := range ks[:2] {
				if _, err := tx.Get(k); err != nil {
					return err
				}
			}
			for _, k := range ks[2:] {
				v, err := tx.Get(k)
				if err != nil {
					return err
				}
				if err := tx.Set(k, bytes8(num(v)+1)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if got > want+2 {
		t.Errorf("cross-shard Update: %.1f allocs, want <= %d", got, want+2)
	}
	t.Logf("cross-shard Update: %.1f allocs", got)
}
