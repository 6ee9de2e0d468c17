package shard

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/engine"
)

// crossKeys returns two keys guaranteed to live on different shards.
func crossKeys(t *testing.T, s *Store) (string, string) {
	t.Helper()
	a := "gate-a"
	for i := 0; i < 10000; i++ {
		b := fmt.Sprintf("gate-b%d", i)
		if s.ShardOf(b) != s.ShardOf(a) {
			return a, b
		}
	}
	t.Fatal("no cross-shard key pair found")
	return "", ""
}

// TestRetryGateInvoked forces a cross-shard validation failure and checks
// the gate sees the retry (1-based) and can abandon the transaction with
// its own error.
func TestRetryGateInvoked(t *testing.T) {
	s := Open(Config{Shards: 8, Engine: engine.Config{Mode: engine.SCC2S}})
	defer s.Close()
	a, b := crossKeys(t, s)
	keys := []string{a, b}
	if err := s.Update(keys, func(tx Tx) error {
		if err := tx.Set(a, []byte("0")); err != nil {
			return err
		}
		return tx.Set(b, []byte("0"))
	}); err != nil {
		t.Fatal(err)
	}

	shed := errors.New("shed: value crossed zero")
	var gateCalls []int
	execs := 0
	_, err := s.UpdateTracedResult(1, keys, func(attempt int) error {
		gateCalls = append(gateCalls, attempt)
		return shed
	}, nil, nil, func(tx Tx) error {
		execs++
		if _, err := tx.Get(a); err != nil {
			return err
		}
		if execs == 1 {
			// Invalidate our own read from the side: a single-shard
			// commit on the read key bumps its version, so validation
			// of this cross-shard attempt must fail and trigger the gate.
			if err := s.Update([]string{a}, func(tx2 Tx) error {
				return tx2.Set(a, []byte("99"))
			}); err != nil {
				return err
			}
		}
		if _, err := tx.Get(b); err != nil {
			return err
		}
		return tx.Set(b, []byte("1"))
	})
	if !errors.Is(err, shed) {
		t.Fatalf("err = %v, want the gate's error", err)
	}
	if len(gateCalls) != 1 || gateCalls[0] != 1 {
		t.Fatalf("gate calls = %v, want [1]", gateCalls)
	}
	if st := s.Stats(); st.CrossRestarts == 0 {
		t.Fatalf("no cross restart recorded: %+v", st)
	}
}

// TestRetryGateGrantsRetry: a gate that admits the retry lets the
// transaction commit on its second execution.
func TestRetryGateGrantsRetry(t *testing.T) {
	s := Open(Config{Shards: 8, Engine: engine.Config{Mode: engine.SCC2S}})
	defer s.Close()
	a, b := crossKeys(t, s)
	keys := []string{a, b}

	grants := 0
	execs := 0
	res, err := s.UpdateTracedResult(1, keys, func(int) error {
		grants++
		return nil
	}, nil, nil, func(tx Tx) error {
		execs++
		if _, err := tx.Get(a); err != nil {
			return err
		}
		if execs == 1 {
			if err := s.Update([]string{a}, func(tx2 Tx) error {
				return tx2.Set(a, []byte("7"))
			}); err != nil {
				return err
			}
		}
		v, err := tx.Get(b)
		if err != nil {
			return err
		}
		if err := tx.Set(b, append(v, 'x')); err != nil {
			return err
		}
		tx.Stash(execs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if grants != 1 {
		t.Fatalf("gate grants = %d, want 1", grants)
	}
	if res != 2 {
		t.Fatalf("committed execution = %v, want 2 (the retry)", res)
	}
}

// TestNilGateKeepsBound: without a gate the loop still honours
// engine.MaxAttempts, surfacing the bound as an error under perpetual
// conflict.
func TestNilGateKeepsBound(t *testing.T) {
	s := Open(Config{Shards: 8, Engine: engine.Config{Mode: engine.SCC2S}})
	defer s.Close()
	a, b := crossKeys(t, s)
	keys := []string{a, b}

	execs := 0
	_, err := s.UpdateTracedResult(0, keys, nil, nil, nil, func(tx Tx) error {
		execs++
		if _, err := tx.Get(a); err != nil {
			return err
		}
		// Every execution invalidates itself: the bound must trip.
		if err := s.Update([]string{a}, func(tx2 Tx) error {
			return tx2.Set(a, []byte(strconv.Itoa(execs)))
		}); err != nil {
			return err
		}
		return tx.Set(b, []byte("1"))
	})
	if err == nil || execs != engine.MaxAttempts {
		t.Fatalf("err = %v after %d executions, want attempt-bound error after %d", err, execs, engine.MaxAttempts)
	}
}
