// Torn cross-shard commit recovery: a two-shard transfer is one log
// record, and the log is cut at points inside it — recovery must keep the
// transfer whole or drop it whole, never surface half of it. The
// companion sync-failure test pins the other half: a commit whose log
// sync failed must never return an OK verdict, on any install path.
// crash_test.go enumerates every crash point of a whole workload.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
)

// shardKeys finds one key routing to each of two shards.
func shardKeys(t *testing.T) (k0, k1 string) {
	t.Helper()
	probe := shard.Open(shard.Config{Shards: 2})
	defer probe.Close()
	for i := 0; (k0 == "" || k1 == "") && i < 10000; i++ {
		k := fmt.Sprintf("tk%d", i)
		if probe.ShardOf(k) == 0 && k0 == "" {
			k0 = k
		} else if probe.ShardOf(k) == 1 && k1 == "" {
			k1 = k
		}
	}
	if k0 == "" || k1 == "" {
		t.Fatal("could not find keys for both shards")
	}
	return k0, k1
}

// sumKeys totals the integer values of keys (missing keys count 0).
func sumKeys(t *testing.T, st *shard.Store, keys ...string) int {
	t.Helper()
	total := 0
	for _, k := range keys {
		if v, ok := st.Get(k); ok {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				t.Fatalf("non-integer value %q at %s", v, k)
			}
			total += n
		}
	}
	return total
}

func kv(k, v string) map[string][]byte { return map[string][]byte{k: []byte(v)} }

func TestTornCrossShardRecovery(t *testing.T) {
	k0, k1 := shardKeys(t)
	// Baseline: one standalone record per shard (k0=10, k1=10), then a
	// transfer of 7 (k0=3, k1=17) as one two-part record.
	base := encode(nil, frame{epoch: 1, parts: []part{{shard: 0, index: 1, writes: kv(k0, "10")}}})
	base = encode(base, frame{epoch: 2, parts: []part{{shard: 1, index: 1, writes: kv(k1, "10")}}})
	transfer := encode(nil, frame{epoch: 5, parts: []part{
		{shard: 0, index: 2, writes: kv(k0, "3")},
		{shard: 1, index: 2, writes: kv(k1, "17")},
	}})
	firstPart := recHeaderLen + 10 + 16 + 4 + len(k0) + 4 + 1

	// The crash table of the two-phase protocol this log replaced, each
	// point now a cut of the transfer's one record: not written, header
	// only, through the first participant's part, into the second part,
	// one byte short, and whole. wantApplied: the transfer survived.
	cases := []struct {
		name        string
		cut         int
		wantApplied bool
	}{
		{"crash-before-intents", 0, false},
		{"crash-after-coord-intent", recHeaderLen + 10, false},
		{"crash-after-coord-data", firstPart, false},
		{"crash-after-part-intent", firstPart + 16, false},
		{"crash-before-decision", len(transfer) - 1, false},
		{"decision-durable", len(transfer), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
				t.Fatal(err)
			}
			seg := append(append([]byte(nil), base...), transfer[:tc.cut]...)
			if err := os.WriteFile(filepath.Join(dir, "wal", segmentName(0)), seg, 0o644); err != nil {
				t.Fatal(err)
			}

			st, _, m := openStore(t, dir, 2, Options{}, true)
			want0, want1 := "10", "10"
			if tc.wantApplied {
				want0, want1 = "3", "17"
			}
			if got := get(t, st, k0); got != want0 {
				t.Errorf("%s = %q after recovery, want %q", k0, got, want0)
			}
			if got := get(t, st, k1); got != want1 {
				t.Errorf("%s = %q after recovery, want %q", k1, got, want1)
			}
			// Conservation: the transfer was balanced, so any partial
			// apply shows up as a broken sum regardless of direction.
			if s := sumKeys(t, st, k0, k1); s != 20 {
				t.Errorf("sum(%s,%s) = %d after recovery, want 20 (half-applied cross commit)", k0, k1, s)
			}

			// The store stays writable, and new epochs allocate above every
			// epoch in the recovered log.
			logged := uint64(2)
			if tc.wantApplied {
				logged = 5
			}
			if e := m.epochs.Next(); e <= logged {
				t.Errorf("epoch allocation resumed at %d, at or below the logged epoch %d", e, logged)
			}
			err := st.Update([]string{k0, k1}, func(tx shard.Tx) error {
				if err := tx.Set(k0, []byte("6")); err != nil {
					return err
				}
				return tx.Set(k1, []byte("14"))
			})
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

			// Second run of the audit: the post-recovery commit survives
			// a clean restart intact, and nothing torn resurfaced.
			st2, _, m2 := openStore(t, dir, 2, Options{}, true)
			defer m2.Close()
			defer st2.Close()
			if got := get(t, st2, k0); got != "6" {
				t.Errorf("%s = %q after second recovery, want 6", k0, got)
			}
			if got := get(t, st2, k1); got != "14" {
				t.Errorf("%s = %q after second recovery, want 14", k1, got)
			}
			if s := sumKeys(t, st2, k0, k1); s != 20 {
				t.Errorf("sum after second recovery = %d, want 20", s)
			}
		})
	}
}

// breakWAL marks the node log sticky-broken, as a device error would;
// everything above must observe the failure synchronously.
func breakWAL(m *Manager, err error) {
	m.log.mu.Lock()
	m.log.broken = err
	m.log.mu.Unlock()
}

// TestFailedSyncNoOKVerdict: when the WAL cannot make a batch durable,
// every install path must surface the failure in the commit verdict
// itself — never an OK the log cannot back — and the OnError hook must
// fire exactly once for fail-stop.
func TestFailedSyncNoOKVerdict(t *testing.T) {
	k0, k1 := shardKeys(t)
	errDisk := errors.New("injected device failure")

	newStore := func(t *testing.T, gc engine.GroupCommit) (*shard.Store, *Manager, chan error) {
		t.Helper()
		onErr := make(chan error, 4)
		st := shard.Open(shard.Config{Shards: 2, Engine: engine.Config{GroupCommit: gc}})
		m, err := Open(Options{Dir: t.TempDir(), OnError: func(e error) { onErr <- e }}, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		breakWAL(m, errDisk)
		return st, m, onErr
	}
	wantSyncErr := func(t *testing.T, path string, err error, onErr chan error) {
		t.Helper()
		var se *engine.SyncError
		if !errors.As(err, &se) {
			t.Fatalf("%s with broken WAL returned %v, want *engine.SyncError (an OK here is an acknowledged non-durable commit)", path, err)
		}
		select {
		case <-onErr:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: OnError fail-stop hook never fired", path)
		}
		select {
		case e := <-onErr:
			t.Fatalf("%s: OnError fired a second time (%v)", path, e)
		case <-time.After(10 * time.Millisecond):
		}
	}

	t.Run("per-commit", func(t *testing.T) {
		st, _, onErr := newStore(t, engine.GroupCommit{})
		_, err := st.UpdateTracedResult(1, []string{k0}, nil, nil, nil, func(tx shard.Tx) error {
			return tx.Set(k0, []byte("1"))
		})
		wantSyncErr(t, "single-shard commit", err, onErr)
	})

	t.Run("group-flush", func(t *testing.T) {
		st, _, onErr := newStore(t, engine.GroupCommit{Enabled: true, MaxBatch: 8})
		_, err := st.UpdateTracedResult(1, []string{k0}, nil, nil, nil, func(tx shard.Tx) error {
			return tx.Set(k0, []byte("1"))
		})
		wantSyncErr(t, "group-commit flush", err, onErr)
	})

	t.Run("cross-shard-combine", func(t *testing.T) {
		st, _, onErr := newStore(t, engine.GroupCommit{})
		err := st.Update([]string{k0, k1}, func(tx shard.Tx) error {
			if err := tx.Set(k0, []byte("2")); err != nil {
				return err
			}
			return tx.Set(k1, []byte("2"))
		})
		wantSyncErr(t, "cross-shard combine", err, onErr)
	})

	t.Run("replica-apply", func(t *testing.T) {
		st, _, onErr := newStore(t, engine.GroupCommit{})
		err := st.ApplyReplicated([]shard.Replicated{{Shards: []int{0}, Writes: []map[string][]byte{{k0: []byte("3")}}}})
		wantSyncErr(t, "replica standalone apply", err, onErr)
	})

	t.Run("replica-apply-cross", func(t *testing.T) {
		st, _, onErr := newStore(t, engine.GroupCommit{})
		err := st.ApplyReplicated([]shard.Replicated{{Shards: []int{0, 1}, Writes: []map[string][]byte{
			{k0: []byte("4")},
			{k1: []byte("4")},
		}}})
		wantSyncErr(t, "replica cross apply", err, onErr)
	})
}
