// Torn cross-shard commit recovery: the WAL is cut at every point of
// the two-round commit protocol (after each subset of per-shard intent
// and data appends, before and after the decision record), and boot
// reconciliation must recover all-or-nothing — a balanced transfer
// never surfaces half-applied, on any shard, under any cut. The
// companion sync-failure test pins the other half of the bugfix: a
// commit whose WAL sync failed must never return an OK verdict, on any
// install path.
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

// crossPiece identifies one durable artifact of a 2-shard cross commit,
// in the order the protocol appends them: coordinator intent, then
// coordinator data (both under the latches), participant intent,
// participant data, and finally — after round 1 — the decision.
type crossPiece int

const (
	pieceIntent0 crossPiece = iota
	pieceData0
	pieceIntent1
	pieceData1
	pieceDecision
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

func TestTornCrossShardRecovery(t *testing.T) {
	k0, k1 := shardKeys(t)
	const crossEpoch = 5
	crossShards := []int{0, 1}

	// The crash table: each case keeps a protocol-order prefix of the
	// cross commit's durable artifacts (a kill -9 cannot reorder
	// appends within one WAL). wantApplied: the transfer survived.
	cases := []struct {
		name        string
		pieces      []crossPiece
		wantApplied bool
		wantRecon   int64 // epochs boot reconciliation must discard
	}{
		{"crash-before-intents", nil, false, 0},
		{"crash-after-coord-intent", []crossPiece{pieceIntent0}, false, 0},
		{"crash-after-coord-data", []crossPiece{pieceIntent0, pieceData0}, false, 1},
		{"crash-after-part-intent", []crossPiece{pieceIntent0, pieceData0, pieceIntent1}, false, 1},
		{"crash-before-decision", []crossPiece{pieceIntent0, pieceData0, pieceIntent1, pieceData1}, false, 1},
		{"decision-durable", []crossPiece{pieceIntent0, pieceData0, pieceIntent1, pieceData1, pieceDecision}, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			has := make(map[crossPiece]bool, len(tc.pieces))
			for _, p := range tc.pieces {
				has[p] = true
			}
			// Baseline: one standalone record per shard (k0=10, k1=10),
			// then the surviving pieces of a transfer of 7 (k0=3, k1=17).
			buf0 := encodeRecord(nil, rec(1, k0, "10"))
			buf1 := encodeRecord(nil, rec(1, k1, "10"))
			if has[pieceIntent0] {
				buf0 = encodeIntent(buf0, crossEpoch, crossShards)
			}
			if has[pieceData0] {
				r := rec(2, k0, "3")
				r.Epoch, r.Shards = crossEpoch, crossShards
				buf0 = encodeRecord(buf0, r)
			}
			if has[pieceIntent1] {
				buf1 = encodeIntent(buf1, crossEpoch, crossShards)
			}
			if has[pieceData1] {
				r := rec(2, k1, "17")
				r.Epoch, r.Shards = crossEpoch, crossShards
				buf1 = encodeRecord(buf1, r)
			}
			if has[pieceDecision] {
				buf0 = encodeDecision(buf0, crossEpoch)
			}
			for s, buf := range map[int][]byte{0: buf0, 1: buf1} {
				sdir := filepath.Join(dir, fmt.Sprintf("shard-%04d", s))
				if err := os.MkdirAll(sdir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(sdir, segmentName(1)), buf, 0o644); err != nil {
					t.Fatal(err)
				}
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
			if got := m.Stats().Reconciled; got != tc.wantRecon {
				t.Errorf("reconciled = %d, want %d", got, tc.wantRecon)
			}

			// The store stays writable, and a fresh cross-shard commit
			// allocates above the torn epoch — its decision must not
			// adopt the discarded epoch's dead data records.
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

// breakWAL marks one shard's WAL sticky-broken, as a device error
// would; everything above must observe the failure synchronously.
func breakWAL(m *Manager, shard int, err error) {
	w := m.shards[shard].wal
	w.mu.Lock()
	w.broken = err
	w.mu.Unlock()
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
	}

	t.Run("per-commit", func(t *testing.T) {
		st, m, onErr := newStore(t, engine.GroupCommit{})
		breakWAL(m, st.ShardOf(k0), errDisk)
		_, err := st.UpdateTracedResult(1, []string{k0}, nil, nil, func(tx shard.Tx) error {
			return tx.Set(k0, []byte("1"))
		})
		wantSyncErr(t, "single-shard commit", err, onErr)
	})

	t.Run("group-flush", func(t *testing.T) {
		st, m, onErr := newStore(t, engine.GroupCommit{Enabled: true, MaxBatch: 8})
		breakWAL(m, st.ShardOf(k0), errDisk)
		_, err := st.UpdateTracedResult(1, []string{k0}, nil, nil, func(tx shard.Tx) error {
			return tx.Set(k0, []byte("1"))
		})
		wantSyncErr(t, "group-commit flush", err, onErr)
	})

	t.Run("cross-shard-combine", func(t *testing.T) {
		st, m, onErr := newStore(t, engine.GroupCommit{})
		// Break the non-coordinator participant: round 1 must catch it.
		breakWAL(m, 1, errDisk)
		err := st.Update([]string{k0, k1}, func(tx shard.Tx) error {
			if err := tx.Set(k0, []byte("2")); err != nil {
				return err
			}
			return tx.Set(k1, []byte("2"))
		})
		wantSyncErr(t, "cross-shard combine", err, onErr)
	})

	t.Run("replica-apply", func(t *testing.T) {
		st, m, onErr := newStore(t, engine.GroupCommit{})
		breakWAL(m, 0, errDisk)
		err := st.ApplyReplicated(0, []map[string][]byte{{k0: []byte("3")}})
		wantSyncErr(t, "replica standalone apply", err, onErr)
	})

	t.Run("replica-apply-cross", func(t *testing.T) {
		st, m, onErr := newStore(t, engine.GroupCommit{})
		breakWAL(m, 1, errDisk)
		err := st.ApplyReplicatedCross(map[int]map[string][]byte{
			0: {k0: []byte("4")},
			1: {k1: []byte("4")},
		})
		wantSyncErr(t, "replica cross apply", err, onErr)
	})
}
