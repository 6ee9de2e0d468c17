package repl_test

import (
	"strconv"
	"testing"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/repl"
	"repro/internal/shard"
)

// stallLog is a commit log whose Sync reports on syncing, then blocks
// until stall is closed.
type stallLog struct{ syncing, stall chan struct{} }

func (l *stallLog) AppendCommit(engine.CommitRecord) uint64 { return 0 }
func (l *stallLog) Durable() bool                           { return true }
func (l *stallLog) Sync() error {
	select {
	case l.syncing <- struct{}{}:
	default:
	}
	<-l.stall
	return nil
}

// keyOn returns a key the store routes to shard.
func keyOn(st *shard.Store, shard int) string {
	for i := 0; ; i++ {
		if k := "k" + strconv.Itoa(i); st.ShardOf(k) == shard {
			return k
		}
	}
}

// TestRoundIsAPrefixAtEveryInstant: the primary's order a=1 (shard 0),
// b=1 (shard 1), a=2 (shard 0) applied as one round while the log sync
// is blocked. A View taken during the sync reads one of the primary's
// states, never a=2 with b unset: no reader sees part of a round.
func TestRoundIsAPrefixAtEveryInstant(t *testing.T) {
	st := shard.Open(shard.Config{Shards: 2})
	defer st.Close()
	a, b := keyOn(st, 0), keyOn(st, 1)
	log := &stallLog{syncing: make(chan struct{}, 1), stall: make(chan struct{})}
	for i := 0; i < 2; i++ {
		st.Shard(i).SetCommitLog(log) // the shards of a node share one log
	}
	done := make(chan error, 1)
	go func() { done <- repl.ApplyRound(st, "LOG 0 1 3 "+a+":1", "LOG 1 2 4 "+b+":1", "LOG 0 3 5 "+a+":2") }()
	<-log.syncing
	var got [2]string
	err := st.View([]string{a, b}, func(tx shard.Tx) error {
		for i, k := range []string{a, b} {
			v, err := tx.Get(k)
			if err != nil {
				return err
			}
			if v == nil {
				got[i] = "∅"
			} else {
				got[i] = string(v)
			}
		}
		return nil
	})
	close(log.stall)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	switch got {
	case [2]string{"∅", "∅"}, [2]string{"1", "∅"}, [2]string{"1", "1"}, [2]string{"2", "1"}:
	default:
		t.Fatalf("View during the round's sync read (a, b) = %v, a state the primary never had", got)
	}
}

// TestRoundPaysOneFsync: a durable replica applies a round of standalone
// records over three shards with one WAL fsync, not one per shard.
func TestRoundPaysOneFsync(t *testing.T) {
	st := shard.Open(shard.Config{Shards: 4})
	defer st.Close()
	m, err := durable.Open(durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncGroup}, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	keys := []string{keyOn(st, 0), keyOn(st, 1), keyOn(st, 2)}
	before := m.Stats().WALFsyncs
	if err := repl.ApplyRound(st, "LOG 0 1 3 "+keys[0]+":1", "LOG 1 2 4 "+keys[1]+":1",
		"LOG 2 3 5 "+keys[2]+":1", "LOG 0 4 6 "+keys[0]+":2"); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().WALFsyncs - before; got != 1 {
		t.Errorf("round over 3 shards paid %d WAL fsyncs, want 1", got)
	}
	for i, want := range []string{"2", "1", "1"} {
		if v, _ := st.Get(keys[i]); string(v) != want {
			t.Errorf("%s = %q after the round, want %q", keys[i], v, want)
		}
	}
}
