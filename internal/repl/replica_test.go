package repl

import (
	"bufio"
	"io"
	"strings"
	"testing"

	"repro/internal/shard"
)

// streamReplica is a replica with no connection: the apply loop's stream
// state over a fresh store, its acks written nowhere.
func streamReplica(t *testing.T, shards int) *Replica {
	t.Helper()
	st := shard.Open(shard.Config{Shards: shards})
	t.Cleanup(st.Close)
	return streamOver(st)
}

// streamOver is streamReplica over a store the caller built.
func streamOver(st *shard.Store) *Replica {
	return &Replica{store: st, w: bufio.NewWriter(io.Discard), next: 1}
}

// ApplyRound reads lines into a replica with no connection over st, as
// one round, and applies it. Tests that need a durable store call it
// from package repl_test, since internal/durable imports this package.
func ApplyRound(st *shard.Store, lines ...string) error {
	r := streamOver(st)
	if err := r.read(lines...); err != nil {
		return err
	}
	return r.apply()
}

// read consumes stream lines in order, stopping at the first error.
func (r *Replica) read(lines ...string) error {
	for _, l := range lines {
		if err := r.consume(l); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamErrors: a stream that breaks the one-order rules — a part
// that is not the next participant of the cross-shard record it sits in
// (or that starts a record mid-way), a record cut short by another, a
// skipped position — is a stream error, and nothing of the round is
// applied.
func TestStreamErrors(t *testing.T) {
	for _, c := range []struct {
		name  string
		lines []string
		want  string
	}{
		{"foreign-part", []string{"LOG 0 1 5@0,2 a:1", "LOG 1 2 5@0,2 b:1"}, "foreign part at position 2"},
		{"record-starts-mid-way", []string{"LOG 2 1 5@0,2 c:1"}, "foreign part at position 1"},
		{"short-record-then-standalone", []string{"LOG 0 1 5@0,2 a:1", "LOG 1 2 6 b:1"}, "cut short after 1 of its 2 parts"},
		{"short-record-then-record", []string{"LOG 0 1 5@0,2,3 a:1", "LOG 2 2 5@0,2,3 c:1", "LOG 0 3 6@0,1 a:2"}, "cut short after 2 of its 3 parts"},
		{"position-gap", []string{"LOG 0 1 3 a:1", "LOG 0 3 4 a:2"}, "position gap: got 3, want 2"},
		{"unknown-shard", []string{"LOG 7 1 3 a:1"}, "unknown shard 7"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := streamReplica(t, 4)
			err := r.read(c.lines...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("stream %q: err %v, want %q", c.lines, err, c.want)
			}
			for s := 0; s < 4; s++ {
				if _, ok := r.store.Shard(s).Get("a"); ok {
					t.Errorf("shard %d holds a part of a broken stream", s)
				}
			}
		})
	}
}

// TestStreamAppliesWholeRecords: a round applies every whole record it
// read and keeps a cross-shard record it has not read whole for the next
// round, so the position it acks is always a record boundary.
func TestStreamAppliesWholeRecords(t *testing.T) {
	r := streamReplica(t, 4)
	has := func(s int, k, v string) bool {
		got, ok := r.store.Shard(s).Get(k)
		return ok && string(got) == v
	}
	if err := r.read("LOG 1 1 3 x:1", "LOG 0 2 5@0,2 a:1"); err != nil {
		t.Fatal(err)
	}
	if err := r.apply(); err != nil {
		t.Fatal(err)
	}
	if pos, _ := r.Position(); pos != 1 || !has(1, "x", "1") || has(0, "a", "1") {
		t.Fatalf("after a round ending mid-record: position %d, x applied %v, a applied %v; want 1, true, false",
			pos, has(1, "x", "1"), has(0, "a", "1"))
	}
	if err := r.read("LOG 2 3 5@0,2 c:1", "OK", "LOG 3 4 4 d:1"); err != nil {
		t.Fatal(err)
	}
	if err := r.apply(); err != nil {
		t.Fatal(err)
	}
	if pos, epoch := r.Position(); pos != 4 || epoch != 5 || !has(0, "a", "1") || !has(2, "c", "1") || !has(3, "d", "1") {
		t.Fatalf("after the record completes: position %d, epoch %d; want 4 and 5 with every part applied", pos, epoch)
	}
}
