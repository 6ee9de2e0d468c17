package flight

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRingWraparound(t *testing.T) {
	r := New(2, 8) // shard rings of 8, server ring of 32
	g := r.Shard(0)
	for i := 0; i < 50; i++ {
		g.Record("install", uint64(i+1), 0, 0)
	}
	evs := g.snapshot()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want ring size 8", len(evs))
	}
	// The newest 8 records survive, in order, with monotone sequences.
	for i, e := range evs {
		if want := uint64(43 + i); e.Txn != want {
			t.Fatalf("event %d: txn %d, want %d", i, e.Txn, want)
		}
		if i > 0 && evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("sequence not monotone: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if got := evs[len(evs)-1].Seq; got != 50 {
		t.Fatalf("newest event's seq = %d, want 50", got)
	}
}

// TestNamesAreClosed: every name of the vocabulary survives a dump, and
// a name outside it records as "?".
func TestNamesAreClosed(t *testing.T) {
	r := New(0, len(names)+1)
	for _, n := range names {
		r.Server().Record(n, 0, -1, 0)
	}
	r.Server().Record("nonesuch", 0, -1, 0)
	evs := r.Snapshot()
	for i, n := range append(names[:], "?") {
		if evs[i].Name != n {
			t.Errorf("event %d: name %q, want %q", i, evs[i].Name, n)
		}
	}
}

func TestSnapshotMergesAcrossRings(t *testing.T) {
	r := New(2, 16)
	r.Server().Record("enqueue", 1, -1, 0)
	r.Shard(1).Record(EvFsync, 0, 1, 7)
	r.Server().Record("commit", 1, -1, 7)
	all := r.Snapshot()
	if len(all) != 3 {
		t.Fatalf("snapshot has %d events, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("merged snapshot out of order at %d", i)
		}
	}
}

// TestConcurrentRecordAndDump races writers on every ring against
// repeated dumps; run under -race this is the lock-correctness proof,
// and the size assertions bound memory regardless of write volume.
func TestConcurrentRecordAndDump(t *testing.T) {
	const size = 32
	r := New(4, size)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Server().Record("admit", uint64(i), -1, 0)
				r.Shard(w).Record(EvFsync, 0, w, uint64(i))
				r.Admission().Record(EvReplShed, uint64(i), -1, 0)
				r.Repl().Record(EvReplApply, 0, w, uint64(i))
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		var buf bytes.Buffer
		if err := r.WriteTo(&buf, "test"); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if n := len(r.Snapshot()); n > 4*size+size*4+size+size {
			t.Fatalf("snapshot retained %d events, exceeds ring bounds", n)
		}
	}
	close(stop)
	wg.Wait()
}

func TestNilRecorderAndRing(t *testing.T) {
	var r *Recorder
	r.Server().Record("admit", 1, -1, 0) // must not panic
	var g *Ring
	g.Record("admit", 1, -1, 0)
	if r.Snapshot() != nil || r.Shard(3) != nil {
		t.Fatal("nil recorder must be inert")
	}
	if p, err := r.DumpDir(t.TempDir(), "x"); err != nil || p != "" {
		t.Fatalf("nil recorder DumpDir = (%q, %v), want empty no-op", p, err)
	}
}

func TestDumpParseRoundTrip(t *testing.T) {
	r := New(2, 16)
	r.SetNode("127.0.0.1:7400")
	r.Server().Record("enqueue", 42, -1, 0)
	r.Shard(1).Record(EvWalError, 0, 1, 9)
	r.Shard(0).Record(EvFsyncError, 0, 0, 9)

	var buf bytes.Buffer
	if err := r.WriteTo(&buf, "walfail"); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	d, err := ParseDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseDump: %v", err)
	}
	if d.Node != "127.0.0.1:7400" || d.Reason != "walfail" || len(d.Events) != 3 {
		t.Fatalf("round trip lost header or events: %+v", d)
	}
	if e := d.Events[1]; e.Name != EvWalError || e.Shard != 1 || e.Epoch != 9 {
		t.Fatalf("event 1 round-tripped wrong: %+v", e)
	}
}

func TestParseDumpRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"not a dump\n",
		"scc-flight/v1 node=a reason=b at=1 events=1\nbogus line\n",
		"scc-flight/v1 node=a reason=b at=1 events=1\n1 2 ring name txn=x shard=0 epoch=0\n",
	} {
		if _, err := ParseDump(strings.NewReader(in)); err == nil {
			t.Fatalf("ParseDump(%q) accepted garbage", in)
		}
	}
}

func TestMergeTimeline(t *testing.T) {
	primary := Dump{Node: "primary", Reason: "walfail", Events: []Event{
		{Seq: 1, At: 100, Ring: "server", Name: "install", Txn: 7, Epoch: 5},
		{Seq: 2, At: 110, Ring: "shard1", Name: EvWalError, Shard: 1, Epoch: 5},
		{Seq: 3, At: 150, Ring: "shard0", Name: EvFsyncError, Shard: 0, Epoch: 5},
		{Seq: 4, At: 90, Ring: "server", Name: "admit", Txn: 7},
	}}
	replica := Dump{Node: "replica", Reason: "sigquit", Events: []Event{
		{Seq: 1, At: 900, Ring: "repl", Name: EvReplApply, Shard: 0, Epoch: 5},
	}}
	var buf bytes.Buffer
	if err := MergeTimeline([]Dump{primary, replica}, &buf); err != nil {
		t.Fatalf("MergeTimeline: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "epoch 5") {
		t.Fatalf("timeline missing epoch block:\n%s", out)
	}
	for _, name := range []string{EvWalError, EvFsyncError, EvReplApply} {
		if !strings.Contains(out, name) {
			t.Fatalf("timeline missing %s:\n%s", name, out)
		}
	}
	// Causal order within the epoch: the primary's WAL error before the
	// replica's apply.
	if i, j := strings.Index(out, EvWalError), strings.Index(out, EvReplApply); i > j {
		t.Fatalf("timeline out of order:\n%s", out)
	}
	if !strings.Contains(out, "unepoched_events=1") {
		t.Fatalf("unepoched summary missing:\n%s", out)
	}
}
