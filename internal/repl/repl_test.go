package repl

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/value"
)

func wr(k, v string) map[string][]byte { return map[string][]byte{k: []byte(v)} }

func TestLogAppendFromHead(t *testing.T) {
	l := NewLog(nil)
	if l.Head() != 0 {
		t.Fatalf("fresh log head = %d, want 0", l.Head())
	}
	recs, wake, err := l.From(1, 0)
	if err != nil || len(recs) != 0 {
		t.Fatalf("fresh log From(1) = %d records, %v; want 0, nil", len(recs), err)
	}
	l.Append(wr("a", "1"))
	select {
	case <-wake:
	default:
		t.Fatal("append did not close the wake channel")
	}
	l.Append(wr("b", "2"))
	l.Append(wr("c", "3"))
	if l.Head() != 3 {
		t.Fatalf("head = %d, want 3", l.Head())
	}
	recs, _, _ = l.From(2, 0)
	if len(recs) != 2 || recs[0].Index != 2 || recs[1].Index != 3 {
		t.Fatalf("From(2) = %+v, want indices 2,3", recs)
	}
	if recs, _, _ := l.From(1, 2); len(recs) != 2 || recs[0].Index != 1 {
		t.Fatalf("From(1, max 2) = %+v, want indices 1,2", recs)
	}
	if recs, _, _ := l.From(4, 0); len(recs) != 0 {
		t.Fatalf("From(4) past head = %+v, want empty", recs)
	}
}

// TestLogTrim pins trimming at a retention window: parts below the trim
// point are gone (readers get ErrCompacted), positions above it are
// untouched, and Head/Base/Trimmed account for the drop.
func TestLogTrim(t *testing.T) {
	l := NewLog(nil)
	for i := 1; i <= 5; i++ {
		l.Append(wr("k", "v"))
	}
	l.SetRetention(2)
	if l.Base() != 3 || l.Head() != 5 || l.Trimmed() != 3 {
		t.Fatalf("after trim: base=%d head=%d trimmed=%d, want 3/5/3", l.Base(), l.Head(), l.Trimmed())
	}
	if _, _, err := l.From(2, 0); err != ErrCompacted {
		t.Fatalf("From below base = %v, want ErrCompacted", err)
	}
	recs, _, err := l.From(4, 0)
	if err != nil || len(recs) != 2 || recs[0].Index != 4 {
		t.Fatalf("From(4) after trim = %+v, %v; want positions 4,5", recs, err)
	}
	// A zero window trims to the head; widening it again trims nothing
	// and restores nothing.
	l.SetRetention(0)
	if l.Base() != 5 || l.Trimmed() != 5 {
		t.Fatalf("zero window: base=%d trimmed=%d, want 5/5 (clamped to head)", l.Base(), l.Trimmed())
	}
	l.SetRetention(4)
	if l.Base() != 5 || l.Trimmed() != 5 {
		t.Fatalf("wider window: base=%d trimmed=%d, want 5/5", l.Base(), l.Trimmed())
	}
	// Appends continue above the trimmed head.
	l.Append(wr("k", "v6"))
	if l.Head() != 6 {
		t.Fatalf("head after post-trim append = %d, want 6", l.Head())
	}
	if recs, _, _ := l.From(6, 0); len(recs) != 1 || recs[0].Index != 6 {
		t.Fatalf("From(6) = %+v, want position 6", recs)
	}
}

// TestLogCrossRecordIsAdjacentParts: a cross-shard commit reaches the log
// in one call and sits there as its parts at consecutive positions, in
// participant order, each carrying the epoch and the participant list.
func TestLogCrossRecordIsAdjacentParts(t *testing.T) {
	f := NewFeed(4, &engine.Epochs{})
	f.Sink(2).AppendCommit(engine.CommitRecord{Writes: wr("a", "1")})
	epoch := f.Sink(1).AppendCommit(engine.CommitRecord{Epoch: 9, Shards: []int{1, 3}, Parts: []map[string][]byte{wr("b", "2"), wr("c", "3")}})
	recs, _, _ := f.Log().From(1, 0)
	if epoch != 9 || len(recs) != 3 {
		t.Fatalf("epoch %d, %d parts; want 9 and 3", epoch, len(recs))
	}
	want := []struct {
		shard int
		cross bool
		key   string
	}{{2, false, "a"}, {1, true, "b"}, {3, true, "c"}}
	for i, w := range want {
		r := recs[i]
		if r.Index != uint64(i+1) || r.Shard != w.shard || r.Cross() != w.cross || r.Writes[w.key] == nil {
			t.Errorf("part %d = %+v, want shard %d cross %v writing %s", i+1, r, w.shard, w.cross, w.key)
		}
	}
	if recs[1].Epoch != 9 || recs[2].Epoch != 9 || f.Log().LastEpoch() != 9 {
		t.Errorf("cross parts carry epochs %d/%d, log watermark %d; want 9", recs[1].Epoch, recs[2].Epoch, f.Log().LastEpoch())
	}
}

// TestLogResetBase pins the recovery boot path: an empty log reset to a
// base resumes numbering above it.
func TestLogResetBase(t *testing.T) {
	l := NewLog(nil)
	l.ResetBase(42, 0)
	if l.Head() != 42 || l.Base() != 42 {
		t.Fatalf("reset log head=%d base=%d, want 42/42", l.Head(), l.Base())
	}
	l.Append(wr("k", "v"))
	recs, _, err := l.From(43, 0)
	if err != nil || len(recs) != 1 || recs[0].Index != 43 {
		t.Fatalf("first append after ResetBase(42) = %+v, %v; want index 43", recs, err)
	}
	if _, _, err := l.From(1, 0); err != ErrCompacted {
		t.Fatalf("From(1) on reset log = %v, want ErrCompacted", err)
	}
}

// TestLogRetentionAutoTrim pins the trim policy: the log trims itself
// below min(acked floor, head-retain) on every append, and never past
// what a subscriber still owes.
func TestLogRetentionAutoTrim(t *testing.T) {
	f := NewFeed(1, nil)
	l := f.Log()
	l.SetRetention(2)

	// No subscribers: retention alone bounds the log.
	for i := 0; i < 10; i++ {
		l.Append(wr("k", "v"))
	}
	if l.Base() != 8 || l.Head() != 10 {
		t.Fatalf("retention trim: base=%d head=%d, want 8/10", l.Base(), l.Head())
	}

	// A subscriber with no acks pins the floor: no further trim.
	s := f.Subscribe()
	for i := 0; i < 5; i++ {
		l.Append(wr("k", "v"))
	}
	if l.Base() != 8 {
		t.Fatalf("trim advanced past an unacked subscriber: base=%d, want 8", l.Base())
	}

	// Acks release parts up to min(acked, head-retain).
	s.Ack(12)
	if l.Base() != 12 {
		t.Fatalf("base after ack 12 = %d, want 12", l.Base())
	}
	s.Ack(15)
	if l.Base() != 13 { // head 15, retain 2
		t.Fatalf("base after full ack = %d, want 13 (retention keeps 2)", l.Base())
	}

	// Closing the subscriber releases its floor.
	l.Append(wr("k", "v")) // head 16
	s.Close()
	l.Append(wr("k", "v")) // head 17; auto-trim to 15
	if l.Base() != 15 {
		t.Fatalf("base after subscriber close = %d, want 15", l.Base())
	}
}

func TestFeedAckLag(t *testing.T) {
	f := NewFeed(2, nil)
	f.Sink(0).AppendCommit(engine.CommitRecord{Writes: wr("a", "1")})
	f.Sink(0).AppendCommit(engine.CommitRecord{Writes: wr("a", "2")})
	f.Sink(1).AppendCommit(engine.CommitRecord{Writes: wr("b", "1")})
	if f.Subscribers() != 0 {
		t.Fatalf("subscribers = %d, want 0", f.Subscribers())
	}
	s1 := f.Subscribe()
	s2 := f.Subscribe()
	if f.Subscribers() != 2 {
		t.Fatalf("subscribers = %d, want 2", f.Subscribers())
	}
	acked := func(s *Sub) uint64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return s.acked
	}
	// s1 fully acked; s2 acked only the first part: two parts behind.
	s1.Ack(3)
	s2.Ack(1)
	if a1, a2 := acked(s1), acked(s2); a1 != 3 || a2 != 1 {
		t.Fatalf("acked = %d, %d, want 3, 1", a1, a2)
	}
	// Stale acks are ignored: s2 still owes two parts.
	s2.Ack(0)
	if got := acked(s2); got != 1 {
		t.Fatalf("acked after a stale ack = %d, want 1", got)
	}
	s2.Close()
	if f.Subscribers() != 1 {
		t.Fatalf("subscribers after the laggard unsubscribed = %d, want 1", f.Subscribers())
	}
}

func TestWireRoundTrip(t *testing.T) {
	rec := Record{Index: 7, Epoch: 19, Writes: map[string][]byte{
		"k1":      []byte("42"),
		"a.b":     []byte("-3"),
		"cnt9.01": []byte("100"),
	}}
	// Deterministic encoding: sorted key order.
	if line := EncodeLog(3, rec); line != "LOG 3 7 19 a.b:-3 cnt9.01:100 k1:42" {
		t.Fatalf("EncodeLog = %q", line)
	}
	fields := []string{"3", "7", "19", "a.b:-3", "cnt9.01:100", "k1:42"}
	shard, got, err := ParseLog(fields)
	if err != nil {
		t.Fatal(err)
	}
	if shard != 3 || got.Index != 7 || got.Epoch != 19 || got.Cross() || len(got.Writes) != 3 ||
		string(got.Writes["a.b"]) != "-3" || string(got.Writes["k1"]) != "42" {
		t.Fatalf("ParseLog = shard %d, %+v", shard, got)
	}
	for _, bad := range [][]string{
		{},
		{"3"},
		{"3", "7"},
		{"3", "7", "0"},
		{"x", "7", "0", "a:1"},
		{"-1", "7", "0", "a:1"},
		{"3", "0", "0", "a:1"},
		{"3", "x", "0", "a:1"},
		{"3", "7", "x", "a:1"},
		{"3", "7", "0", "nocolon"},
		{"3", "7", "0", ":empty"},
	} {
		if _, _, err := ParseLog(bad); err == nil {
			t.Errorf("ParseLog(%v) accepted malformed input", bad)
		}
	}
}

// TestWireCrossEpochSpec pins the cross-shard epoch spec: the epoch field
// carries the full ascending participant set after '@', and malformed
// specs (short sets, unordered sets, epoch zero) are rejected rather than
// silently read as standalone records — a replica that missed the
// participant set would skip the apply barrier and tear the commit.
func TestWireCrossEpochSpec(t *testing.T) {
	rec := Record{Index: 4, Epoch: 9, Shards: []int{1, 3}, Writes: map[string][]byte{
		"a": []byte("1"),
		"b": []byte("-1"),
	}}
	line := EncodeLog(1, rec)
	if line != "LOG 1 4 9@1,3 a:1 b:-1" {
		t.Fatalf("EncodeLog cross = %q", line)
	}
	shard, got, err := ParseLog([]string{"1", "4", "9@1,3", "a:1", "b:-1"})
	if err != nil {
		t.Fatal(err)
	}
	if shard != 1 || got.Epoch != 9 || !got.Cross() ||
		len(got.Shards) != 2 || got.Shards[0] != 1 || got.Shards[1] != 3 {
		t.Fatalf("ParseLog cross = shard %d, %+v", shard, got)
	}
	for _, bad := range []string{
		"9@",      // empty participant set
		"9@1",     // a one-shard "cross" commit is not cross
		"9@3,1",   // participants must ascend
		"9@1,1",   // duplicates are not a set
		"9@1,x",   // non-numeric participant
		"9@-1,3",  // negative shard
		"0@1,3",   // epoch zero cannot be cross
		"x@1,3",   // non-numeric epoch
		"9@1,3,3", // trailing duplicate
	} {
		if _, _, err := ParseLog([]string{"1", "4", bad, "a:1"}); err == nil {
			t.Errorf("ParseLog accepted malformed epoch spec %q", bad)
		}
	}
}

// TestLagGateDeterministic pins the lag-shedding rule without clocks or
// sleeps: every time input is explicit.
func TestLagGateDeterministic(t *testing.T) {
	// Budget 10ms, 1ms per part: 1000 unapplied parts = 1s catch-up.
	g := NewLagGate(10*time.Millisecond, time.Millisecond)
	tight := value.Fn{V: 1, Deadline: 0.1, Gradient: 10}   // crosses zero at t=0.2
	loose := value.Fn{V: 1, Deadline: 3600, Gradient: 0.1} // crosses zero in an hour

	// Caught up: everything admitted, even past-deadline work.
	if err := g.Admit(tight, 0); err != nil {
		t.Fatalf("caught-up gate shed a read: %v", err)
	}

	g.ObserveHead(1000)
	if g.LagRecords() != 1000 {
		t.Fatalf("lag = %d, want 1000", g.LagRecords())
	}
	if got := g.CatchUp(); got < 0.9 || got > 1.1 {
		t.Fatalf("catch-up estimate = %gs, want ~1s", got)
	}
	// The tight read's value function crosses zero at 0.2s < 1s catch-up.
	if err := g.Admit(tight, 0); err != ErrLagging {
		t.Fatalf("lagging gate admitted a doomed read: %v", err)
	}
	if g.Shed() != 1 {
		t.Fatalf("shed = %d, want 1", g.Shed())
	}
	// The loose read still carries value after catch-up: served stale.
	if err := g.Admit(loose, 0); err != nil {
		t.Fatalf("lagging gate shed a still-valuable read: %v", err)
	}

	// Catch up: applied reaches the head, lag and shedding stop. The
	// apply timing refines the per-part estimate instead of the seed.
	g.ObserveApplied(1000, time.Second, 1000)
	if g.LagRecords() != 0 || g.Applied() != 1000 {
		t.Fatalf("after catch-up: lag %d applied %d, want 0/1000", g.LagRecords(), g.Applied())
	}
	if err := g.Admit(tight, 0); err != nil {
		t.Fatalf("caught-up gate shed: %v", err)
	}
	if g.Shed() != 1 {
		t.Fatalf("shed after catch-up = %d, want 1 still", g.Shed())
	}

	// ObserveApplied past the seen head drags seen along (a replica can
	// apply parts the gate never saw a head announcement for).
	g.ObserveApplied(1005, 0, 0)
	if g.LagRecords() != 0 {
		t.Fatalf("lag after silent apply = %d, want 0", g.LagRecords())
	}
}
