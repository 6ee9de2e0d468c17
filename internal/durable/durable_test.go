package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/internal/shard"
)

// openStore opens a bare sharded store plus a manager over dir. feed may
// be nil.
func openStore(t *testing.T, dir string, shards int, opts Options, withFeed bool) (*shard.Store, *repl.Feed, *Manager) {
	t.Helper()
	st := shard.Open(shard.Config{Shards: shards})
	var feed *repl.Feed
	if withFeed {
		feed = repl.NewFeed(shards, nil)
	}
	opts.Dir = dir
	m, err := Open(opts, st, feed)
	if err != nil {
		t.Fatal(err)
	}
	return st, feed, m
}

// put commits key=val with the given transaction value via the normal
// update path (so the commit flows through the commit-log sink).
func put(t *testing.T, st *shard.Store, key, val string, value float64) {
	t.Helper()
	_, err := st.UpdateTracedResult(value, []string{key}, nil, nil, func(tx shard.Tx) error {
		return tx.Set(key, []byte(val))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, st *shard.Store, key string) string {
	t.Helper()
	v, ok := st.Get(key)
	if !ok {
		return ""
	}
	return string(v)
}

// TestRecoverRoundTrip: commits survive a close-and-reopen via the WAL
// alone (no checkpoint), including cross-shard commits, and the restarted
// store's commit log resumes at the recovered index.
func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, feed, m := openStore(t, dir, 4, Options{}, true)
	if m.RecoveredIndex() != 0 {
		t.Fatalf("cold start recovered %d, want 0", m.RecoveredIndex())
	}
	const n = 40
	for i := 0; i < n; i++ {
		put(t, st, "k"+strconv.Itoa(i), strconv.Itoa(i*i), 0)
	}
	// A cross-shard transfer exercises the cross-shard install path.
	err := st.Update([]string{"k0", "k1", "k2", "k3"}, func(tx shard.Tx) error {
		for _, k := range []string{"k0", "k1", "k2", "k3"} {
			if err := tx.Set(k, []byte("777")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	heads := feed.Heads()
	var total uint64
	for _, h := range heads {
		total += h
	}
	st.Close()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	st2, feed2, m2 := openStore(t, dir, 4, Options{}, true)
	defer m2.Close()
	if m2.RecoveredIndex() != total {
		t.Fatalf("recovered index %d, want %d", m2.RecoveredIndex(), total)
	}
	for i := 0; i < 4; i++ {
		if got := get(t, st2, "k"+strconv.Itoa(i)); got != "777" {
			t.Fatalf("k%d = %q after recovery, want 777", i, got)
		}
	}
	for i := 4; i < n; i++ {
		if got := get(t, st2, "k"+strconv.Itoa(i)); got != strconv.Itoa(i*i) {
			t.Fatalf("k%d = %q after recovery, want %d", i, got, i*i)
		}
	}
	// The replication log resumes at the recovered per-shard heads, and
	// new commits get the next indices — replicas subscribed above the
	// base stream seamlessly across the restart.
	for i, h := range feed2.Heads() {
		if h != heads[i] {
			t.Fatalf("shard %d log head after recovery = %d, want %d", i, h, heads[i])
		}
	}
	put(t, st2, "k0", "888", 0)
	sh := st2.ShardOf("k0")
	recs, _, err := feed2.Log(sh).From(heads[sh]+1, 0)
	if err != nil || len(recs) != 1 || recs[0].Index != heads[sh]+1 {
		t.Fatalf("post-recovery append: recs=%+v err=%v, want one record at %d", recs, err, heads[sh]+1)
	}
}

// TestCheckpointRecovery: state recovers from checkpoint + WAL suffix;
// pre-checkpoint WAL segments are gone from disk; recovery tolerates the
// trimmed prefix.
func TestCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _, m := openStore(t, dir, 2, Options{}, true)
	for i := 0; i < 20; i++ {
		put(t, st, "a"+strconv.Itoa(i), "1", 0)
	}
	order, err := m.CheckpointAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || m.Stats().Checkpoints != 2 {
		t.Fatalf("CheckpointAll captured %d shards, wrote %d checkpoints; want 2, 2", len(order), m.Stats().Checkpoints)
	}
	// Post-checkpoint commits land in the WAL suffix; a second pass makes
	// the first checkpoint "previous" — only history below IT is pruned,
	// so the newest-but-one checkpoint stays recoverable.
	for i := 0; i < 5; i++ {
		put(t, st, "b"+strconv.Itoa(i), "2", 0)
	}
	if _, err := m.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		put(t, st, "c"+strconv.Itoa(i), "3", 0)
	}
	st.Close()
	m.Close()

	// One segment covering (ckpt1, ckpt2], one active — the pre-ckpt1
	// segment is gone; and both checkpoint files of each shard survive.
	var segs, ckpts int
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if _, ok := parseSegmentName(d.Name()); ok {
				segs++
			}
			if _, ok := parseCkptName(d.Name()); ok {
				ckpts++
			}
		}
		return nil
	})
	if segs != 2 {
		t.Fatalf("%d WAL segments on disk after two checkpoints, want 2 (previous checkpoint's suffix kept)", segs)
	}
	if ckpts != 4 {
		t.Fatalf("%d checkpoint files on disk, want 4 (newest two per shard)", ckpts)
	}

	st2, _, m2 := openStore(t, dir, 2, Options{}, true)
	m2.Close()
	if m2.RecoveredIndex() != 30 {
		t.Fatalf("recovered index %d, want 30", m2.RecoveredIndex())
	}
	check := func(st *shard.Store) {
		t.Helper()
		for i := 0; i < 20; i++ {
			if got := get(t, st, "a"+strconv.Itoa(i)); got != "1" {
				t.Fatalf("a%d = %q, want 1 (from checkpoint)", i, got)
			}
		}
		for i := 0; i < 5; i++ {
			if got := get(t, st, "b"+strconv.Itoa(i)); got != "2" {
				t.Fatalf("b%d = %q, want 2", i, got)
			}
			if got := get(t, st, "c"+strconv.Itoa(i)); got != "3" {
				t.Fatalf("c%d = %q, want 3 (from WAL suffix)", i, got)
			}
		}
	}
	check(st2)
	st2.Close()

	// Fallback oracle: corrupt every newest checkpoint file; recovery
	// must rebuild identical state from the previous checkpoint plus the
	// preserved WAL suffix — a bit-rotted checkpoint costs replay time,
	// never data.
	for s := 0; s < 2; s++ {
		sdir := filepath.Join(dir, fmt.Sprintf("shard-%04d", s))
		entries, err := os.ReadDir(sdir)
		if err != nil {
			t.Fatal(err)
		}
		newest, path := uint64(0), ""
		for _, e := range entries {
			if idx, ok := parseCkptName(e.Name()); ok && idx >= newest {
				newest, path = idx, filepath.Join(sdir, e.Name())
			}
		}
		if path == "" {
			t.Fatalf("shard %d has no checkpoint files", s)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xFF // break the CRC
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st3, _, m3 := openStore(t, dir, 2, Options{}, true)
	defer m3.Close()
	if m3.RecoveredIndex() != 30 {
		t.Fatalf("recovered index with corrupt newest checkpoints = %d, want 30", m3.RecoveredIndex())
	}
	check(st3)
	st3.Close()
}

// TestCheckpointPriority pins the value-cognizant ordering: shards are
// captured highest pending-value first.
func TestCheckpointPriority(t *testing.T) {
	dir := t.TempDir()
	st, _, m := openStore(t, dir, 8, Options{}, false)
	defer m.Close()

	// One key per shard, committed with distinct values. Find a key for
	// each shard first.
	keyOf := make(map[int]string)
	for i := 0; len(keyOf) < 8 && i < 10000; i++ {
		k := "p" + strconv.Itoa(i)
		if _, ok := keyOf[st.ShardOf(k)]; !ok {
			keyOf[st.ShardOf(k)] = k
		}
	}
	// Shard s accrues pending value 10*s (+1 so shard 0 is nonzero).
	for s := 0; s < 8; s++ {
		put(t, st, keyOf[s], "1", float64(10*s+1))
	}
	order, err := m.CheckpointAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("captured %d shards, want 8", len(order))
	}
	for i, s := range order {
		if want := 7 - i; s != want {
			t.Fatalf("checkpoint order %v: position %d is shard %d, want %d (descending pending value)", order, i, s, want)
		}
	}
	// Pending value is consumed by the pass: nothing left to capture.
	if order, _ := m.CheckpointAll(); len(order) != 0 {
		t.Fatalf("second CheckpointAll captured %v, want nothing", order)
	}
	st.Close()
}

// TestAutoCheckpoint: CkptEvery triggers the background checkpointer.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, _, m := openStore(t, dir, 1, Options{CkptEvery: 8}, false)
	defer m.Close()
	for i := 0; i < 64; i++ {
		put(t, st, "k", strconv.Itoa(i), 0)
	}
	// Poll on the clock, not on more puts: on a single-CPU runner a
	// tight put loop can starve the background checkpointer goroutine.
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never fired despite CkptEvery=8")
		}
		put(t, st, "k2", "1", 0) // keep re-kicking
		time.Sleep(time.Millisecond)
	}
	st.Close()
}

// TestIdleShardDoesNotPinTheLog: a shard that wrote once and went quiet
// has a part in the log's oldest segment and never reaches CkptEvery
// again. Checkpoint passes must still capture it once the sealed
// segments pile up, so the busy shard's passes can trim the log.
func TestIdleShardDoesNotPinTheLog(t *testing.T) {
	idle, busy := shardKeys(t)
	st, _, m := openStore(t, t.TempDir(), 2, Options{}, false)
	defer m.Close()
	defer st.Close()
	put(t, st, idle, "1", 0)
	for i := 0; i < 100; i++ {
		put(t, st, busy, strconv.Itoa(i), 0)
		if _, err := m.CheckpointAll(); err != nil {
			t.Fatal(err)
		}
	}
	m.log.mu.Lock()
	segs := len(m.log.segs)
	m.log.mu.Unlock()
	if limit := sealedPerShard*2 + 2; segs > limit {
		t.Fatalf("%d log segments after 100 checkpoint passes, want at most %d: the idle shard pins the log", segs, limit)
	}
	if got := get(t, st, idle); got != "1" {
		t.Fatalf("%s = %q, want 1", idle, got)
	}
}

// TestStatsAndFsyncAccounting sanity-checks the counters the server
// exports.
func TestStatsAndFsyncAccounting(t *testing.T) {
	dir := t.TempDir()
	st, _, m := openStore(t, dir, 2, Options{Fsync: FsyncAlways}, false)
	for i := 0; i < 10; i++ {
		put(t, st, "k"+strconv.Itoa(i), "1", 0)
	}
	s := m.Stats()
	if s.WALAppends != 10 {
		t.Fatalf("wal_appends = %d, want 10", s.WALAppends)
	}
	if s.WALFsyncs < 10 {
		t.Fatalf("wal_fsyncs = %d, want >= 10 under FsyncAlways", s.WALFsyncs)
	}
	if s.Errors != 0 {
		t.Fatalf("errors = %d, want 0", s.Errors)
	}
	st.Close()
	m.Close()
}

// TestTrimSatelliteWiring: after a checkpoint, the in-memory replication
// log trims below min(checkpoint, min acked subscriber).
func TestTrimSatelliteWiring(t *testing.T) {
	dir := t.TempDir()
	st, feed, m := openStore(t, dir, 1, Options{}, true)
	defer m.Close()
	for i := 0; i < 10; i++ {
		put(t, st, "k", strconv.Itoa(i), 0)
	}
	sub := feed.Subscribe()
	sub.Track(0)
	sub.Ack(0, 6)
	if _, err := m.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint at 10, min acked 6: the log trims to 6.
	if base := feed.Log(0).Base(); base != 6 {
		t.Fatalf("log base after checkpoint = %d, want 6 (min acked)", base)
	}
	if feed.Trimmed() != 6 {
		t.Fatalf("trimmed = %d, want 6", feed.Trimmed())
	}
	// Acking further releases up to the checkpoint, not past it.
	sub.Ack(0, 10)
	if base := feed.Log(0).Base(); base != 10 {
		t.Fatalf("log base after full ack = %d, want 10 (checkpoint floor)", base)
	}
	st.Close()
}

// TestCorruptFallbackSegmentKeepsSuffix: damage confined to a retained
// pre-checkpoint WAL segment must not cost the acknowledged
// post-checkpoint records in later segments — the checkpoint covers the
// damaged span.
func TestCorruptFallbackSegmentKeepsSuffix(t *testing.T) {
	dir := t.TempDir()
	st, _, m := openStore(t, dir, 1, Options{}, false)
	for i := 0; i < 10; i++ {
		put(t, st, "k"+strconv.Itoa(i), "1", 0)
	}
	if _, err := m.CheckpointAll(); err != nil { // ckpt at 10; the first segment kept as fallback
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		put(t, st, "m"+strconv.Itoa(i), "2", 0)
	}
	st.Close()
	m.Close()

	// Bit-rot a record in the middle of the retained pre-checkpoint
	// segment (the first, records 1..10).
	seg := filepath.Join(dir, "wal", segmentName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, _, m2 := openStore(t, dir, 1, Options{}, false)
	defer m2.Close()
	if m2.RecoveredIndex() != 15 {
		t.Fatalf("recovered index %d, want 15 (checkpoint + post-checkpoint WAL suffix)", m2.RecoveredIndex())
	}
	for i := 0; i < 10; i++ {
		if got := get(t, st2, "k"+strconv.Itoa(i)); got != "1" {
			t.Fatalf("k%d = %q, want 1", i, got)
		}
	}
	for i := 0; i < 5; i++ {
		if got := get(t, st2, "m"+strconv.Itoa(i)); got != "2" {
			t.Fatalf("m%d = %q, want 2 (post-checkpoint record lost to pre-checkpoint damage)", i, got)
		}
	}
	// And the WAL accepts new appends contiguously after this recovery.
	put(t, st2, "n0", "3", 0)
	if err := m2.log.err(); err != nil {
		t.Fatalf("WAL broke on post-recovery append: %v", err)
	}
	st2.Close()
}

// TestShardCountPinned: a data directory refuses to open under a
// different shard count instead of silently misrouting recovered keys.
func TestShardCountPinned(t *testing.T) {
	dir := t.TempDir()
	st, _, m := openStore(t, dir, 4, Options{}, false)
	put(t, st, "k", "1", 0)
	st.Close()
	m.Close()

	st2 := shard.Open(shard.Config{Shards: 8})
	defer st2.Close()
	if _, err := Open(Options{Dir: dir}, st2, nil); err == nil ||
		!strings.Contains(err.Error(), "laid out for 4 shards") {
		t.Fatalf("Open with wrong shard count = %v, want layout mismatch error", err)
	}

	// The right count still opens.
	st3, _, m3 := openStore(t, dir, 4, Options{}, false)
	if got := get(t, st3, "k"); got != "1" {
		t.Fatalf("k = %q after matched reopen, want 1", got)
	}
	st3.Close()
	m3.Close()
}

func TestOpenRejectsMismatchedFeed(t *testing.T) {
	st := shard.Open(shard.Config{Shards: 2})
	defer st.Close()
	if _, err := Open(Options{Dir: t.TempDir()}, st, repl.NewFeed(3, nil)); err == nil {
		t.Fatal("mismatched feed accepted")
	}
	if _, err := Open(Options{}, st, nil); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestRecoveredStoreServesWhilePriorDataLarge is a smoke test that the
// recovery path scales past one segment and one batch: enough commits to
// span rotations and a checkpoint in the middle.
func TestRecoveredStoreServesWhilePriorDataLarge(t *testing.T) {
	dir := t.TempDir()
	st, _, m := openStore(t, dir, 4, Options{}, false)
	for i := 0; i < 300; i++ {
		put(t, st, fmt.Sprintf("n%d", i%50), strconv.Itoa(i), 0)
		if i == 150 {
			if _, err := m.CheckpointAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snapshot := make(map[string]string)
	for i := 0; i < 50; i++ {
		snapshot["n"+strconv.Itoa(i)] = get(t, st, "n"+strconv.Itoa(i))
	}
	st.Close()
	m.Close()

	st2, _, m2 := openStore(t, dir, 4, Options{}, false)
	defer func() { st2.Close(); m2.Close() }()
	if m2.RecoveredIndex() != 300 {
		t.Fatalf("recovered %d records, want 300", m2.RecoveredIndex())
	}
	for k, v := range snapshot {
		if got := get(t, st2, k); got != v {
			t.Fatalf("%s = %q after recovery, want %q", k, got, v)
		}
	}
}
