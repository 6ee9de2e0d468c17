package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/flight"
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
	_, err := st.UpdateTracedResult(value, []string{key}, nil, nil, nil, func(tx shard.Tx) error {
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
	total := feed.Log().Head()
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
	// The replication log resumes at the recovered position, and new
	// commits get the next positions — replicas subscribed above the base
	// stream seamlessly across the restart.
	if h := feed2.Log().Head(); h != total {
		t.Fatalf("log head after recovery = %d, want %d", h, total)
	}
	put(t, st2, "k0", "888", 0)
	recs, _, err := feed2.Log().From(total+1, 0)
	if err != nil || len(recs) != 1 || recs[0].Index != total+1 || recs[0].Shard != st2.ShardOf("k0") {
		t.Fatalf("post-recovery append: recs=%+v err=%v, want one part of shard %d at %d", recs, err, st2.ShardOf("k0"), total+1)
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
// exports. Each sequential put is its own group-commit batch, so each
// pays its own fsync.
func TestStatsAndFsyncAccounting(t *testing.T) {
	dir := t.TempDir()
	st, _, m := openStore(t, dir, 2, Options{Fsync: FsyncGroup}, false)
	for i := 0; i < 10; i++ {
		put(t, st, "k"+strconv.Itoa(i), "1", 0)
	}
	s := m.Stats()
	if s.WALAppends != 10 {
		t.Fatalf("wal_appends = %d, want 10", s.WALAppends)
	}
	if s.WALFsyncs < 10 {
		t.Fatalf("wal_fsyncs = %d, want >= 10 under FsyncGroup", s.WALFsyncs)
	}
	if s.Errors != 0 {
		t.Fatalf("errors = %d, want 0", s.Errors)
	}
	st.Close()
	m.Close()
}

// TestFsyncEventOnlyWhenFsyncRan: the flight recorder's wal_fsync marks
// an fsync of the node log. A sync that has nothing to do — every sync
// under FsyncOff, or one whose records an earlier fsync already covered —
// records none.
func TestFsyncEventOnlyWhenFsyncRan(t *testing.T) {
	fsyncEvents := func(fl *flight.Recorder) int64 {
		var n int64
		for _, e := range fl.Snapshot() {
			if e.Name == flight.EvFsync {
				n++
			}
		}
		return n
	}

	t.Run("off", func(t *testing.T) {
		fl := flight.New(2, 0)
		st, _, m := openStore(t, t.TempDir(), 2, Options{Fsync: FsyncOff, Flight: fl}, false)
		defer m.Close()
		defer st.Close()
		for i := range 20 {
			put(t, st, "k"+strconv.Itoa(i), "1", 0)
		}
		if n := fsyncEvents(fl); n != 0 {
			t.Fatalf("%d %s events after 20 commits under FsyncOff, want 0", n, flight.EvFsync)
		}
	})

	t.Run("group", func(t *testing.T) {
		fl := flight.New(2, 0)
		st, _, m := openStore(t, t.TempDir(), 2, Options{Fsync: FsyncGroup, Flight: fl}, false)
		defer m.Close()
		defer st.Close()
		before := m.Stats().WALFsyncs
		for i := range 20 {
			put(t, st, "k"+strconv.Itoa(i), "1", 0)
		}
		fsyncs := m.Stats().WALFsyncs - before
		n := fsyncEvents(fl)
		if n == 0 || n > fsyncs {
			t.Fatalf("%d %s events for %d fsyncs, want between 1 and %d", n, flight.EvFsync, fsyncs, fsyncs)
		}
		if err := m.shards[0].Sync(); err != nil {
			t.Fatal(err)
		}
		if got := fsyncEvents(fl); got != n {
			t.Fatalf("a Sync with nothing new to sync recorded %d %s events", got-n, flight.EvFsync)
		}
	})
}

// TestRotateSyncsSegmentEntry: a checkpoint pass starts a new WAL
// segment, and a file's fsync does not make its directory entry durable.
// Under FsyncGroup the log directory must be synced before the fsync that
// acknowledges the next commit, whose record lives in the new segment;
// under FsyncOff nothing is synced, the directory included.
func TestRotateSyncsSegmentEntry(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncGroup, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			st, _, m := openStore(t, t.TempDir(), 2, Options{Fsync: policy}, false)
			defer m.Close()
			defer st.Close()
			put(t, st, "a", "1", 0) // so the pass has a segment to seal
			var mu sync.Mutex
			var seen []hookPoint
			m.log.hook = func(p hookPoint) {
				mu.Lock()
				seen = append(seen, p)
				mu.Unlock()
			}
			if _, err := m.CheckpointAll(); err != nil {
				t.Fatal(err)
			}
			put(t, st, "a", "2", 0)
			mu.Lock()
			defer mu.Unlock()
			dirSync, lastFsync := -1, -1
			for i, p := range seen {
				switch p {
				case hookDirSync:
					if dirSync < 0 {
						dirSync = i
					}
				case hookFsync:
					lastFsync = i
				}
			}
			if policy == FsyncOff {
				if dirSync >= 0 || lastFsync >= 0 {
					t.Fatalf("FsyncOff synced: hook points %v", seen)
				}
				return
			}
			if dirSync < 0 || lastFsync < dirSync {
				t.Fatalf("hook points %v: want a directory sync before the fsync that acks the next commit", seen)
			}
		})
	}
}

// TestTrimSatelliteWiring: on a durable node the in-memory replication
// log trims by its subscribers' acks and its retention window alone — a
// checkpoint sets no floor, since recovery reads the disk and joiners
// SNAP live state.
func TestTrimSatelliteWiring(t *testing.T) {
	dir := t.TempDir()
	st, feed, m := openStore(t, dir, 1, Options{}, true)
	defer m.Close()
	feed.Log().SetRetention(0)
	sub := feed.Subscribe()
	for i := 0; i < 10; i++ {
		put(t, st, "k", strconv.Itoa(i), 0)
	}
	sub.Ack(6)
	if _, err := m.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint at 10, acked 6: the log trims to the ack, no further.
	if base := feed.Log().Base(); base != 6 || feed.Log().Trimmed() != 6 {
		t.Fatalf("log base after checkpoint = %d (trimmed %d), want 6 (min acked)", base, feed.Log().Trimmed())
	}
	// Acking past the checkpoint trims past it.
	put(t, st, "k", "10", 0)
	sub.Ack(11)
	if base := feed.Log().Base(); base != 11 {
		t.Fatalf("log base after full ack = %d, want 11", base)
	}
	st.Close()
}

// TestShipsInLogOrder: a durable node publishes its commit order to the
// feed in the WAL's write order — each record's parts adjacent, a
// cross-shard record once and whole — at positions that continue the
// recovered numbering, and only records a sync covered.
func TestShipsInLogOrder(t *testing.T) {
	dir := t.TempDir()
	st, feed, m := openStore(t, dir, 4, Options{}, true)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = "s" + strconv.Itoa(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ks := []string{keys[(w*5+i)%16], keys[(w*7+3*i+1)%16]}
				if i%3 == 0 {
					ks = ks[:1]
				}
				if err := st.Update(ks, func(tx shard.Tx) error {
					for _, k := range ks {
						if err := tx.Set(k, []byte(strconv.Itoa(i))); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	st.Close()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	shipped, _, err := feed.Log().From(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, frames := replay(t, filepath.Join(dir, "wal"), FsyncGroup, nil)
	pos := 0
	for _, f := range frames {
		for j, p := range f.parts {
			if pos >= len(shipped) {
				t.Fatalf("feed ends at position %d, the WAL goes on (epoch %d)", pos, f.epoch)
			}
			r := shipped[pos]
			pos++
			cross := len(f.parts) > 1
			if r.Index != uint64(pos) || r.Shard != p.shard || r.Epoch != f.epoch || r.Cross() != cross ||
				(cross && r.Shards[j] != p.shard) || fmt.Sprint(r.Writes) != fmt.Sprint(p.writes) {
				t.Fatalf("feed position %d = %+v, WAL has part %d of epoch %d on shard %d writing %v",
					pos, r, j, f.epoch, p.shard, p.writes)
			}
		}
	}
	if pos != len(shipped) || uint64(pos) != feed.Log().Head() {
		t.Fatalf("WAL holds %d parts, feed %d (head %d)", pos, len(shipped), feed.Log().Head())
	}
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

// TestRecordOver64MiB: a record larger than 64 MiB, and the small record
// logged after it, survive a restart from the log, and again from a
// checkpoint holding the large value once the log below it is trimmed. A
// frame is bounded only by the bytes that hold it.
func TestRecordOver64MiB(t *testing.T) {
	dir := t.TempDir()
	big := strings.Repeat("x", 64<<20+1<<10)
	reopen := func(want uint64) (*shard.Store, *Manager) {
		t.Helper()
		st, _, m := openStore(t, dir, 1, Options{}, false)
		if m.RecoveredIndex() != want {
			t.Fatalf("recovered index %d, want %d", m.RecoveredIndex(), want)
		}
		if got := get(t, st, "big"); got != big {
			t.Fatalf("big holds %d bytes after recovery, want %d", len(got), len(big))
		}
		if got := get(t, st, "small"); got != "1" {
			t.Fatalf("small = %q after recovery, want 1", got)
		}
		return st, m
	}
	closeAll := func(st *shard.Store, m *Manager) {
		t.Helper()
		st.Close()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}

	st, _, m := openStore(t, dir, 1, Options{}, false)
	put(t, st, "big", big, 0)
	put(t, st, "small", "1", 0)
	closeAll(st, m)

	st, m = reopen(2)
	// The second checkpoint pass trims the segment holding both records,
	// so the next recovery reads them from a checkpoint only.
	for i, k := range []string{"c", "d"} {
		put(t, st, k, "2", 0)
		if order, err := m.CheckpointAll(); err != nil || len(order) != 1 {
			t.Fatalf("checkpoint pass %d captured %v, %v; want shard 0", i, order, err)
		}
	}
	closeAll(st, m)
	closeAll(reopen(4))
}

// TestEncodeBufferShrinks: after a multi-MiB record a shard keeps no
// encode buffer above maxKeptBuf, and after a small one it keeps the
// small record's buffer.
func TestEncodeBufferShrinks(t *testing.T) {
	st, _, m := openStore(t, t.TempDir(), 1, Options{}, false)
	defer m.Close()
	defer st.Close()
	put(t, st, "big", strings.Repeat("x", 4<<20), 0)
	if c := cap(m.shards[0].buf); c > maxKeptBuf {
		t.Fatalf("encode buffer cap %d after a 4 MiB record, want at most %d", c, maxKeptBuf)
	}
	put(t, st, "small", "1", 0)
	if c := cap(m.shards[0].buf); c == 0 || c > maxKeptBuf {
		t.Fatalf("encode buffer cap %d after a small record, want in (0, %d]", c, maxKeptBuf)
	}
}

// TestLayout2Refused: a data directory of layout 2, whose checkpoints
// had a format of their own, is refused at Open as an older build's.
func TestLayout2Refused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "META"), []byte("layout=2 shards=2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := shard.Open(shard.Config{Shards: 2})
	defer st.Close()
	if _, err := Open(Options{Dir: dir}, st, nil); err == nil || !strings.Contains(err.Error(), "older build") ||
		!strings.Contains(err.Error(), "fresh -data-dir") {
		t.Fatalf("Open over a layout-2 directory = %v, want the older-build error naming a fresh -data-dir", err)
	}
}
