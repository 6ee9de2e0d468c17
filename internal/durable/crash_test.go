// The crash-point enumerator. The node log is one append-only sequence
// of CRC-framed records and a checkpoint is one atomically renamed file,
// so every state a crash can leave the data directory in is a prefix of
// the log bytes together with the checkpoint files and segments that
// existed at that moment. TestCrashPoints runs a seeded workload of
// single- and cross-shard transfers against a real Manager, recording the
// log's synced and written offsets at every checkpoint rename and trim
// (nodeLog.hook) and each OK verdict's synced-through offset. Then, for
// every record boundary and one torn byte inside every record, in every
// rename/trim state that prefix is reachable in, it materializes the
// directory, recovers it, and checks the invariants (check). Finally it
// runs a short second workload on recovered directories and crashes those
// at every point too: recovery must be idempotent.
package durable

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/shard"
)

const crashShards = 4

// dirState is the data directory at one moment: META and the checkpoint
// files by relative path, the live segments, and the log's offsets.
type dirState struct {
	files           map[string][]byte
	segs            map[int64]bool
	synced, written int64
	trim            bool // taken after a checkpoint pass's prune and trim
}

// history is one run as the enumerator sees it.
type history struct {
	log    []byte           // every byte the log ever held, at its offset
	starts map[int64]bool   // every segment start seen
	states []dirState       // before the run, then one per rename and trim
	end    int64            // written offset at the end of the run
	frames []frame          // the records of log
	okAt   map[uint64]int64 // commit epoch -> synced offset just after its OK verdict
}

func newHistory() *history {
	return &history{starts: make(map[int64]bool), okAt: make(map[uint64]int64)}
}

// capture records the data directory's state as the next one.
func (h *history) capture(t *testing.T, dir string, l *nodeLog, trim bool) {
	t.Helper()
	h.states = append(h.states, h.snapshot(t, dir, l, trim))
}

// snapshot reads the data directory's state, merging the segments' bytes
// into the log mirror (segments only grow until deleted, and each is
// read after it is sealed and before it is trimmed), and moves the run's
// end to the log's written offset.
func (h *history) snapshot(t *testing.T, dir string, l *nodeLog, trim bool) dirState {
	t.Helper()
	s := dirState{files: make(map[string][]byte), segs: make(map[int64]bool), trim: trim}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if start, ok := parseSegmentName(d.Name()); ok {
			s.segs[start], h.starts[start] = true, true
			if need := start + int64(len(data)); need > int64(len(h.log)) {
				h.log = append(h.log, make([]byte, need-int64(len(h.log)))...)
			}
			copy(h.log[start:], data)
		} else if rel == "META" || strings.HasPrefix(rel, "shard-") {
			s.files[rel] = data
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	s.synced, s.written, h.end = l.synced, l.written, l.written
	l.mu.Unlock()
	return s
}

// parse decodes the log mirror, through the run's end, into records.
func (h *history) parse(t *testing.T) {
	t.Helper()
	h.frames = nil
	for off := 0; off < int(h.end); {
		f, n, ok := nextFrame(h.log[off:])
		if !ok {
			t.Fatalf("log mirror unreadable at offset %d of %d", off, len(h.log))
		}
		f.off, f.end = int64(off), int64(off+n)
		h.frames = append(h.frames, f)
		off += n
	}
}

// crashPoint is a crash in state states[state] with the log written
// through offset at.
type crashPoint struct {
	at    int64
	state int
	torn  bool
}

// points lists every record boundary and one torn byte inside every
// record that a crash in each state can leave: from the offset synced
// when the state began to the offset written when the next began.
func (h *history) points() []crashPoint {
	var out []crashPoint
	for j, s := range h.states {
		hi := h.end
		if j+1 < len(h.states) {
			hi = h.states[j+1].written
		}
		for _, f := range h.frames {
			if f.off >= s.synced && f.off <= hi {
				out = append(out, crashPoint{at: f.off, state: j})
			}
			if mid := (f.off + f.end) / 2; mid >= s.synced && mid <= hi {
				out = append(out, crashPoint{at: mid, state: j, torn: true})
			}
		}
		if h.end >= s.synced && h.end <= hi {
			out = append(out, crashPoint{at: h.end, state: j})
		}
	}
	return out
}

// materialize writes into dir what a crash at p leaves on disk: the
// state's META and checkpoint files, and every segment that exists then
// (live in the state, or created after it) cut at the crash offset.
func (h *history) materialize(t *testing.T, dir string, p crashPoint) {
	t.Helper()
	s := h.states[p.state]
	for rel, data := range s.files {
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	var starts []int64
	newest := int64(-1)
	for start := range h.starts {
		starts = append(starts, start)
		if s.segs[start] {
			newest = max(newest, start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for i, start := range starts {
		if start >= p.at || !(s.segs[start] || start > newest) {
			continue
		}
		end := p.at
		if i+1 < len(starts) {
			end = min(end, starts[i+1])
		}
		if err := os.WriteFile(filepath.Join(dir, "wal", segmentName(start)), h.log[start:end], 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// check holds a recovered store to the crash invariants, stated once. A
// part is on its shard when its index is at or below the shard's
// recovered head, and the heads are honest: each shard holds exactly the
// replay of its parts through its head. Then:
//
//  1. every epoch's parts are on all of its shards or on none;
//  2. every commit whose OK came before the crash point is present;
//  3. the balances sum to zero over all keys.
func (h *history) check(t *testing.T, m *Manager, st *shard.Store, p crashPoint) {
	t.Helper()
	heads := make([]uint64, len(m.shards))
	replayed := make([]map[string]string, len(m.shards))
	for s, ms := range m.shards {
		heads[s], replayed[s] = ms.next-1, make(map[string]string)
	}
	byEpoch := make(map[uint64]frame, len(h.frames))
	for _, f := range h.frames {
		byEpoch[f.epoch] = f
		for _, pt := range f.parts {
			if pt.index <= heads[pt.shard] {
				for k, v := range pt.writes {
					replayed[pt.shard][k] = string(v)
				}
			}
		}
	}
	sum := 0
	for s := range m.shards {
		got := make(map[string]string)
		eng := st.Shard(s)
		eng.LockCommit()
		eng.RangeLocked(func(k string, v []byte) bool {
			got[k] = string(v)
			n, _ := strconv.Atoi(string(v))
			sum += n
			return true
		})
		eng.UnlockCommit()
		if len(got) != len(replayed[s]) {
			t.Fatalf("%+v: shard %d holds %d keys, its log through head %d replays to %d", p, s, len(got), heads[s], len(replayed[s]))
		}
		for k, v := range replayed[s] {
			if got[k] != v {
				t.Fatalf("%+v: shard %d %s = %q, its log through head %d replays to %q", p, s, k, got[k], heads[s], v)
			}
		}
	}
	for _, f := range h.frames {
		on := 0
		for _, pt := range f.parts {
			if pt.index <= heads[pt.shard] {
				on++
			}
		}
		if on != 0 && on != len(f.parts) {
			t.Fatalf("%+v: epoch %d is on %d of its %d shards (torn commit)", p, f.epoch, on, len(f.parts))
		}
	}
	for epoch, at := range h.okAt {
		if f := byEpoch[epoch]; at <= p.at && f.parts[0].index > heads[f.parts[0].shard] {
			t.Fatalf("%+v: epoch %d was acknowledged at synced offset %d and is lost", p, epoch, at)
		}
	}
	if sum != 0 {
		t.Fatalf("%+v: balances sum to %d, want 0", p, sum)
	}
}

// transfers runs n seeded transfers between two or three random accounts
// of 16, forcing a checkpoint pass every ckptEvery transactions —
// alternately of every shard and of one — and records each OK verdict's
// synced-through offset.
func (h *history) transfers(t *testing.T, rng *rand.Rand, m *Manager, st *shard.Store, n, ckptEvery int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		perm := rng.Perm(16)[:2+rng.Intn(2)]
		keys, deltas := make([]string, len(perm)), make([]int, len(perm))
		for j, a := range perm {
			keys[j] = "acct" + strconv.Itoa(a)
			if j > 0 {
				deltas[j] = 1 + rng.Intn(9)
				deltas[0] -= deltas[j]
			}
		}
		tr := obs.NewTrace(time.Now())
		_, err := st.UpdateTracedResult(1, keys, nil, tr, nil, func(tx shard.Tx) error {
			for j, k := range keys {
				v, err := tx.Get(k)
				if err != nil {
					return err
				}
				n, _ := strconv.Atoi(string(v))
				if err := tx.Set(k, []byte(strconv.Itoa(n+deltas[j]))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		m.log.mu.Lock()
		h.okAt[tr.Epoch()] = m.log.synced
		m.log.mu.Unlock()
		if i%ckptEvery != 0 {
			continue
		}
		pass := m.shards
		if (i/ckptEvery)%2 == 0 {
			pass = []*managedShard{pass[rng.Intn(len(pass))]}
		}
		if _, err := m.checkpoint(pass); err != nil {
			t.Fatal(err)
		}
	}
}

// inflight installs a transfer between accounts of two shards the way a
// cross-shard flush does — under both latches, one epoch — but leaves its
// commit boundary, the log sync, unrun: what a checkpoint that starts
// mid-flush finds.
func inflight(t *testing.T, rng *rand.Rand, st *shard.Store) {
	t.Helper()
	a, b := "acct"+strconv.Itoa(rng.Intn(16)), ""
	for i := 0; b == "" || st.ShardOf(b) == st.ShardOf(a); i++ {
		b = "acct" + strconv.Itoa(i)
	}
	stores := make([]*engine.Store, st.NumShards())
	for i := range stores {
		stores[i] = st.Shard(i)
	}
	parts := []int{st.ShardOf(a), st.ShardOf(b)}
	sort.Ints(parts)
	for _, i := range parts {
		stores[i].LockCommit()
	}
	value := func(k string) int {
		v, _ := stores[st.ShardOf(k)].GetLocked(k)
		n, _ := strconv.Atoi(string(v))
		return n
	}
	d := 1 + rng.Intn(9)
	writes := []map[string][]byte{
		{a: []byte(strconv.Itoa(value(a) - d))},
		{b: []byte(strconv.Itoa(value(b) + d))},
	}
	if parts[0] != st.ShardOf(a) {
		writes[0], writes[1] = writes[1], writes[0]
	}
	engine.InstallCrossLocked(stores, st.Epochs().Next(), parts, writes, 0)
	for _, i := range parts {
		stores[i].UnlockCommit()
	}
}

// run opens a Manager over dir (recovering whatever it holds), records
// that as the first state, runs n transfers with a checkpoint pass every
// ckptEvery, and closes it again. Each pass's first checkpoint rename is
// followed by an in-flight cross-shard transfer, so the pass's next
// shards capture a record the log has not synced.
func (h *history) run(t *testing.T, dir string, seed int64, n, ckptEvery int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	st, _, m := openStore(t, dir, crashShards, Options{}, false)
	h.capture(t, dir, m.log, false)
	landed := false
	m.log.hook = func(p hookPoint) {
		switch p {
		case hookRename:
			h.capture(t, dir, m.log, false)
			if !landed {
				landed = true
				inflight(t, rng, st)
			}
		case hookTrim:
			h.capture(t, dir, m.log, true)
			landed = false
		}
	}
	h.transfers(t, rng, m, st, n, ckptEvery)
	h.snapshot(t, dir, m.log, false)
	st.Close()
	m.Close()
	h.parse(t)
	ends := make(map[uint64]int64, len(h.frames))
	for _, f := range h.frames {
		ends[f.epoch] = f.end
	}
	for epoch, at := range h.okAt {
		if end, ok := ends[epoch]; !ok || at < end {
			t.Fatalf("epoch %d acknowledged with the log synced to %d, short of its record (logged %v, ending at %d)", epoch, at, ok, end)
		}
	}
}

// crashAll recovers every crash point of h and checks it. It returns how
// many there were, and leaves in place the recovered directories of the
// points keep selects.
func (h *history) crashAll(t *testing.T, keep func(crashPoint) bool) (n int, kept map[string]crashPoint) {
	t.Helper()
	base, kept := t.TempDir(), make(map[string]crashPoint)
	for i, p := range h.points() {
		dir := filepath.Join(base, strconv.Itoa(i))
		h.materialize(t, dir, p)
		st, _, m := openStore(t, dir, crashShards, Options{}, false)
		h.check(t, m, st, p)
		st.Close()
		m.Close()
		if keep != nil && keep(p) {
			kept[dir] = p
		} else {
			os.RemoveAll(dir)
		}
		n++
	}
	return n, kept
}

func TestCrashPoints(t *testing.T) {
	start := time.Now()
	h := newHistory()
	h.run(t, t.TempDir(), 1, 300, 40)
	firstTrim := 0
	for j, s := range h.states {
		if s.trim {
			firstTrim = j
			break
		}
	}
	if firstTrim == 0 || len(h.starts) < 3 {
		t.Fatalf("the run sealed %d segments and never trimmed; the enumeration needs both", len(h.starts))
	}

	// Crash again the recovered directories of two torn tails — the first
	// after the first trim, and the run's last — at every point of a short
	// second run on each.
	var lastTorn crashPoint
	for _, p := range h.points() {
		if p.torn {
			lastTorn = p
		}
	}
	pickedTrim := false
	n1, kept := h.crashAll(t, func(p crashPoint) bool {
		if p.torn && p.state == firstTrim && !pickedTrim {
			pickedTrim = true
			return true
		}
		return p == lastTorn
	})
	if len(kept) != 2 {
		t.Fatalf("kept %d recovered directories for the second crashes, want 2", len(kept))
	}
	n2 := 0
	for dir, p := range kept {
		h2 := newHistory()
		// The second run's log continues the first run's, cut at the crash.
		h2.log = append([]byte(nil), h.log[:p.at]...)
		h2.run(t, dir, int64(p.state), 40, 20)
		// What the first recovery kept must survive every second crash.
		for _, f := range h.frames {
			if f.end <= h2.states[0].written {
				h2.okAt[f.epoch] = f.end
			}
		}
		n, _ := h2.crashAll(t, nil)
		n2 += n
	}
	t.Logf("%d records in %d states: %d crash points; two second runs: %d crash points; %v",
		len(h.frames), len(h.states), n1, n2, time.Since(start).Round(time.Millisecond))
}

// TestAppendsDoNotQueueBehindFsync: with FsyncGroup, a stalled fsync must
// not hold up another shard's commit from installing and appending; only
// that commit's verdict waits, for the sync that covers it.
func TestAppendsDoNotQueueBehindFsync(t *testing.T) {
	k0, k1 := shardKeys(t)
	st, _, m := openStore(t, t.TempDir(), 2, Options{Fsync: FsyncGroup}, false)
	defer m.Close()
	defer st.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var stalled atomic.Bool
	m.log.hook = func(p hookPoint) {
		if p == hookFsync && stalled.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	commit := func(k string) chan error {
		done := make(chan error, 1)
		go func() { done <- st.Update([]string{k}, func(tx shard.Tx) error { return tx.Set(k, []byte("1")) }) }()
		return done
	}
	first := commit(k0)
	<-entered
	second := commit(k1)
	deadline := time.Now().Add(5 * time.Second)
	for m.log.appends.Load() < 2 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("an append queued behind a stalled fsync")
		}
		time.Sleep(time.Millisecond)
	}
	if got := get(t, st, k1); got != "1" {
		t.Errorf("%s = %q while the fsync stalls, want the installed 1", k1, got)
	}
	select {
	case err := <-second:
		t.Errorf("verdict %v delivered before a sync covered its record", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for _, done := range []chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n := m.log.fsyncs.Load(); n < 2 {
		t.Errorf("%d fsyncs, want a second one covering the record written during the first", n)
	}
}

// TestOldLayoutRefused: a data directory in the per-shard WAL layout is
// refused at Open, with an error that names the fix, and left untouched.
func TestOldLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "shard-0000", "wal-00000000000000000001.log")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string]string{filepath.Join(dir, "META"): "shards=2\n", old: "records"} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := shard.Open(shard.Config{Shards: 2})
	defer st.Close()
	if _, err := Open(Options{Dir: dir}, st, nil); err == nil || !strings.Contains(err.Error(), "fresh -data-dir") {
		t.Fatalf("Open over the per-shard WAL layout = %v, want an error naming a fresh -data-dir", err)
	}
	if b, err := os.ReadFile(old); err != nil || string(b) != "records" {
		t.Fatalf("old layout touched: %q, %v", b, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal")); !os.IsNotExist(err) {
		t.Fatalf("Open created the node log beside the old layout (%v)", err)
	}
}
