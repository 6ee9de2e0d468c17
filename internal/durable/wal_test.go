package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// rec is a standalone record of shard 0: its part idx, at epoch idx.
func rec(idx uint64, kvs ...string) frame {
	p := part{index: idx, writes: make(map[string][]byte)}
	for i := 0; i+1 < len(kvs); i += 2 {
		p.writes[kvs[i]] = []byte(kvs[i+1])
	}
	return frame{epoch: idx, parts: []part{p}}
}

// encode appends f's framed encoding to buf.
func encode(buf []byte, f frame) []byte {
	start := len(buf)
	buf = beginRecord(buf, f.epoch, len(f.parts))
	for _, p := range f.parts {
		buf = appendPart(buf, p.shard, p.index, p.writes)
	}
	buf, err := endRecord(buf, start)
	if err != nil {
		panic(err)
	}
	return buf
}

func appendAll(t *testing.T, l *nodeLog, frames ...frame) {
	t.Helper()
	for _, f := range frames {
		if _, err := l.write(encode(nil, f), f.parts, shipment{}); err != nil {
			t.Fatal(err)
		}
	}
}

// replay opens the log in dir the way recovery does, with every shard's
// head starting at heads (nil: all zero), and returns the records that
// had parts above the heads, without their offsets.
func replay(t *testing.T, dir string, policy FsyncPolicy, heads []uint64) (*nodeLog, []frame) {
	t.Helper()
	if heads == nil {
		heads = make([]uint64, 4)
	}
	var got []frame
	l, err := openLog(dir, policy, func(f frame) bool {
		parts, ok := fresh(heads, f)
		if len(parts) > 0 {
			got = append(got, frame{epoch: f.epoch, parts: parts})
		}
		return ok
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

// frameBounds returns the offsets in data at which a prefix holds exactly
// k whole records, k = 0, 1, ...
func frameBounds(data []byte) []int {
	bounds := []int{0}
	for off := 0; off < len(data); {
		_, n, ok := nextFrame(data[off:])
		if !ok {
			break
		}
		off += n
		bounds = append(bounds, off)
	}
	return bounds
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, got := replay(t, dir, FsyncGroup, nil)
	if len(got) != 0 {
		t.Fatalf("fresh WAL: %d records, want 0", len(got))
	}
	cross := frame{epoch: 9, parts: []part{
		{shard: 0, index: 4, writes: map[string][]byte{"x": []byte("-7")}},
		{shard: 2, index: 1, writes: map[string][]byte{"y": []byte("7")}},
	}}
	want := []frame{
		rec(1, "a", "1"),
		rec(2, "b", "-42", "c", "7"),
		rec(3), // empty write set records are legal framing
		cross,
		rec(5, "key.with.dots", "100"),
	}
	appendAll(t, l, want...)
	if _, err := l.syncTo(l.written); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	l2, got := replay(t, dir, FsyncGroup, nil)
	defer l2.close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	if n := l2.appends.Load(); n != 0 {
		t.Fatalf("replay counted %d appends", n)
	}
}

// TestWALTornTail is the torn-write recovery table: the segment file is
// truncated at every byte boundary, and recovery must yield exactly the
// records whose frames survived intact — never a partial record — and
// leave the file re-appendable.
func TestWALTornTail(t *testing.T) {
	master := t.TempDir()
	l, _ := replay(t, master, FsyncGroup, nil)
	want := []frame{
		rec(1, "a", "1"),
		rec(2, "bb", "22"),
		rec(3, "ccc", "-333", "d", "4"),
	}
	appendAll(t, l, want...)
	l.close()
	full, err := os.ReadFile(filepath.Join(master, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(full)

	for cut := 0; cut <= len(full); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(0)), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l, got := replay(t, dir, FsyncGroup, nil)
			// The longest prefix of whole frames fitting in cut bytes.
			wantN := 0
			for i, b := range bounds {
				if b <= cut {
					wantN = i
				}
			}
			if len(got) != wantN || (wantN > 0 && !reflect.DeepEqual(got, want[:wantN])) {
				t.Fatalf("cut at %d recovered %+v, want %+v", cut, got, want[:wantN])
			}
			// The torn tail is truncated away on disk.
			if info, err := os.Stat(filepath.Join(dir, segmentName(0))); err != nil {
				t.Fatal(err)
			} else if info.Size() != int64(bounds[wantN]) {
				t.Fatalf("cut at %d left %d bytes, want %d", cut, info.Size(), bounds[wantN])
			}
			// The WAL accepts the next record and a re-open sees it.
			next := uint64(wantN) + 1
			appendAll(t, l, rec(next, "x", "8"))
			l.close()
			_, again := replay(t, dir, FsyncGroup, nil)
			if len(again) != wantN+1 || again[wantN].parts[0].index != next {
				t.Fatalf("cut at %d: post-recovery append lost (%d records)", cut, len(again))
			}
		})
	}
}

// TestWALCorruptTail flips each byte of the final record in turn:
// recovery must stop before the corrupt record (CRC or framing check)
// and keep everything prior.
func TestWALCorruptTail(t *testing.T) {
	master := t.TempDir()
	l, _ := replay(t, master, FsyncGroup, nil)
	appendAll(t, l, rec(1, "a", "1"), rec(2, "b", "2"), rec(3, "c", "3"))
	l.close()
	full, err := os.ReadFile(filepath.Join(master, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(full)
	for i := bounds[2]; i < len(full); i++ {
		dir := t.TempDir()
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xFF
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got := replay(t, dir, FsyncGroup, nil)
		l.close()
		// Either the corruption is detected (2 records survive) or the
		// flip hit the length field such that the frame reads as torn —
		// never may a wrong record surface.
		if len(got) != 2 || got[0].parts[0].index != 1 || got[1].parts[0].index != 2 {
			t.Fatalf("byte %d: recovered %+v, want records 1 and 2", i, got)
		}
	}
}

func TestWALRotateTrim(t *testing.T) {
	dir := t.TempDir()
	l, _ := replay(t, dir, FsyncGroup, nil)
	appendAll(t, l, rec(1, "a", "1"), rec(2, "a", "2"))
	if err := l.rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, rec(3, "a", "3"))
	if err := l.rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, rec(4, "a", "4"))

	// Segment layout: records 1-2, record 3, record 4 (active). A floor
	// of 2 deletes only the first; a floor past everything deletes the
	// second, and the active segment always survives.
	segs := func() int { return len(l.segs) }
	if l.trim(map[int]uint64{0: 2}); segs() != 2 {
		t.Fatalf("trim at 2 left %d segments, want 2", segs())
	}
	if l.trim(map[int]uint64{0: 99}); segs() != 1 {
		t.Fatalf("trim at 99 left %d segments, want 1 (active kept)", segs())
	}
	l.close()

	// Recovery over the remaining segment, seeded past the trim point.
	_, got := replay(t, dir, FsyncGroup, []uint64{3})
	if len(got) != 1 || got[0].parts[0].index != 4 {
		t.Fatalf("recovered %+v, want record 4 only", got)
	}
}

// TestWALSegmentGapRecovery: a tail segment whose records don't follow
// the recovered sequence (external damage) is rejected — but the repair
// must leave an append target a second recovery reads back. Records
// appended after the first recovery must survive the second.
func TestWALSegmentGapRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := replay(t, dir, FsyncGroup, nil)
	appendAll(t, l, rec(1, "a", "1"), rec(2, "a", "2"), rec(3, "a", "3"))
	l.close()
	// Craft a gapped later segment: shard 0's record 10 follows 3.
	if err := os.WriteFile(filepath.Join(dir, segmentName(1000)), encode(nil, rec(10, "z", "9")), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, got := replay(t, dir, FsyncGroup, nil)
	if len(got) != 3 {
		t.Fatalf("recovered %d records past a segment gap, want 3", len(got))
	}
	appendAll(t, l2, rec(4, "a", "4"))
	l2.close()
	_, again := replay(t, dir, FsyncGroup, nil)
	if len(again) != 4 || again[3].parts[0].index != 4 {
		t.Fatalf("second recovery lost post-gap appends: %+v", again)
	}
}

// TestWALMisnamedSegmentContents: recovery trusts record indices, not
// filenames — a renamed segment whose contents continue the sequence is
// read in full, and appends after it continue the sequence too.
func TestWALMisnamedSegmentContents(t *testing.T) {
	dir := t.TempDir()
	l, _ := replay(t, dir, FsyncGroup, nil)
	appendAll(t, l, rec(1, "a", "1"), rec(2, "a", "2"))
	if err := l.rotate(); err != nil {
		t.Fatal(err)
	}
	second := l.written
	appendAll(t, l, rec(3, "a", "3"))
	l.close()
	// The second segment (records from 3) masquerades under a high name.
	if err := os.Rename(filepath.Join(dir, segmentName(second)), filepath.Join(dir, segmentName(1<<20))); err != nil {
		t.Fatal(err)
	}
	l2, got := replay(t, dir, FsyncGroup, nil)
	if len(got) != 3 || got[2].parts[0].index != 3 {
		t.Fatalf("recovered %+v, want records 1..3 despite the misnamed segment", got)
	}
	appendAll(t, l2, rec(4, "a", "4"))
	l2.close()
	if _, again := replay(t, dir, FsyncGroup, nil); len(again) != 4 {
		t.Fatalf("append after the misnamed segment lost: %+v", again)
	}
}

func TestFsyncPolicyCounts(t *testing.T) {
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("bogus fsync policy accepted")
	}
	for _, tc := range []struct {
		policy        FsyncPolicy
		wantAfterApp  int64 // fsyncs after 3 appends
		wantAfterSync int64 // fsyncs after an explicit sync
	}{
		{FsyncGroup, 0, 1}, // synced per batch boundary only
		{FsyncOff, 0, 0},   // never synced
	} {
		l, _ := replay(t, t.TempDir(), tc.policy, nil)
		appendAll(t, l, rec(1, "a", "1"), rec(2, "a", "2"), rec(3, "a", "3"))
		if got := l.fsyncs.Load(); got != tc.wantAfterApp {
			t.Errorf("%v: %d fsyncs after appends, want %d", tc.policy, got, tc.wantAfterApp)
		}
		if _, err := l.syncTo(l.written); err != nil {
			t.Fatal(err)
		}
		if got := l.fsyncs.Load(); got != tc.wantAfterSync {
			t.Errorf("%v: %d fsyncs after sync, want %d", tc.policy, got, tc.wantAfterSync)
		}
		l.close()
	}
}
