package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/repl"
)

func rec(idx uint64, kvs ...string) repl.Record {
	r := repl.Record{Index: idx, Writes: make(map[string][]byte)}
	for i := 0; i+1 < len(kvs); i += 2 {
		r.Writes[kvs[i]] = []byte(kvs[i+1])
	}
	return r
}

// dataRecs projects recovered WAL entries down to their data records —
// the view these tests assert on; control records (intents, decisions)
// have their own coverage in recovery_test.go.
func dataRecs(entries []walEntry) []repl.Record {
	var out []repl.Record
	for _, e := range entries {
		if e.kind == walData {
			out = append(out, e.rec)
		}
	}
	return out
}

func appendAll(t *testing.T, w *WAL, recs ...repl.Record) {
	t.Helper()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, err := openWAL(dir, FsyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL: %d records, want 0", len(recs))
	}
	want := []repl.Record{
		rec(1, "a", "1"),
		rec(2, "b", "-42", "c", "7"),
		rec(3), // empty write set records are legal framing
		rec(4, "key.with.dots", "100"),
	}
	appendAll(t, w, want...)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, entries, err := openWAL(dir, FsyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := dataRecs(entries); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	// Appends resume where the log left off: index 5, and nothing else.
	appendAll(t, w2, rec(5, "d", "9"))
	if err := w2.Append(rec(99)); err == nil {
		t.Fatal("out-of-sequence append accepted")
	}
}

// TestWALTornTail is the torn-write recovery table: the segment file is
// truncated at every byte boundary, and recovery must yield exactly the
// records whose frames survived intact — never a partial record — and
// leave the file re-appendable.
func TestWALTornTail(t *testing.T) {
	master := t.TempDir()
	w, _, err := openWAL(master, FsyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []repl.Record{
		rec(1, "a", "1"),
		rec(2, "bb", "22"),
		rec(3, "ccc", "-333", "d", "4"),
	}
	appendAll(t, w, want...)
	w.Close()
	segPath := filepath.Join(master, segmentName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: offsets at which a prefix holds exactly k records.
	bounds := []int{0}
	off := 0
	for off < len(full) {
		length := int(full[off]) | int(full[off+1])<<8 | int(full[off+2])<<16 | int(full[off+3])<<24
		off += recHeaderLen + length
		bounds = append(bounds, off)
	}

	for cut := 0; cut <= len(full); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			w, entries, err := openWAL(dir, FsyncGroup, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := dataRecs(entries)
			// The longest prefix of whole frames fitting in cut bytes.
			wantN := 0
			for i, b := range bounds {
				if b <= cut {
					wantN = i
				}
			}
			if len(got) != wantN {
				t.Fatalf("cut at %d recovered %d records, want %d", cut, len(got), wantN)
			}
			if wantN > 0 && !reflect.DeepEqual(got, want[:wantN]) {
				t.Fatalf("cut at %d recovered %+v, want %+v", cut, got, want[:wantN])
			}
			// The torn tail is truncated away on disk.
			if info, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil {
				t.Fatal(err)
			} else if info.Size() != int64(bounds[wantN]) {
				t.Fatalf("cut at %d left %d bytes, want %d", cut, info.Size(), bounds[wantN])
			}
			// The WAL accepts the next record and a re-open sees it.
			next := uint64(wantN) + 1
			appendAll(t, w, rec(next, "x", "8"))
			w.Close()
			_, reEntries, err := openWAL(dir, FsyncGroup, 0)
			if err != nil {
				t.Fatal(err)
			}
			if again := dataRecs(reEntries); len(again) != wantN+1 || again[wantN].Index != next {
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
	w, _, err := openWAL(master, FsyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, rec(1, "a", "1"), rec(2, "b", "2"), rec(3, "c", "3"))
	w.Close()
	full, err := os.ReadFile(filepath.Join(master, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Locate the last record's frame start.
	off, last := 0, 0
	for off < len(full) {
		last = off
		length := int(full[off]) | int(full[off+1])<<8 | int(full[off+2])<<16 | int(full[off+3])<<24
		off += recHeaderLen + length
	}

	for i := last; i < len(full); i++ {
		dir := t.TempDir()
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xFF
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		w, entries, err := openWAL(dir, FsyncGroup, 0)
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		w.Close()
		got := dataRecs(entries)
		// Either the corruption is detected (2 records survive) or the
		// flip hit the length field such that the frame reads as torn —
		// never may a wrong record surface.
		if len(got) > 2 {
			t.Fatalf("byte %d: corrupt record surfaced (%d records: %+v)", i, len(got), got)
		}
		if len(got) == 2 && (got[0].Index != 1 || got[1].Index != 2) {
			t.Fatalf("byte %d: wrong surviving records %+v", i, got)
		}
	}
}

func TestWALRotateTrim(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, FsyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, rec(1, "a", "1"), rec(2, "a", "2"))
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, rec(3, "a", "3"))
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, rec(4, "a", "4"))

	// Segment layout: wal-1 (recs 1-2), wal-3 (rec 3), wal-4 (active).
	// Trimming at 2 deletes only the first.
	if n := w.TrimSegments(2); n != 1 {
		t.Fatalf("TrimSegments(2) removed %d segments, want 1", n)
	}
	// Trimming at 3 deletes wal-3; the active segment always survives.
	if n := w.TrimSegments(99); n != 1 {
		t.Fatalf("TrimSegments(99) removed %d segments, want 1 (active kept)", n)
	}
	w.Close()

	// Recovery over the remaining segments, seeded past the trim point.
	_, entries, err := openWAL(dir, FsyncGroup, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := dataRecs(entries); len(got) != 1 || got[0].Index != 4 {
		t.Fatalf("recovered %+v, want record 4 only", got)
	}
}

// TestWALSegmentGapRecovery: a tail segment whose records don't follow
// the recovered sequence (external damage) is rejected — but the repair
// must not create a misnamed append target that a second recovery would
// destroy. Records appended after the first recovery must survive the
// second.
func TestWALSegmentGapRecovery(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, FsyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, rec(1, "a", "1"), rec(2, "a", "2"), rec(3, "a", "3"))
	w.Close()
	// Craft a gapped later segment: record index 10 in a file named wal-10.
	buf := encodeRecord(nil, rec(10, "z", "9"))
	if err := os.WriteFile(filepath.Join(dir, segmentName(10)), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, entries, err := openWAL(dir, FsyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := dataRecs(entries); len(got) != 3 {
		t.Fatalf("recovered %d records past a segment gap, want 3", len(got))
	}
	// The gapped file must not survive as an empty misnamed append target.
	appendAll(t, w2, rec(4, "a", "4"))
	w2.Close()
	_, reEntries, err := openWAL(dir, FsyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again := dataRecs(reEntries); len(again) != 4 || again[3].Index != 4 {
		t.Fatalf("second recovery lost post-gap appends: %+v", again)
	}
}

// TestWALMisnamedSegmentContents: recovery trusts record indices, not
// filenames — a renamed segment (or one inherited from an interrupted
// repair) whose contents continue the sequence is read in full.
func TestWALMisnamedSegmentContents(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, FsyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, rec(1, "a", "1"), rec(2, "a", "2"))
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, rec(3, "a", "3"))
	w.Close()
	// The second segment (records from 3) masquerades under a high name.
	if err := os.Rename(filepath.Join(dir, segmentName(3)), filepath.Join(dir, segmentName(10))); err != nil {
		t.Fatal(err)
	}
	_, entries, err := openWAL(dir, FsyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := dataRecs(entries); len(got) != 3 || got[2].Index != 3 {
		t.Fatalf("recovered %+v, want records 1..3 despite the misnamed segment", got)
	}
}

func TestFsyncPolicyCounts(t *testing.T) {
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("bogus fsync policy accepted")
	}
	for _, tc := range []struct {
		policy        FsyncPolicy
		wantAfterApp  int64 // fsyncs after 3 appends
		wantAfterSync int64 // fsyncs after an explicit Sync
	}{
		{FsyncAlways, 3, 3}, // synced per append; Sync is then a no-op
		{FsyncGroup, 0, 1},  // synced per batch boundary only
		{FsyncOff, 0, 0},    // never synced
	} {
		w, _, err := openWAL(t.TempDir(), tc.policy, 0)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, w, rec(1, "a", "1"), rec(2, "a", "2"), rec(3, "a", "3"))
		if got := w.fsyncs.Load(); got != tc.wantAfterApp {
			t.Errorf("%v: %d fsyncs after appends, want %d", tc.policy, got, tc.wantAfterApp)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := w.fsyncs.Load(); got != tc.wantAfterSync {
			t.Errorf("%v: %d fsyncs after Sync, want %d", tc.policy, got, tc.wantAfterSync)
		}
		w.Close()
	}
}
