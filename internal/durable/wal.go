// Per-shard write-ahead log: the durable twin of the in-memory commit
// log (repl.Log). Records are length-prefixed, CRC32-framed binary
// encodings of the same (index, writes) pairs the engine's CommitLog
// hook emits, appended to segment files named by their first record
// index. A torn or corrupt tail — the expected debris of a crash — is
// detected by the CRC/length framing and truncated away on open;
// everything before it replays exactly.
//
// Fsync policy decides when appended bytes are forced to stable storage:
// FsyncAlways syncs inside every Append (before the commit is
// acknowledged, under the shard latch), FsyncGroup syncs once per commit
// batch at the engine's commit boundary (durability rides the
// group-commit boundary: one fsync covers the whole flush, and verdicts
// are delivered only after it), FsyncOff never syncs (the OS page cache
// is the only durability — survives process death, not machine crash).

package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
)

// FsyncPolicy selects when WAL appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncGroup syncs once per commit batch (the engine's commit
	// boundary), before the batch's commits are acknowledged. The default.
	FsyncGroup FsyncPolicy = iota
	// FsyncAlways syncs inside every append, before the commit is
	// acknowledged — one fsync per committed transaction.
	FsyncAlways
	// FsyncOff never syncs. Appends still hit the file via write(2), so
	// a killed process loses nothing; an OS crash can lose the tail.
	FsyncOff
)

// ParseFsyncPolicy maps the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "group", "":
		return FsyncGroup, nil
	case "always":
		return FsyncAlways, nil
	case "off", "none":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, group, or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	}
	return "group"
}

// Record framing: a 4-byte little-endian payload length, a 4-byte CRC32
// (IEEE) of the payload, then the payload. The payload begins with a
// kind byte:
//
//	data (1):     index (8), epoch (8), participant count (2) and shard
//	              ids (4 each; 0 for a standalone commit), the write
//	              count (4), then length-prefixed key and value bytes
//	              per write
//	intent (2):   epoch (8), participant count (2), shard ids (4 each) —
//	              a cross-shard commit announcing itself before its data
//	              records
//	decision (3): epoch (8) — the cross-shard commit point, written to
//	              the coordinator's log only after every participant's
//	              intent and data records are durable
//
// Data records carry the shard's contiguous commit indices; intent and
// decision records are control metadata and consume no index. Recovery
// reconciles: a cross-shard epoch whose decision never became durable
// (and is not covered by the coordinator's checkpoint) is discarded on
// every shard — all-or-nothing, never half a commit.
const (
	recHeaderLen = 8
	maxRecordLen = 64 << 20 // sanity bound; a "length" past this is framing debris

	walData     = byte(1)
	walIntent   = byte(2)
	walDecision = byte(3)
)

// walEntry is one decoded WAL record: a data record (rec populated) or a
// control record (epoch, and for intents the participant set).
type walEntry struct {
	kind   byte
	rec    repl.Record // walData only
	epoch  uint64      // walIntent, walDecision
	shards []int       // walIntent
}

var crcTable = crc32.IEEETable

// frame backfills the length/CRC header over the payload appended after
// start.
func frame(buf []byte, start int) []byte {
	payload := buf[start+recHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

func appendShards(buf []byte, shards []int) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(shards)))
	for _, s := range shards {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	}
	return buf
}

func encodeRecord(buf []byte, r repl.Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header backfilled below
	buf = append(buf, walData)
	buf = binary.LittleEndian.AppendUint64(buf, r.Index)
	buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	buf = appendShards(buf, r.Shards)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Writes)))
	for k, v := range r.Writes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return frame(buf, start)
}

func encodeIntent(buf []byte, epoch uint64, shards []int) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = append(buf, walIntent)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = appendShards(buf, shards)
	return frame(buf, start)
}

func encodeDecision(buf []byte, epoch uint64) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = append(buf, walDecision)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return frame(buf, start)
}

func cutShards(payload []byte) ([]int, []byte, error) {
	if len(payload) < 2 {
		return nil, nil, fmt.Errorf("durable: truncated shard set")
	}
	n := binary.LittleEndian.Uint16(payload)
	payload = payload[2:]
	if len(payload) < 4*int(n) {
		return nil, nil, fmt.Errorf("durable: shard set count %d exceeds payload", n)
	}
	var shards []int
	for i := 0; i < int(n); i++ {
		shards = append(shards, int(binary.LittleEndian.Uint32(payload)))
		payload = payload[4:]
	}
	return shards, payload, nil
}

func decodeEntry(payload []byte) (walEntry, error) {
	var e walEntry
	if len(payload) < 1 {
		return e, fmt.Errorf("durable: empty record payload")
	}
	e.kind = payload[0]
	payload = payload[1:]
	switch e.kind {
	case walData:
		if len(payload) < 16 {
			return e, fmt.Errorf("durable: short data record payload (%d bytes)", len(payload))
		}
		e.rec.Index = binary.LittleEndian.Uint64(payload)
		e.rec.Epoch = binary.LittleEndian.Uint64(payload[8:])
		payload = payload[16:]
		var err error
		if e.rec.Shards, payload, err = cutShards(payload); err != nil {
			return e, err
		}
		if len(payload) < 4 {
			return e, fmt.Errorf("durable: truncated write count")
		}
		n := binary.LittleEndian.Uint32(payload)
		payload = payload[4:]
		e.rec.Writes = make(map[string][]byte, n)
		for i := uint32(0); i < n; i++ {
			var k string
			var err error
			if k, payload, err = cutBytes(payload); err != nil {
				return e, err
			}
			var v string
			if v, payload, err = cutBytes(payload); err != nil {
				return e, err
			}
			e.rec.Writes[k] = []byte(v)
		}
	case walIntent:
		if len(payload) < 8 {
			return e, fmt.Errorf("durable: short intent record payload")
		}
		e.epoch = binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
		var err error
		if e.shards, payload, err = cutShards(payload); err != nil {
			return e, err
		}
	case walDecision:
		if len(payload) < 8 {
			return e, fmt.Errorf("durable: short decision record payload")
		}
		e.epoch = binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
	default:
		return e, fmt.Errorf("durable: unknown record kind %d", e.kind)
	}
	if len(payload) != 0 {
		return e, fmt.Errorf("durable: %d trailing bytes in record payload", len(payload))
	}
	return e, nil
}

func cutBytes(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("durable: truncated record field")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)) {
		return "", nil, fmt.Errorf("durable: record field length %d exceeds payload", n)
	}
	return string(b[:n]), b[n:], nil
}

// segment is one WAL file; first is the index of its first record.
type segment struct {
	first uint64
	path  string
}

func segmentName(first uint64) string { return fmt.Sprintf("wal-%020d.log", first) }

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	return n, err == nil
}

// WAL is one shard's write-ahead log.
type WAL struct {
	dir    string
	policy FsyncPolicy

	mu       sync.Mutex
	f        *os.File  // active segment
	segments []segment // ascending by first; the last one is active
	next     uint64    // index the next Append must carry
	dirty    bool      // unsynced bytes in the active segment
	broken   error     // sticky first append/sync failure; see Err
	buf      []byte    // reused encode buffer

	appends atomic.Int64
	fsyncs  atomic.Int64
	intents atomic.Int64

	// fsyncObs, when non-nil, observes each fsync's duration (set by the
	// durability manager before the WAL sees traffic).
	fsyncObs *obs.Histogram
}

// openWAL opens (creating if needed) a shard's WAL in dir, scanning the
// existing segments and stitching the recoverable record sequence:
// within each segment records must be contiguous (a torn or corrupt
// tail is truncated in place), and across segments the stitch accepts
// exactly the records continuing the sequence — records already covered
// by the checkpoint (index <= afterIdx) or by an earlier segment are
// skipped, so damage confined to discardable history never costs
// needed records in later segments. A segment whose first usable record
// does not continue the sequence is unreachable history (a real hole):
// it and everything after it are removed. afterIdx seeds the numbering
// for an empty WAL (records resume at afterIdx+1, the newest
// checkpoint's index).
func openWAL(dir string, policy FsyncPolicy, afterIdx uint64) (*WAL, []walEntry, error) {
	w := &WAL{dir: dir, policy: policy}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if first, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
			w.segments = append(w.segments, segment{first: first, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(w.segments, func(i, j int) bool { return w.segments[i].first < w.segments[j].first })

	var out []walEntry
	// The stitch needs records above the checkpoint only; without a
	// checkpoint, the first record seen sets the sequence start.
	next := uint64(0)
	if afterIdx > 0 {
		next = afterIdx + 1
	}
	kept := w.segments[:0]
	broken := false // a needed record was missing: later segments are unreachable
	// The last kept segment's scan is retained for the reuse decision
	// below, so the (potentially large) active segment is read once.
	var lastEntries []walEntry
	var lastValidLen int
	for _, seg := range w.segments {
		if broken {
			slog.Warn("durable: WAL segment unreachable past a missing record; discarding",
				"segment", seg.path, "want", next)
			os.Remove(seg.path)
			continue
		}
		segEntries, validLen, clean, err := scanSegment(seg.path)
		if err != nil {
			return nil, nil, err
		}
		if !clean {
			// Torn or corrupt tail: cut it off. Harmless even below the
			// checkpoint — the records after the damage are unreadable
			// regardless, and the file stays consistent for future scans.
			if err := os.Truncate(seg.path, int64(validLen)); err != nil {
				return nil, nil, err
			}
		}
		mark := len(out)
		took := false
		for _, e := range segEntries {
			if e.kind != walData {
				// Control records ride along in stream order; duplicates
				// below the checkpoint are harmless (recovery treats
				// decisions as a set).
				out = append(out, e)
				continue
			}
			rec := e.rec
			if next == 0 {
				next = rec.Index
			}
			if rec.Index < next {
				continue // covered by the checkpoint or an earlier segment
			}
			if rec.Index > next {
				// Within-segment contiguity is enforced by scanSegment, so
				// a jump can only appear at the segment's first usable
				// record: nothing here (or later) can ever stitch.
				broken = true
				break
			}
			out = append(out, e)
			next++
			took = true
		}
		if broken && !took {
			out = out[:mark] // a removed segment's control records go with it
			slog.Warn("durable: WAL segment unreachable past a missing record; discarding",
				"segment", seg.path, "want", next)
			os.Remove(seg.path)
			continue
		}
		kept = append(kept, seg)
		lastEntries, lastValidLen = segEntries, validLen
	}
	w.segments = kept

	w.next = afterIdx + 1
	if next > w.next {
		w.next = next
	}
	// Reuse the newest kept segment for appends only if the sequence
	// continues exactly where its contents end — a data-free segment named
	// for w.next, or one whose last data record is w.next-1. Anything else
	// (e.g. a fallback segment wholly below the checkpoint) must not be
	// appended to: the next scan would read a hole. Start a fresh,
	// correctly named segment instead; zero-byte rejects are deleted.
	if n := len(w.segments); n > 0 {
		last := w.segments[n-1]
		lastIdx := uint64(0) // newest data index in the last kept segment
		for _, e := range lastEntries {
			if e.kind == walData {
				lastIdx = e.rec.Index
			}
		}
		reusable := (lastIdx == 0 && last.first == w.next) || (lastIdx > 0 && lastIdx == w.next-1)
		if reusable {
			w.f, err = os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, err
			}
			return w, out, nil
		}
		if lastValidLen == 0 {
			os.Remove(last.path)
			w.segments = w.segments[:n-1]
		}
	}
	if err := w.startSegmentLocked(); err != nil {
		return nil, nil, err
	}
	return w, out, nil
}

// scanSegment reads one segment's records: the contiguous run of data
// records starting at whatever index its first data record carries, with
// intent/decision control records interleaved in stream order. It returns
// the entries, the byte length of the valid prefix, and whether the file
// ended cleanly (false = torn, corrupt, or discontinuous tail that must
// be truncated to validLen). Contiguity is judged by the record indices
// themselves, never the segment's filename: a file can legitimately
// carry records below its name after an interrupted recovery, and
// trusting the name would re-truncate acknowledged records on the next
// boot.
func scanSegment(path string) ([]walEntry, int, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	var want uint64 // 0 = first data record sets it
	var out []walEntry
	off := 0
	for {
		if off == len(data) {
			return out, off, true, nil // clean end
		}
		if len(data)-off < recHeaderLen {
			return out, off, false, nil // torn header
		}
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if uint64(length) > maxRecordLen || len(data)-off-recHeaderLen < int(length) {
			return out, off, false, nil // torn payload (or garbage length)
		}
		payload := data[off+recHeaderLen : off+recHeaderLen+int(length)]
		if crc32.Checksum(payload, crcTable) != crc {
			return out, off, false, nil // corrupt payload
		}
		e, err := decodeEntry(payload)
		if err != nil {
			return out, off, false, nil // framing valid but payload malformed: same treatment
		}
		if e.kind == walData {
			if want == 0 {
				want = e.rec.Index
			}
			if e.rec.Index != want {
				// A hole or a backwards index within one file: ascending
				// appends produce neither, so this is damage.
				return out, off, false, nil
			}
			want++
		}
		out = append(out, e)
		off += recHeaderLen + int(length)
	}
}

// Append writes one record. r.Index must be the WAL's next index — the
// caller (the commit-log sink) assigns indices in commit order under the
// shard latch, so a mismatch is a wiring bug, not a runtime condition.
// With FsyncAlways the record is on stable storage when Append returns.
// A failed WAL is sticky-broken: every later Append fails fast without
// writing, so the on-disk log ends at the failure instead of growing a
// hole (recovery stops at the last contiguous record either way).
func (w *WAL) Append(r repl.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if r.Index != w.next {
		w.broken = fmt.Errorf("durable: WAL append index %d, want %d", r.Index, w.next)
		return w.broken
	}
	w.buf = encodeRecord(w.buf[:0], r)
	if _, err := w.f.Write(w.buf); err != nil {
		w.broken = err
		return err
	}
	w.next++
	w.dirty = true
	w.appends.Add(1)
	if w.policy == FsyncAlways {
		return w.syncLocked()
	}
	return nil
}

// AppendIntent writes a cross-shard intent control record (no commit
// index consumed). It is never synced eagerly, even under FsyncAlways:
// nothing depends on an intent being durable before the epoch's data
// records, which are synced (covering the intent, appended before them)
// ahead of the decision.
func (w *WAL) AppendIntent(epoch uint64, shards []int) error {
	return w.appendControl(encodeIntent(nil, epoch, shards), &w.intents)
}

// AppendDecision writes a cross-shard decision control record — the
// commit point of epoch, appended to the coordinator's WAL only after
// round 1 made every participant's intent and data records durable. The
// caller syncs afterwards (round 2); the decision is not durable until
// then.
func (w *WAL) AppendDecision(epoch uint64) error {
	return w.appendControl(encodeDecision(nil, epoch), nil)
}

func (w *WAL) appendControl(framed []byte, counter *atomic.Int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if _, err := w.f.Write(framed); err != nil {
		w.broken = err
		return err
	}
	w.dirty = true
	if counter != nil {
		counter.Add(1)
	}
	return nil
}

// Sync forces appended records to stable storage under the group policy
// (no-op when clean, always-synced, or off). The engine calls it once
// per commit batch before acknowledging the batch.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.policy == FsyncOff || !w.dirty || w.broken != nil {
		return w.broken
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	var start time.Time
	if w.fsyncObs != nil {
		start = time.Now()
	}
	if faultFsyncDelay > 0 {
		time.Sleep(faultFsyncDelay)
	}
	if faultFsyncErr() {
		w.broken = errInjectedFsync
		return w.broken
	}
	if err := w.f.Sync(); err != nil {
		w.broken = err
		return err
	}
	w.dirty = false
	w.fsyncs.Add(1)
	if w.fsyncObs != nil {
		w.fsyncObs.Observe(int64(time.Since(start)))
	}
	return nil
}

// Rotate closes the active segment and starts a new one at the next
// index. Checkpointing rotates first, so every earlier segment holds
// only records at or below the checkpoint index about to be captured —
// making TrimSegments a whole-file delete, never a rewrite. An empty
// active segment is kept as-is: rotating it would only accrete
// zero-byte files (e.g. under repeated checkpoint attempts on a full
// disk).
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if len(w.segments) > 0 && w.segments[len(w.segments)-1].first == w.next {
		return nil // active segment is empty; it already starts at next
	}
	if w.dirty && w.policy != FsyncOff {
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	w.f.Close()
	return w.startSegmentLocked()
}

func (w *WAL) startSegmentLocked() error {
	seg := segment{first: w.next, path: filepath.Join(w.dir, segmentName(w.next))}
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		w.broken = err
		return err
	}
	w.f = f
	w.dirty = false
	w.segments = append(w.segments, seg)
	return nil
}

// TrimSegments deletes inactive segments whose every record is at or
// below idx (their range ends where the next segment starts). The active
// segment is never deleted.
func (w *WAL) TrimSegments(idx uint64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segments) > 1 && w.segments[1].first <= idx+1 {
		os.Remove(w.segments[0].path)
		w.segments = w.segments[1:]
		removed++
	}
	return removed
}

// Err returns the sticky failure that broke the WAL, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// Close syncs (regardless of policy — a graceful shutdown should leave
// nothing to the page cache) and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if w.dirty && w.broken == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
