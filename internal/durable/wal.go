// The node write-ahead log: one append-only sequence of CRC-framed
// records that every shard of a node appends to. A record is one
// transaction — its commit epoch and, per participant shard, the shard,
// the part's index in that shard's commit order, and the writes — so a
// cross-shard commit is atomic on disk by its frame: the record is in the
// log or it is not (Hekaton's shape: no intents, no decision, no undo).
// Segment files are named by the log offset of their first byte. A torn
// or corrupt tail — the expected debris of a crash — is detected by the
// length/CRC framing and truncated away on open; everything before it
// replays exactly.
//
// Three rules make the log crash-atomic; each is stated once, here:
//
//   - Whole frames only. A record reaches the file as one write. A
//     cross-shard commit reaches its lowest participant's sink in one
//     call, under all the participants' latches
//     (engine.InstallCrossLocked), and is encoded and written there as
//     one frame (managedShard.AppendCommit). Per-shard index order in the
//     log follows from the shard latch.
//   - A checkpoint never covers a record the log does not hold durably.
//     A shard is snapshotted under its latch, then the log is synced
//     through that shard's newest record, then the checkpoint file is
//     renamed into place (Manager.checkpointShard). Otherwise a shard's
//     checkpoint could hold its half of a cross-shard record whose frame
//     a crash then loses: a torn commit.
//   - Appends never wait for an fsync. Appends run under shard latches,
//     so an fsync under the append mutex would put every shard behind the
//     disk. syncTo runs the fsync outside it, against a written-through
//     offset taken before the fsync starts.
//
// The fsync policy decides when written bytes are forced to stable
// storage: FsyncGroup syncs once per commit batch at the engine's commit
// boundary (one fsync covers every shard's records of the flush, and
// verdicts are delivered only after it), FsyncOff never syncs (the OS
// page cache is the only durability — survives process death, not
// machine crash). Neither fsyncs under a shard latch.

package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// FsyncPolicy selects when WAL appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncGroup syncs once per commit batch (the engine's commit
	// boundary), before the batch's commits are acknowledged. The default.
	FsyncGroup FsyncPolicy = iota
	// FsyncOff never syncs. Appends still hit the file via write(2), so
	// a killed process loses nothing; an OS crash can lose the tail.
	FsyncOff
)

// ParseFsyncPolicy maps the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "group", "":
		return FsyncGroup, nil
	case "off", "none":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want group or off)", s)
}

func (p FsyncPolicy) String() string {
	if p == FsyncOff {
		return "off"
	}
	return "group"
}

// Record framing: a 4-byte little-endian payload length, a 4-byte CRC32
// (IEEE) of the payload, then the payload: the commit epoch (8), the part
// count (2), and per part the shard (4), the part's index in that shard's
// commit order (8), the write count (4), then length-prefixed key and
// value bytes per write. A checkpoint file is one such frame (see
// checkpoint.go). A frame is bounded only by the bytes that hold it: a
// length past them is a torn or corrupt tail, and a payload too long for
// the 32-bit length is refused when it is framed.
const recHeaderLen = 8

var crcTable = crc32.IEEETable

// part is one shard's share of a logged transaction.
type part struct {
	shard  int
	index  uint64
	writes map[string][]byte
}

// frame is one decoded record and the log offsets it spans.
type frame struct {
	epoch    uint64
	parts    []part
	off, end int64
}

// beginRecord starts a record of n parts at the end of buf.
func beginRecord(buf []byte, epoch uint64, n int) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header backfilled by endRecord
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	return binary.LittleEndian.AppendUint16(buf, uint16(n))
}

// appendPart adds one part to the record being built in buf.
func appendPart(buf []byte, shard int, index uint64, writes map[string][]byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	buf = binary.LittleEndian.AppendUint64(buf, index)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(writes)))
	for k, v := range writes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// endRecord backfills the length/CRC header of the record that begins at
// buf[start]. It refuses a payload whose length the header cannot hold.
func endRecord(buf []byte, start int) ([]byte, error) {
	payload := buf[start+recHeaderLen:]
	if uint64(len(payload)) > math.MaxUint32 {
		return buf, fmt.Errorf("durable: record payload of %d bytes exceeds the frame's 32-bit length", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// nextFrame decodes the record at the start of data and returns its
// length. ok is false at a clean end and at damage alike: a torn header
// or payload, a CRC mismatch, or a payload that does not decode.
func nextFrame(data []byte) (f frame, n int, ok bool) {
	if len(data) < recHeaderLen {
		return f, 0, false
	}
	length := binary.LittleEndian.Uint32(data)
	if uint64(length) > uint64(len(data)-recHeaderLen) {
		return f, 0, false
	}
	n = recHeaderLen + int(length)
	payload := data[recHeaderLen:n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[4:]) {
		return f, 0, false
	}
	f, err := decodeFrame(payload)
	return f, n, err == nil
}

func decodeFrame(p []byte) (frame, error) {
	var f frame
	if len(p) < 10 {
		return f, fmt.Errorf("durable: short record payload (%d bytes)", len(p))
	}
	f.epoch = binary.LittleEndian.Uint64(p)
	f.parts = make([]part, binary.LittleEndian.Uint16(p[8:]))
	p = p[10:]
	for i := range f.parts {
		if len(p) < 16 {
			return f, fmt.Errorf("durable: truncated record part")
		}
		pt := &f.parts[i]
		pt.shard = int(binary.LittleEndian.Uint32(p))
		pt.index = binary.LittleEndian.Uint64(p[4:])
		n := binary.LittleEndian.Uint32(p[12:])
		p = p[16:]
		pt.writes = make(map[string][]byte, min(n, uint32(len(p)/8))) // a write takes 8 bytes or more
		for j := uint32(0); j < n; j++ {
			var k, v []byte
			var err error
			if k, p, err = cutBytes(p); err != nil {
				return f, err
			}
			if v, p, err = cutBytes(p); err != nil {
				return f, err
			}
			pt.writes[string(k)] = append([]byte{}, v...)
		}
	}
	if len(f.parts) == 0 || len(p) != 0 {
		return f, fmt.Errorf("durable: malformed record payload (%d parts, %d trailing bytes)", len(f.parts), len(p))
	}
	return f, nil
}

func cutBytes(b []byte) (field, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("durable: truncated record field")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)) {
		return nil, nil, fmt.Errorf("durable: record field length %d exceeds payload", n)
	}
	return b[:n], b[n:], nil
}

// segment is one log file. top is, per shard, the highest part index the
// segment holds: the segment may be deleted once every shard's previous
// checkpoint covers its top.
type segment struct {
	start int64 // log offset of the first byte; the file's name
	path  string
	top   map[int]uint64
}

func segmentName(start int64) string { return fmt.Sprintf("wal-%020d.log", start) }

func parseSegmentName(name string) (int64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	return n, err == nil && n >= 0
}

// hookPoint names a crash-relevant moment the tests observe through
// nodeLog.hook: an fsync about to start, a checkpoint file renamed into
// place, a checkpoint pass done pruning and trimming, a new segment's
// directory entry about to be synced.
type hookPoint int

const (
	hookFsync hookPoint = iota
	hookRename
	hookTrim
	hookDirSync
)

// nodeLog is a node's write-ahead log.
type nodeLog struct {
	dir      string
	policy   FsyncPolicy
	fsyncObs *obs.Histogram  // observes each fsync's duration; may be nil
	hook     func(hookPoint) // test seam; nil in production
	ship     bool            // queue written records for the replication feed

	syncMu sync.Mutex // serializes fsyncs and rotation; never taken by an append

	mu        sync.Mutex // the append mutex
	f         *os.File   // active segment
	segs      []segment  // ascending; the last one is active
	written   int64      // log offset past the last record written
	synced    int64      // log offset through which the log is on stable storage
	broken    error      // sticky first write/sync failure; see err
	unshipped []shipment // with ship: written, not yet published, in log order

	appends, crossRecs, fsyncs atomic.Int64
}

// shipment is a written record waiting for the sync that lets it ship:
// the commit as its sink received it, the sink's shard, and the log
// offset past the record.
type shipment struct {
	shard int
	rec   engine.CommitRecord
	end   int64
}

func (l *nodeLog) at(p hookPoint) {
	if l.hook != nil {
		l.hook(p)
	}
}

// openLog opens (creating if needed) the node log in dir and replays it:
// every whole record is handed to accept in log order. A torn or corrupt
// tail of a segment is truncated in place and the next segment is read
// on. The first record accept refuses — it breaks some shard's index
// sequence, which no crash produces, only damage — cuts the log: it and
// everything after it are removed. Appends resume at the end of the last
// segment.
func openLog(dir string, policy FsyncPolicy, accept func(frame) bool) (*nodeLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := &nodeLog{dir: dir, policy: policy}
	for _, e := range entries {
		if start, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
			l.segs = append(l.segs, segment{start: start, path: filepath.Join(dir, e.Name()), top: make(map[int]uint64)})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].start < l.segs[j].start })

	kept, cut := l.segs[:0], false
	for _, seg := range l.segs {
		if cut {
			os.Remove(seg.path)
			continue
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		valid := 0
		for {
			f, n, ok := nextFrame(data[valid:])
			if !ok {
				break
			}
			f.off, f.end = seg.start+int64(valid), seg.start+int64(valid+n)
			if !accept(f) {
				slog.Warn("durable: WAL record breaks a shard's index sequence; discarding it and the rest of the log",
					"segment", seg.path, "offset", f.off)
				cut = true
				break
			}
			for _, p := range f.parts {
				seg.top[p.shard] = p.index
			}
			valid += n
		}
		if valid < len(data) {
			if err := os.Truncate(seg.path, int64(valid)); err != nil {
				return nil, err
			}
		}
		kept = append(kept, seg)
		l.written = seg.start + int64(valid)
	}
	l.segs = kept
	if len(l.segs) == 0 {
		if err := l.startSegmentLocked(); err != nil {
			return nil, err
		}
		if policy != FsyncOff {
			syncDir(dir)               // the first segment's entry
			syncDir(filepath.Dir(dir)) // wal/'s, and the shard directories' made before it
		}
	} else if l.f, err = os.OpenFile(l.segs[len(l.segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	l.synced = l.written
	return l, nil
}

// write appends one whole record holding parts (their writes are already
// encoded in rec) and returns the log offset past it. With ship set, the
// record joins the publication queue as sh, in the order it reached the
// file. A failed log is sticky-broken: every later write fails without
// touching the file, so the log ends at the failure instead of growing a
// hole.
func (l *nodeLog) write(rec []byte, parts []part, sh shipment) (int64, error) {
	l.mu.Lock()
	if l.broken != nil {
		err := l.broken
		l.mu.Unlock()
		return 0, err
	}
	if _, err := l.f.Write(rec); err != nil {
		l.broken = err
		l.mu.Unlock()
		return 0, err
	}
	l.written += int64(len(rec))
	end, top := l.written, l.segs[len(l.segs)-1].top
	for _, p := range parts {
		top[p.shard] = p.index
	}
	if l.ship {
		sh.end = end
		l.unshipped = append(l.unshipped, sh)
	}
	l.mu.Unlock()
	l.appends.Add(1)
	if len(parts) > 1 {
		l.crossRecs.Add(1)
	}
	return end, nil
}

// end returns the log offset past the last record written.
func (l *nodeLog) end() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// shippable removes from the publication queue, and returns, the records
// that end at or before offset through.
func (l *nodeLog) shippable(through int64) []shipment {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for n < len(l.unshipped) && l.unshipped[n].end <= through {
		n++
	}
	out := l.unshipped[:n:n]
	if l.unshipped = l.unshipped[n:]; len(l.unshipped) == 0 {
		l.unshipped = nil // release the backing array
	}
	return out
}

// syncTo makes the log durable through offset target (under FsyncOff it
// only reports a broken log). The watermark taken before the fsync is
// what the fsync covers: records written while it runs wait for the next
// one.
func (l *nodeLog) syncTo(target int64) error {
	if l.policy == FsyncOff {
		return l.err()
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	f, w, synced, err := l.f, l.written, l.synced, l.broken
	l.mu.Unlock()
	if err != nil || synced >= target {
		return err
	}
	if err := l.fsync(f); err != nil {
		return err
	}
	l.mu.Lock()
	l.synced = w
	l.mu.Unlock()
	return nil
}

// fsync forces f to stable storage, breaking the log on failure. Callers
// hold syncMu, never mu.
func (l *nodeLog) fsync(f *os.File) error {
	l.at(hookFsync)
	start := time.Now()
	var err error
	if faultFsyncErr() {
		err = errInjectedFsync
	} else {
		err = f.Sync()
	}
	if err != nil {
		return l.fail(err)
	}
	l.fsyncs.Add(1)
	if l.fsyncObs != nil {
		l.fsyncObs.Observe(int64(time.Since(start)))
	}
	return nil
}

// rotate seals the active segment and starts a new one at the current
// offset, so the sealed segment can later be trimmed as a whole file. The
// sealed file, and the directory entry of the new one, are synced before
// any later syncTo may count their bytes — both hold syncMu — while
// appends go on into the new segment: a file's fsync does not make its
// directory entry durable. An empty active segment is kept as is.
func (l *nodeLog) rotate() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.broken != nil || l.segs[len(l.segs)-1].start == l.written {
		defer l.mu.Unlock()
		return l.broken
	}
	old := l.f
	if err := l.startSegmentLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	w := l.written
	l.mu.Unlock()
	defer old.Close()
	if l.policy != FsyncOff {
		l.at(hookDirSync)
		syncDir(l.dir)
		if err := l.fsync(old); err != nil {
			return err
		}
	}
	l.mu.Lock()
	l.synced = max(l.synced, w)
	l.mu.Unlock()
	return nil
}

func (l *nodeLog) startSegmentLocked() error {
	seg := segment{start: l.written, path: filepath.Join(l.dir, segmentName(l.written)), top: make(map[int]uint64)}
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		l.broken = err
		return err
	}
	l.f = f
	l.segs = append(l.segs, seg)
	return nil
}

// trim deletes sealed segments, oldest first, while every part in them
// is at or below floor[shard]. The active segment is never deleted.
func (l *nodeLog) trim(floor map[int]uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.segs) > 1 && covered(l.segs[0].top, floor) {
		os.Remove(l.segs[0].path)
		l.segs = l.segs[1:]
	}
}

func covered(top, floor map[int]uint64) bool {
	for s, idx := range top {
		if idx > floor[s] {
			return false
		}
	}
	return true
}

// oldest returns a copy of the oldest sealed segment's per-shard top
// index once more than limit segments are sealed, else nil.
func (l *nodeLog) oldest(limit int) map[int]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs)-1 <= limit {
		return nil
	}
	top := make(map[int]uint64, len(l.segs[0].top))
	for s, idx := range l.segs[0].top {
		top[s] = idx
	}
	return top
}

// fail breaks the log with err unless it is already broken, and returns
// err.
func (l *nodeLog) fail(err error) error {
	l.mu.Lock()
	if l.broken == nil {
		l.broken = err
	}
	l.mu.Unlock()
	return err
}

// err returns the sticky failure that broke the log, if any.
func (l *nodeLog) err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// close syncs (regardless of policy — a graceful shutdown should leave
// nothing to the page cache) and closes the active segment.
func (l *nodeLog) close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.written > l.synced && l.broken == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
