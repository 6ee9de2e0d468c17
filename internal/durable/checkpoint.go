// Checkpoint files: a whole-shard snapshot of committed state at a
// recorded commit-log index, written tmp+rename so a crash mid-write
// leaves either the previous checkpoint or the new one, never a hybrid.
// The format is binary: a magic/version header, the shard and log index,
// the key count, length-prefixed key/value pairs, and a trailing CRC32
// over everything before it. Recovery loads the newest file whose CRC
// verifies and falls back to older ones (a half-renamed or bit-rotted
// checkpoint costs replay time, not correctness). For the fallback to be
// real, the previous checkpoint — and the log records above it — must
// outlive the new one: the manager prunes checkpoints below the
// *previous* index only, and trims a log segment only once every part in
// it is at or below the previous checkpoint of its shard, so at any
// instant the newest-but-one checkpoint plus the surviving log can still
// rebuild the shard.

package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const ckptMagic = uint32(0x53434B32) // "SCK2": adds the commit-epoch watermark

func ckptName(index uint64) string { return fmt.Sprintf("ckpt-%020d.snap", index) }

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".snap"), 10, 64)
	return n, err == nil
}

// writeCheckpoint atomically writes shard's snapshot at log index to
// dir. epoch is the shard's commit-epoch watermark at the capture: every
// record the checkpoint covers has epoch <= it, so recovery allocates new
// epochs above it even after the records themselves are trimmed. It
// deliberately deletes nothing: pruning is pruneCheckpoints's job, under
// the manager's keep-the-previous policy.
func writeCheckpoint(dir string, shard int, index, epoch uint64, kvs map[string][]byte) error {
	buf := make([]byte, 0, 1024)
	buf = binary.LittleEndian.AppendUint32(buf, ckptMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	buf = binary.LittleEndian.AppendUint64(buf, index)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(kvs)))
	for k, v := range kvs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))

	return writeFileSync(dir, ckptName(index), buf)
}

// writeFileSync atomically replaces dir/name with data: a tmp file is
// written and synced, renamed into place, and the directory synced. The
// data must be stable before the rename publishes it, or a crash could
// leave the name pointing at empty or torn contents.
func writeFileSync(dir, name string, data []byte) error {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// pruneCheckpoints deletes checkpoint files below keepFrom. The manager
// passes the previous checkpoint's index, keeping the newest two files:
// if the newest turns out corrupt at recovery, its predecessor (whose
// WAL suffix was likewise preserved) still rebuilds the shard.
func pruneCheckpoints(dir string, keepFrom uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if idx, ok := parseCkptName(e.Name()); ok && idx < keepFrom {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// loadCheckpoint returns the newest valid checkpoint in dir: its log
// index, commit-epoch watermark, and key/value pairs. A missing
// checkpoint is (0, 0, nil, nil) — recovery then replays the WAL from
// index 1.
func loadCheckpoint(dir string, shard int) (uint64, uint64, map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, nil, err
	}
	var indices []uint64
	for _, e := range entries {
		if idx, ok := parseCkptName(e.Name()); ok && !e.IsDir() {
			indices = append(indices, idx)
		}
	}
	sort.Slice(indices, func(i, j int) bool { return indices[i] > indices[j] })
	for _, idx := range indices {
		epoch, kvs, err := readCheckpoint(filepath.Join(dir, ckptName(idx)), shard, idx)
		if err == nil {
			return idx, epoch, kvs, nil
		}
	}
	return 0, 0, nil, nil
}

func readCheckpoint(path string, shard int, index uint64) (uint64, map[string][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < 36 { // header 32 + crc 4
		return 0, nil, fmt.Errorf("durable: checkpoint %s too short", path)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return 0, nil, fmt.Errorf("durable: checkpoint %s CRC mismatch", path)
	}
	if binary.LittleEndian.Uint32(body) != ckptMagic {
		return 0, nil, fmt.Errorf("durable: checkpoint %s bad magic", path)
	}
	if got := binary.LittleEndian.Uint32(body[4:]); int(got) != shard {
		return 0, nil, fmt.Errorf("durable: checkpoint %s is for shard %d, not %d", path, got, shard)
	}
	if got := binary.LittleEndian.Uint64(body[8:]); got != index {
		return 0, nil, fmt.Errorf("durable: checkpoint %s carries index %d, name says %d", path, got, index)
	}
	epoch := binary.LittleEndian.Uint64(body[16:])
	n := binary.LittleEndian.Uint64(body[24:])
	payload := body[32:]
	kvs := make(map[string][]byte, n)
	for i := uint64(0); i < n; i++ {
		var k, v string
		var err error
		if k, payload, err = cutBytes(payload); err != nil {
			return 0, nil, err
		}
		if v, payload, err = cutBytes(payload); err != nil {
			return 0, nil, err
		}
		kvs[k] = []byte(v)
	}
	if len(payload) != 0 {
		return 0, nil, fmt.Errorf("durable: checkpoint %s has %d trailing bytes", path, len(payload))
	}
	return epoch, kvs, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
