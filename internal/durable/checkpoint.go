// Checkpoint files: a whole-shard snapshot of committed state at a
// recorded commit-log index, written tmp+rename so a crash mid-write
// leaves either the previous checkpoint or the new one, never a hybrid.
// A checkpoint is one node-log frame (wal.go), read back by the same
// decoder: its epoch is the shard's commit-epoch watermark and its one
// part is the shard, the index and every key/value pair. The file must
// be exactly that frame, naming the shard and the index in its file name.
// Recovery loads the newest valid file and falls back to older ones (a
// half-renamed or bit-rotted checkpoint costs replay time, not
// correctness). For the fallback to be real, the previous checkpoint —
// and the log records above it — must outlive the new one: the manager
// prunes checkpoints below the *previous* index only, and trims a log
// segment only once every part in it is at or below the previous
// checkpoint of its shard, so at any instant the newest-but-one
// checkpoint plus the surviving log can still rebuild the shard.

package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

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
	buf, err := endRecord(appendPart(beginRecord(nil, epoch, 1), shard, index, kvs), 0)
	if err != nil {
		return err
	}
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
		data, err := os.ReadFile(filepath.Join(dir, ckptName(idx)))
		f, n, ok := nextFrame(data)
		if err == nil && ok && n == len(data) && len(f.parts) == 1 && f.parts[0].shard == shard && f.parts[0].index == idx {
			return idx, f.epoch, f.parts[0].writes, nil
		}
	}
	return 0, 0, nil, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
