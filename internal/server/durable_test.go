// End-to-end durability and snapshot-bootstrap tests: crash recovery
// through a real server (data directory reopened by a second instance),
// checkpoints and their STATS counters, and the SNAP joiner path —
// including the equivalence oracle: a replica that joined late via SNAP
// converges to exactly the state of one that joined the empty primary
// and streamed its log from position 1.
package server

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/server/client"
)

// startDurableServer starts a server with a data directory. Unlike
// startServer it does not register cleanup: crash-recovery tests close
// (or abandon) servers mid-test themselves.
func startDurableServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(lis)
	return s, lis.Addr().String()
}

// driveMixedLoad writes single-shard and cross-shard transactions and
// returns the expected key set.
func driveMixedLoad(t *testing.T, addr string, rounds int) []string {
	t.Helper()
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("dk%d", i)
	}
	for round := 0; round < rounds; round++ {
		for i, k := range keys {
			if _, err := c.Add(k, int64(i+round)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i+1 < len(keys); i += 2 {
			if _, err := c.Update([]client.Op{
				{Key: keys[i], Delta: -3, Write: true},
				{Key: keys[i+1], Delta: 3, Write: true},
			}, client.TxOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return keys
}

// snapshotKeys reads every key through a fresh client.
func snapshotKeys(t *testing.T, addr string, keys []string) map[string]int64 {
	t.Helper()
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := make(map[string]int64, len(keys))
	for _, k := range keys {
		n, _, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = n
	}
	return out
}

// TestServerCrashRecovery: a primary with a data directory is closed and
// a second instance reopened over the same directory recovers every
// acknowledged commit, reports recovered_index, and keeps serving (and
// logging) new commits above the recovered history.
func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards:  4,
		Repl:    ReplOptions{Primary: true},
		Durable: durable.Options{Dir: dir},
	}
	s1, addr1 := startDurableServer(t, cfg)
	keys := driveMixedLoad(t, addr1, 10)
	want := snapshotKeys(t, addr1, keys)
	total := s1.Feed().Log().Head()
	s1.Close()

	s2, addr2 := startDurableServer(t, cfg)
	defer s2.Close()
	if got := snapshotKeys(t, addr2, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered state %v, want %v", got, want)
	}
	if rec := s2.Durable().RecoveredIndex(); rec != total {
		t.Fatalf("recovered_index = %d, want %d", rec, total)
	}
	if h := s2.Feed().Log().Head(); h != total {
		t.Fatalf("log head after restart = %d, want %d", h, total)
	}
	// STATS reports the durability counters, including recovered_index.
	rc := dialRaw(t, addr2)
	rc.send("STATS")
	st := rc.recv()
	if !strings.Contains(st, fmt.Sprintf("recovered_index=%d", total)) {
		t.Fatalf("STATS %q lacks recovered_index=%d", st, total)
	}
	if !strings.Contains(st, "wal_appends=") || !strings.Contains(st, "ckpt_count=") {
		t.Fatalf("STATS %q lacks durability counters", st)
	}
	// New commits append above the recovered history.
	c, err := client.DialMux(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Add(keys[0], 1); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAndRecovery: CheckpointAll captures every dirty shard; a
// restart recovers from checkpoint + WAL suffix; with no subscribers and
// a zero retention window the in-memory log is trimmed to its head, so a
// plain replay-from-1 joiner is refused while a SNAP joiner succeeds.
func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards:  2,
		Repl:    ReplOptions{Primary: true},
		Durable: durable.Options{Dir: dir},
	}
	s1, addr1 := startDurableServer(t, cfg)
	s1.Feed().Log().SetRetention(0)
	keys := driveMixedLoad(t, addr1, 6)

	if order, err := s1.Durable().CheckpointAll(); err != nil || len(order) != 2 {
		t.Fatalf("CheckpointAll = %v, %v; want both shards (both dirty)", order, err)
	}
	rc := dialRaw(t, addr1)
	rc.send("STATS")
	if st := rc.recv(); !strings.Contains(st, "ckpt_count=2") {
		t.Fatalf("STATS %q lacks ckpt_count=2", st)
	}
	// With no subscribers, the zero window trims the whole log.
	if base, head := s1.Feed().Log().Base(), s1.Feed().Log().Head(); base != head {
		t.Fatalf("log base %d != head %d with no subscribers", base, head)
	}
	rc.send("STATS")
	if st := rc.recv(); !strings.Contains(st, "log_trimmed=") || strings.Contains(st, "log_trimmed=0") {
		t.Fatalf("STATS %q lacks nonzero log_trimmed", st)
	}

	// A replay-from-1 subscriber is refused with a SNAP pointer...
	sub := dialRaw(t, addr1)
	sub.send("REPL 1")
	if got := sub.recv(); !strings.HasPrefix(got, "ERR log trimmed") || !strings.Contains(got, "SNAP") {
		t.Fatalf("REPL 1 on trimmed log = %q, want ERR log trimmed ... SNAP", got)
	}
	// ...and a SNAP bootstrap succeeds despite the trimmed history.
	want := snapshotKeys(t, addr1, keys)
	_, repAddr := startServer(t, Config{Shards: 2, ReplicaOf: addr1})
	if got := snapshotKeys(t, repAddr, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SNAP-bootstrapped replica state %v, want %v", got, want)
	}
	// Post-checkpoint commits land in the WAL and survive a restart.
	more := driveMixedLoad(t, addr1, 2)
	want = snapshotKeys(t, addr1, more)
	s1.Close()

	s2, addr2 := startDurableServer(t, cfg)
	defer s2.Close()
	if got := snapshotKeys(t, addr2, more); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-checkpoint recovery state %v, want %v", got, want)
	}
}

// TestSnapBootstrapEquivalence is the bootstrap oracle: replica A joins
// the empty primary (its snapshot is empty, so it streams the whole log
// from position 1), replica B joins after load via SNAP; both must
// converge to identical stores, and the SNAP joiner must never have
// requested parts below its snapshot position.
func TestSnapBootstrapEquivalence(t *testing.T) {
	pri, priAddr := startServer(t, Config{Shards: 4, Repl: ReplOptions{Primary: true}})

	// Replica A: every part from position 1.
	repA, addrA := startServer(t, Config{Shards: 4, ReplicaOf: priAddr})
	keys := driveMixedLoad(t, priAddr, 8)

	// More load lands after A subscribed, before B joins.
	driveMixedLoad(t, priAddr, 4)

	// Replica B: SNAP bootstrap, subscribed only above the snapshot.
	repB, addrB := startServer(t, Config{Shards: 4, ReplicaOf: priAddr})

	// B's applied position starts at its snapshot position — strictly
	// positive, since the load ran — and never regresses.
	snapPos, _ := repB.Replica().Position()

	// Final writes both replicas must stream.
	driveMixedLoad(t, priAddr, 2)
	waitCaughtUp(t, pri, repA)
	waitCaughtUp(t, pri, repB)

	stateA := snapshotKeys(t, addrA, keys)
	stateB := snapshotKeys(t, addrB, keys)
	statePri := snapshotKeys(t, priAddr, keys)
	if fmt.Sprint(stateA) != fmt.Sprint(statePri) {
		t.Fatalf("replay replica %v != primary %v", stateA, statePri)
	}
	if fmt.Sprint(stateB) != fmt.Sprint(statePri) {
		t.Fatalf("SNAP replica %v != primary %v", stateB, statePri)
	}

	// The log-replay oracle: independently replaying the primary's full
	// log reproduces what both replicas serve (positions dense from 1).
	replay := make(map[string]string)
	recs, _, err := pri.Feed().Log().From(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Index != uint64(i+1) {
			t.Fatalf("log not dense at %d", rec.Index)
		}
		for k, v := range rec.Writes {
			replay[k] = string(v)
		}
	}
	for _, k := range keys {
		if replay[k] != strconv.FormatInt(stateB[k], 10) {
			t.Fatalf("oracle replay of %s = %s, SNAP replica serves %d", k, replay[k], stateB[k])
		}
	}

	// Acceptance: the SNAP joiner's first requested part was snapPos+1 —
	// its applied position can never have been observed below the
	// snapshot, and the snapshot covered the pre-join load.
	if final, _ := repB.Replica().Position(); final < snapPos {
		t.Fatalf("applied regressed below snapshot: %d < %d", final, snapPos)
	}
	if snapPos == 0 {
		t.Fatal("SNAP bootstrap installed nothing; equivalence test degenerated to full replay")
	}
}

// TestSnapVerbErrors pins the SNAP error surface.
func TestSnapVerbErrors(t *testing.T) {
	_, priAddr := startServer(t, Config{Shards: 2, Repl: ReplOptions{Primary: true}})
	rc := dialRaw(t, priAddr)
	for in, wantPrefix := range map[string]string{
		"SNAP x":     "ERR usage: SNAP",
		"SNAP 0":     "ERR usage: SNAP",
		"REQ 1 SNAP": "RES 1 ERR SNAP requires bare framing",
	} {
		rc.send(in)
		if got := rc.recv(); !strings.HasPrefix(got, wantPrefix) {
			t.Errorf("%q -> %q, want prefix %q", in, got, wantPrefix)
		}
	}
	// SNAP of an empty store: a bare header (position, commit epoch, pair
	// count), zero pairs, no SNAPKV lines (the next reply arrives
	// immediately after).
	rc.send("SNAP")
	if got := rc.recv(); got != "OK 0 0 0" {
		t.Errorf("SNAP of empty store = %q, want OK 0 0 0", got)
	}
	rc.send("PING")
	if got := rc.recv(); got != "OK pong" {
		t.Errorf("connection unusable after empty SNAP: %q", got)
	}

	_, plainAddr := startServer(t, Config{Shards: 2})
	pc := dialRaw(t, plainAddr)
	pc.send("SNAP")
	if got := pc.recv(); got != "ERR not a replication primary" {
		t.Errorf("SNAP on non-primary -> %q", got)
	}
}

// TestRetentionTrimsWithoutDurability: a pure in-memory primary with a
// small retention window trims below the min acked position as its
// replica acks, without any data directory.
func TestRetentionTrimsWithoutDurability(t *testing.T) {
	pri, priAddr := startServer(t, Config{Shards: 1, Repl: ReplOptions{Primary: true}})
	pri.Feed().Log().SetRetention(4)
	rep, _ := startServer(t, Config{Shards: 1, ReplicaOf: priAddr})

	c, err := client.DialMux(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := c.Add("rk", 1); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, pri, rep)
	log := pri.Feed().Log()
	deadline := time.Now().Add(10 * time.Second)
	for log.Base() < n-4 {
		if time.Now().After(deadline) {
			t.Fatalf("retention trim never caught up: base=%d head=%d trimmed=%d", log.Base(), log.Head(), log.Trimmed())
		}
		// Acks race the check; one more commit re-runs auto-trim.
		if _, err := c.Add("rk", 0); err != nil {
			t.Fatal(err)
		}
		waitCaughtUp(t, pri, rep)
		time.Sleep(time.Millisecond)
	}
	if log.Trimmed() == 0 {
		t.Fatal("log_trimmed stayed 0 despite retention and acks")
	}
}

// TestDurableReplicaResumesWithoutReSnap is the regression test for the
// restart bug: a durable replica recorded its own commit-log indices, but
// a snapshot installs as ONE local record, so local and primary numbering
// diverge and every restart re-SNAPped. A durable replica persists the
// primary's position in <data-dir>/replica.resume, and a restart must
// resume the stream — zero snapshot fetches — and still converge.
func TestDurableReplicaResumesWithoutReSnap(t *testing.T) {
	priDir, repDir := t.TempDir(), t.TempDir()
	pri, priAddr := startDurableServer(t, Config{
		Shards:  4,
		Repl:    ReplOptions{Primary: true},
		Durable: durable.Options{Dir: priDir},
	})
	defer pri.Close()
	keys := driveMixedLoad(t, priAddr, 6)

	repCfg := Config{Shards: 4, ReplicaOf: priAddr, Durable: durable.Options{Dir: repDir}}
	rep1, _ := startDurableServer(t, repCfg)
	// First start over an empty directory: snapshot bootstrap, no resume.
	if m := rep1.met; m.replSnapshots.Value() == 0 || m.replResumes.Value() != 0 {
		t.Fatalf("fresh start: snapshots=%d resumes=%d, want snapshots>0 resumes=0",
			m.replSnapshots.Value(), m.replResumes.Value())
	}
	waitCaughtUp(t, pri, rep1)
	rep1.Close()

	// The primary moves on while the replica is down.
	driveMixedLoad(t, priAddr, 3)

	// Restart over the same directory: the stream must resume from the
	// persisted primary position, with no snapshot fetch at all.
	rep2, repAddr2 := startDurableServer(t, repCfg)
	defer rep2.Close()
	if rep2.met.replResumes.Value() == 0 {
		t.Fatal("restart did not resume from the persisted position")
	}
	if n := rep2.met.replSnapshots.Value(); n != 0 {
		t.Fatalf("restart fetched %d snapshots, want 0 (the re-SNAP bug)", n)
	}
	waitCaughtUp(t, pri, rep2)
	want := snapshotKeys(t, priAddr, keys)
	if got := snapshotKeys(t, repAddr2, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("resumed replica state %v, want %v", got, want)
	}
}

// TestDurableReplicaResumeAtZeroSnapshots: a resume file at position 0 —
// what a replica of an empty primary persists right after its bootstrap
// — resumes the stream and still SNAPs, and the server counts both.
func TestDurableReplicaResumeAtZeroSnapshots(t *testing.T) {
	priDir, repDir := t.TempDir(), t.TempDir()
	pri, priAddr := startDurableServer(t, Config{
		Shards:  2,
		Repl:    ReplOptions{Primary: true},
		Durable: durable.Options{Dir: priDir},
	})
	defer pri.Close()
	keys := driveMixedLoad(t, priAddr, 2)
	if err := os.WriteFile(filepath.Join(repDir, "replica.resume"), []byte("v3 0 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, repAddr := startDurableServer(t, Config{Shards: 2, ReplicaOf: priAddr, Durable: durable.Options{Dir: repDir}})
	defer rep.Close()
	if m := rep.met; m.replResumes.Value() != 1 || m.replSnapshots.Value() != 1 {
		t.Fatalf("resume at 0: resumes=%d snapshots=%d, want 1 and 1",
			m.replResumes.Value(), m.replSnapshots.Value())
	}
	waitCaughtUp(t, pri, rep)
	want := snapshotKeys(t, priAddr, keys)
	if got := snapshotKeys(t, repAddr, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica state %v, want %v", got, want)
	}
}

// TestDurableReplicaResumeFallsBackToSnapshot: when the primary has
// trimmed its log past the persisted resume point, the resumed
// subscription is refused and the replica must fall back to a fresh
// snapshot bootstrap instead of failing.
func TestDurableReplicaResumeFallsBackToSnapshot(t *testing.T) {
	priDir, repDir := t.TempDir(), t.TempDir()
	pri, priAddr := startDurableServer(t, Config{
		Shards:  2,
		Repl:    ReplOptions{Primary: true},
		Durable: durable.Options{Dir: priDir},
	})
	defer pri.Close()
	// A zero retention window: once the replica is gone, the log keeps
	// nothing it does not owe a subscriber.
	pri.Feed().Log().SetRetention(0)
	keys := driveMixedLoad(t, priAddr, 4)

	repCfg := Config{Shards: 2, ReplicaOf: priAddr, Durable: durable.Options{Dir: repDir}}
	rep1, _ := startDurableServer(t, repCfg)
	waitCaughtUp(t, pri, rep1)
	rep1.Close()

	// With the replica gone, more load trims the whole log: the persisted
	// resume point now asks for discarded parts.
	driveMixedLoad(t, priAddr, 2)
	if _, err := pri.Durable().CheckpointAll(); err != nil {
		t.Fatal(err)
	}

	rep2, repAddr2 := startDurableServer(t, repCfg)
	defer rep2.Close()
	if rep2.met.replSnapshots.Value() == 0 {
		t.Fatal("trimmed-log restart did not fall back to snapshot bootstrap")
	}
	waitCaughtUp(t, pri, rep2)
	want := snapshotKeys(t, priAddr, keys)
	if got := snapshotKeys(t, repAddr2, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fallback replica state %v, want %v", got, want)
	}
}
