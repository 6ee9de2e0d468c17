// Tests of the reader's run-to-completion path: a REQ-framed request
// runs on its connection's reader (follower.read) and leaves it for a
// worker when it would wait (follower.handOff), so the reader never
// stops reading lines a waiting request depends on.
package server

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/server/opts"
)

// recvWithin reads n response lines from rc, failing the test if they
// do not all arrive within d: a reader wedged behind a waiting request
// shows up here as a timeout, not as a hang.
func recvWithin(t *testing.T, rc *rawConn, n int, d time.Duration) map[string]string {
	t.Helper()
	rc.c.SetReadDeadline(time.Now().Add(d))
	got := make(map[string]string, n)
	for len(got) < n {
		line, err := rc.r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d of %d responses in %v: %v (got %q)", len(got), n, d, err, got)
		}
		id, rest, _ := strings.Cut(strings.TrimPrefix(strings.TrimSpace(line), "RES "), " ")
		got[id] = rest
	}
	return got
}

// fillReaders dials idle connections until srv serves one per
// processor, the count from which its readers run requests before
// handing off, so the tests below run on any host.
func fillReaders(t *testing.T, srv *Server, addr string) {
	t.Helper()
	procs := int32(runtime.GOMAXPROCS(0))
	for range procs {
		dialRaw(t, addr)
	}
	for deadline := time.Now().Add(2 * time.Second); srv.served.Load() < procs; {
		if time.Now().After(deadline) {
			t.Fatalf("serving %d connections, want %d", srv.served.Load(), procs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInlineNeedsAConnectionPerProcessor: with fewer connections than
// processors, readers hand every REQ-framed request to a follower before
// running it, so workers can use the idle processors; from one
// connection per processor on, a UPD that does not wait runs on its
// reader.
func TestInlineNeedsAConnectionPerProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	srv, addr := startServer(t, Config{Shards: 4})
	rc := dialRaw(t, addr)
	rc.send("REQ a UPD w:k:1")
	if got := recvWithin(t, rc, 1, 2*time.Second); got["a"] != "OK 1" {
		t.Fatalf("UPD = %q, want a: OK 1", got)
	}
	if n := srv.met.requestsInline.Value(); n != 0 {
		t.Fatalf("req_inline = %d with one connection on two processors, want 0", n)
	}

	fillReaders(t, srv, addr)
	rc.send("REQ b UPD w:k:1")
	if got := recvWithin(t, rc, 1, 2*time.Second); got["b"] != "OK 2" {
		t.Fatalf("UPD = %q, want b: OK 2", got)
	}
	if n := srv.met.requestsInline.Value(); n != 1 {
		t.Fatalf("req_inline = %d with a connection per processor, want 1", n)
	}
}

// TestStatsCountInlineAndFlushes: pipelined single-shard UPDs on one
// connection are read, run and answered by its reader, and STATS counts
// each in req_inline; their replies are wire_responses, carried by at
// least one flush and at most one per reply.
func TestStatsCountInlineAndFlushes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	srv, addr := startServer(t, Config{Shards: 4})
	fillReaders(t, srv, addr)
	rc := dialRaw(t, addr)
	const n = 8
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("REQ u%d UPD w:k%d:1", i, i)
	}
	rc.send(strings.Join(lines, "\n"))
	for id, got := range recvWithin(t, rc, n, 2*time.Second) {
		if got != "OK 1" {
			t.Fatalf("UPD %s = %q, want OK 1", id, got)
		}
	}
	// wire_flushes moves just after the flush that carried the replies,
	// so the client may hold them a moment before it does.
	st := statsOf(srv)
	for deadline := time.Now().Add(5 * time.Second); st["wire_flushes"] == "0" && time.Now().Before(deadline); st = statsOf(srv) {
		time.Sleep(time.Millisecond)
	}
	if st["req_inline"] != fmt.Sprint(n) {
		t.Errorf("req_inline = %s after %d pipelined single-shard UPDs, want %d", st["req_inline"], n, n)
	}
	responses, _ := strconv.Atoi(st["wire_responses"])
	flushes, _ := strconv.Atoi(st["wire_flushes"])
	if responses != n || flushes < 1 || flushes > responses {
		t.Errorf("wire_responses = %d, wire_flushes = %d; want %d responses in 1..%d flushes", responses, flushes, n, n)
	}
}

// TestInlineNeverWaitsOnItsOwnConnection: a UPD that the engine defers
// for a higher-value session's commit must not wait on the reader of the
// connection that will carry that commit. The session blind-writes k
// while live on k's shard; the UPD reads k, so the engine's Termination
// Rule (deferForValue) holds it until the session resolves — and the
// session's TXN COMMIT is the next line on the same connection.
func TestInlineNeverWaitsOnItsOwnConnection(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 4})
	fillReaders(t, srv, addr)
	rc := dialRaw(t, addr)

	rc.send("REQ b TXN BEGIN v=100")
	id := strings.TrimPrefix(rc.recv(), "RES b OK ")
	rc.send("REQ w TXN W " + id + " k =5")
	if got := rc.recv(); got != "RES w OK 5" {
		t.Fatalf("TXN W = %q, want RES w OK 5", got)
	}

	rc.send("REQ u UPD w:k:+1 v=10")
	for deadline := time.Now().Add(2 * time.Second); srv.Store().Stats().Engine.Deferrals == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the UPD was never deferred for the session")
		}
		time.Sleep(time.Millisecond)
	}
	rc.send("REQ c TXN COMMIT " + id)
	got := recvWithin(t, rc, 2, 2*time.Second)
	if got["c"] != "OK 5" || got["u"] != "OK 6" {
		t.Fatalf("responses = %q, want c: OK 5 and u: OK 6", got)
	}
	if n := srv.met.requestsInline.Value(); n != 0 {
		t.Fatalf("req_inline = %d while this connection's session was live, want 0", n)
	}
}

// TestInlineNeverWaitsOnAnotherConnection: a UPD deferred for a live
// session on another connection waits off its reader. A v=100 session
// on one connection reads k; a fresh connection that never carried TXN
// sends a UPD on k, which the engine defers for the session's commit,
// then a PING. Were the UPD waiting on its reader, the PING would wait
// out the session's think time.
func TestInlineNeverWaitsOnAnotherConnection(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 4})
	fillReaders(t, srv, addr)
	sess := dialRaw(t, addr)
	sess.send("TXN BEGIN v=100")
	id := strings.TrimPrefix(sess.recv(), "OK ")
	sess.send("TXN R " + id + " k")
	if got := sess.recv(); got != "OK 0" {
		t.Fatalf("TXN R = %q, want OK 0", got)
	}

	rc := dialRaw(t, addr)
	rc.send("REQ u UPD w:k:+1 v=1")
	for deadline := time.Now().Add(2 * time.Second); srv.Store().Stats().Engine.Deferrals == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the UPD was never deferred for the session")
		}
		time.Sleep(time.Millisecond)
	}
	rc.send("REQ p PING")
	if got := recvWithin(t, rc, 1, 2*time.Second); got["p"] != "OK pong" {
		t.Fatalf("first response = %q, want p: OK pong", got)
	}

	sess.send("TXN COMMIT " + id)
	if got := sess.recv(); got != "OK" {
		t.Fatalf("TXN COMMIT = %q, want OK", got)
	}
	if got := recvWithin(t, rc, 1, 2*time.Second); got["u"] != "OK 1" {
		t.Fatalf("deferred UPD = %q, want u: OK 1", got)
	}
	if n := srv.met.requestsInline.Value(); n != 0 {
		t.Fatalf("req_inline = %d while a session was live, want 0", n)
	}

	rc.send("REQ v UPD w:k:+1")
	if got := recvWithin(t, rc, 1, 2*time.Second); got["v"] != "OK 2" {
		t.Fatalf("UPD after the session = %q, want v: OK 2", got)
	}
	if n := srv.met.requestsInline.Value(); n != 1 {
		t.Fatalf("req_inline = %d after a UPD with no session live, want 1", n)
	}
}

// TestInlineHeadOfLine: a UPD that must queue in admission waits on a
// worker, not on the reader, so a PING sent after it is answered first;
// once the slot frees, the UPD commits. A later UPD on the same
// connection finds the slot free and runs on the reader. The only slot
// is held either by a session on another connection or by a bare
// admission grant.
func TestInlineHeadOfLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		hold func(t *testing.T, srv *Server, addr string) (release func())
	}{
		{"session", func(t *testing.T, _ *Server, addr string) func() {
			holder := dialRaw(t, addr)
			holder.send("TXN BEGIN v=5")
			id := strings.TrimPrefix(holder.recv(), "OK ")
			return func() {
				holder.send("TXN ABORT " + id)
				if got := holder.recv(); got != "OK" {
					t.Fatalf("TXN ABORT = %q, want OK", got)
				}
			}
		}},
		{"slot", func(t *testing.T, srv *Server, _ string) func() {
			if err := srv.Admission().Acquire(srv.Admission().FnOf(opts.T{}), 1); err != nil {
				t.Fatal(err)
			}
			return func() { srv.Admission().Release(0, 0) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, Config{Shards: 4, Admission: AdmissionConfig{MaxConcurrent: 1}})
			fillReaders(t, srv, addr)
			release := tc.hold(t, srv, addr)

			rc := dialRaw(t, addr)
			rc.send("REQ u UPD w:k:1")
			waitDepth(t, srv.Admission(), 1)
			rc.send("REQ p PING")
			if got := recvWithin(t, rc, 1, 2*time.Second); got["p"] != "OK pong" {
				t.Fatalf("first response = %q, want p: OK pong", got)
			}

			release()
			if got := recvWithin(t, rc, 1, 2*time.Second); got["u"] != "OK 1" {
				t.Fatalf("queued UPD = %q, want u: OK 1", got)
			}
			if n := srv.met.requestsInline.Value(); n != 0 {
				t.Fatalf("req_inline = %d after a queued UPD and a PING, want 0", n)
			}

			rc.send("REQ v UPD w:k:1")
			if got := recvWithin(t, rc, 1, 2*time.Second); got["v"] != "OK 2" {
				t.Fatalf("second UPD = %q, want v: OK 2", got)
			}
			if n := srv.met.requestsInline.Value(); n != 1 {
				t.Fatalf("req_inline = %d after a UPD on a free slot, want 1", n)
			}
		})
	}
}

// TestHandOffAtTheWait: every REQ-framed UPD starts on its reader, and
// only one that waits leaves it. A cross-shard UPD runs there in memory
// and over a WAL that never fsyncs; over a WAL that fsyncs each commit
// batch, its commit boundary waits on the device, so it hands the reader
// role off there and is answered from a worker.
func TestHandOffAtTheWait(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
		fsync   durable.FsyncPolicy
		inline  int64
	}{
		{"memory", false, 0, 1},
		{"fsync-off", true, durable.FsyncOff, 1},
		{"fsync-group", true, durable.FsyncGroup, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Shards: 4}
			if tc.durable {
				cfg.Durable = durable.Options{Dir: t.TempDir(), Fsync: tc.fsync}
			}
			srv, addr := startDurableServer(t, cfg)
			t.Cleanup(srv.Close)
			fillReaders(t, srv, addr)
			a, b := "x0", "x1"
			for i := 2; srv.Store().ShardOf(a) == srv.Store().ShardOf(b); i++ {
				b = fmt.Sprintf("x%d", i)
			}
			rc := dialRaw(t, addr)
			rc.send("REQ u UPD w:" + a + ":1 w:" + b + ":-1")
			if got := recvWithin(t, rc, 1, 2*time.Second); got["u"] != "OK 1 -1" {
				t.Fatalf("cross-shard UPD = %q, want u: OK 1 -1", got)
			}
			if n := srv.met.requestsInline.Value(); n != tc.inline {
				t.Fatalf("req_inline = %d, want %d", n, tc.inline)
			}
		})
	}
}

// TestHandOffPoolFull: a hand-off never waits for a follower, even with
// pipelineDepth of its connection's requests unanswered. pipelineDepth
// UPDs on k are deferred behind a live v=100 session on another
// connection, each having handed off, so the pool is full. The next UPD,
// on another key of the only shard, would lead a flush over an fsyncing
// WAL and hand off before its sync; were it to wait there for a
// follower, the deferred UPDs, released by the session's commit, would
// queue behind that flush and none would be answered.
func TestHandOffPoolFull(t *testing.T) {
	srv, addr := startDurableServer(t, Config{
		Shards:    1,
		Admission: AdmissionConfig{MaxConcurrent: 2 * pipelineDepth},
		Durable:   durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncGroup},
	})
	// A wedged server cannot close; on failure the process reclaims it.
	t.Cleanup(func() {
		if !t.Failed() {
			srv.Close()
		}
	})
	fillReaders(t, srv, addr)
	sess := dialRaw(t, addr)
	sess.send("TXN BEGIN v=100")
	id := strings.TrimPrefix(sess.recv(), "OK ")
	sess.send("TXN R " + id + " k")
	if got := sess.recv(); got != "OK 0" {
		t.Fatalf("TXN R = %q, want OK 0", got)
	}

	rc := dialRaw(t, addr)
	var lines strings.Builder
	for i := range pipelineDepth {
		fmt.Fprintf(&lines, "REQ u%d UPD w:k:+1 v=1\n", i)
	}
	if _, err := rc.c.Write([]byte(lines.String())); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Store().Stats().Engine.Deferrals < pipelineDepth; {
		if time.Now().After(deadline) {
			t.Fatalf("%d UPDs deferred for the session, want %d", srv.Store().Stats().Engine.Deferrals, pipelineDepth)
		}
		time.Sleep(time.Millisecond)
	}
	rc.send("REQ z UPD w:z:1")
	time.Sleep(50 * time.Millisecond)
	sess.send("TXN COMMIT " + id)
	if got := sess.recv(); got != "OK" {
		t.Fatalf("TXN COMMIT = %q, want OK", got)
	}
	got := recvWithin(t, rc, pipelineDepth+1, 10*time.Second)
	if got["z"] != "OK 1" {
		t.Fatalf("UPD z = %q, want OK 1", got["z"])
	}
	seen := make(map[string]bool, pipelineDepth)
	for i := range pipelineDepth {
		seen[got[fmt.Sprintf("u%d", i)]] = true
	}
	for n := 1; n <= pipelineDepth; n++ {
		if !seen[fmt.Sprintf("OK %d", n)] {
			t.Fatalf("no UPD on k answered OK %d: %q", n, got)
		}
	}
}
