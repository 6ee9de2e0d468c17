// Tests of the request ledger (request.go): value conservation across a
// slow admission, loss attribution parity between one-shot verbs and TXN
// sessions, and entry-fence parity.
package server

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/repl"
	"repro/internal/server/opts"
)

// valueLedger reads the three value families off a quiescent server:
// submitted, realized, and lost by reason.
func valueLedger(t *testing.T, srv *Server) (submitted, realized float64, lost map[string]float64) {
	t.Helper()
	var b strings.Builder
	srv.Metrics().Expose(&b)
	samples := parseExposition(t, b.String())
	lost = make(map[string]float64)
	for series, v := range samples {
		if rest, ok := strings.CutPrefix(series, `scc_value_lost_total{reason="`); ok {
			lost[strings.TrimSuffix(rest, `"}`)] = v
		}
	}
	return samples["scc_value_submitted_total"], samples["scc_value_realized_total"], lost
}

func sum(m map[string]float64) (total float64) {
	for _, v := range m {
		total += v
	}
	return total
}

// TestSessionLedgerSurvivesSlowAdmission: a session that waits in the
// admission queue past its deadline is granted with less value than it
// submitted. Whatever exit the session then takes — COMMIT, ABORT, the
// reap timer — must settle the value it *submitted*, not the value it was
// granted with, or the difference leaks out of the conservation
// invariant.
func TestSessionLedgerSurvivesSlowAdmission(t *testing.T) {
	for _, exit := range []string{"COMMIT", "ABORT", "reap"} {
		t.Run(exit, func(t *testing.T) {
			cfg := Config{Shards: 2, Admission: AdmissionConfig{MaxConcurrent: 1}}
			if exit == "reap" {
				cfg.txnIdle = 10 * time.Millisecond
			}
			srv, _ := startServer(t, cfg)
			// Hold the only slot so BEGIN queues.
			if err := srv.adm.Acquire(srv.adm.FnOf(opts.T{Value: 1}), 1); err != nil {
				t.Fatal(err)
			}
			begun := make(chan string, 1)
			// v=10 until 20ms, then 10/s: ~9.6 left at the grant below,
			// far from the zero-crossing.
			go func() { begun <- srv.dispatchLine("TXN BEGIN v=10 dl=20 grad=10") }()
			waitDepth(t, srv.adm, 1)
			time.Sleep(60 * time.Millisecond)
			srv.adm.Release(0, 0)
			id, ok := strings.CutPrefix(<-begun, "OK ")
			if !ok {
				t.Fatalf("BEGIN -> %q", id)
			}
			if exit == "reap" {
				deadline := time.Now().Add(5 * time.Second)
				for !strings.Contains(srv.dispatchLine("STATS"), " txn_reaped=1") {
					if time.Now().After(deadline) {
						t.Fatal("idle session never reaped")
					}
					time.Sleep(time.Millisecond)
				}
			} else if got := srv.dispatchLine("TXN " + exit + " " + id); got != "OK" {
				t.Fatalf("TXN %s -> %q", exit, got)
			}
			sub, real, lost := valueLedger(t, srv)
			if sub != 10 {
				t.Fatalf("submitted = %v, want the BEGIN's v=10", sub)
			}
			if diff := math.Abs(sub - (real + sum(lost))); diff > 1e-9 {
				t.Errorf("value leak after %s: submitted %v != realized %v + lost %v (diff %v)", exit, sub, real, lost, diff)
			}
			// The exit's reason carries every loss: the decay of a commit, the
			// whole submitted value of an abort or a reap.
			reason := map[string]string{"COMMIT": obs.LossSession, "ABORT": obs.LossClientAbort, "reap": obs.LossReap}[exit]
			if lost[reason] <= 0 || lost[reason] != sum(lost) || exit != "COMMIT" && lost[reason] != sub {
				t.Errorf("after %s: lost = %v, want it all under %s", exit, lost, reason)
			}
		})
	}
}

// TestSessionOpsCountsEveryExit: scc_txn_session_ops observes every
// session that ends — committed, aborted, or reaped by the idle cap.
func TestSessionOpsCountsEveryExit(t *testing.T) {
	srv, _ := startServer(t, Config{Shards: 2, txnIdle: 100 * time.Millisecond})
	for _, exit := range []string{"COMMIT", "ABORT", "reap"} {
		id := strings.TrimPrefix(srv.dispatchLine("TXN BEGIN"), "OK ")
		if got := srv.dispatchLine("TXN W " + id + " k 1"); !strings.HasPrefix(got, "OK") {
			t.Fatalf("TXN W -> %q", got)
		}
		if exit != "reap" {
			if got := srv.dispatchLine("TXN " + exit + " " + id); !strings.HasPrefix(got, "OK") {
				t.Fatalf("TXN %s -> %q", exit, got)
			}
			continue
		}
		for deadline := time.Now().Add(5 * time.Second); srv.met.txnReaped.Value() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("idle session never reaped")
			}
		}
	}
	var b strings.Builder
	srv.Metrics().Expose(&b)
	n := parseExposition(t, b.String())["scc_txn_session_ops_count"]
	if reaped := srv.met.txnReaped.Value(); n != 3 || reaped != 1 {
		t.Errorf("scc_txn_session_ops count = %v, txn_reaped = %d; want 3 sessions ended, 1 of them reaped", n, reaped)
	}
}

// TestRefusalsBookTheirReason: a request refused before it runs books
// its whole submitted value under the refusal's reason — a newcomer the
// full admission queue evicts under admission_shed, a read a lagging
// replica sheds under replica_lag.
func TestRefusalsBookTheirReason(t *testing.T) {
	t.Run(obs.LossAdmissionShed, func(t *testing.T) {
		srv, _ := startServer(t, Config{Shards: 1, Admission: AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1}})
		if err := srv.adm.Acquire(srv.adm.FnOf(opts.T{Value: 1}), 1); err != nil {
			t.Fatal(err)
		}
		queued := make(chan string, 1)
		go func() { queued <- srv.dispatchLine("UPD v=100 w:a:1") }()
		waitDepth(t, srv.adm, 1)
		if got := srv.dispatchLine("UPD v=2 w:b:1"); got != "SHED" {
			t.Fatalf("lower-value newcomer at a full queue = %q, want SHED", got)
		}
		srv.adm.Release(0, 0)
		if got := <-queued; got != "OK 1" {
			t.Fatalf("queued UPD = %q, want OK 1", got)
		}
		if _, _, lost := valueLedger(t, srv); lost[obs.LossAdmissionShed] != 2 {
			t.Errorf("lost = %v, want the shed UPD's v=2 under %s", lost, obs.LossAdmissionShed)
		}
	})
	t.Run(obs.LossReplicaLag, func(t *testing.T) {
		srv, _ := startServer(t, Config{Shards: 1})
		gate := repl.NewLagGate(10*time.Millisecond, time.Millisecond)
		gate.ObserveHead(10000)
		srv.gateP.Store(gate)
		if got := srv.dispatchLine("UPD v=2 dl=100 r:x"); got != "SHED" {
			t.Fatalf("doomed read on a lagging replica = %q, want SHED", got)
		}
		if _, _, lost := valueLedger(t, srv); lost[obs.LossReplicaLag] != 2 || sum(lost) != 2 {
			t.Errorf("lost = %v, want the shed read's v=2 under %s", lost, obs.LossReplicaLag)
		}
	})
}

// brokenLog is a commit log whose sync always fails: every commit that
// installs through it surfaces as a *engine.SyncError.
type brokenLog struct{}

func (brokenLog) AppendCommit(rec engine.CommitRecord) uint64 { return rec.Epoch }
func (brokenLog) Durable() bool                               { return true }
func (brokenLog) Sync() error                                 { return errors.New("disk on fire") }

// TestSyncErrorBooksWALErrorOnEveryVerb: a commit whose WAL sync failed
// is answered ERR and its value booked under wal_error, whichever verb
// carried it — UPD, a live session's TXN COMMIT, or a deferred
// (cross-shard) session's.
func TestSyncErrorBooksWALErrorOnEveryVerb(t *testing.T) {
	srv, _ := startServer(t, Config{Shards: 2})
	for i := 0; i < srv.store.NumShards(); i++ {
		srv.store.Shard(i).SetCommitLog(brokenLog{})
	}
	k0, k1 := "a", "b"
	for i := 0; srv.store.ShardOf(k1) == srv.store.ShardOf(k0); i++ {
		k1 = fmt.Sprint("b", i)
	}
	session := func(keys ...string) string {
		id := strings.TrimPrefix(srv.dispatchLine("TXN BEGIN v=3 dl=60000"), "OK ")
		for _, k := range keys {
			if got := srv.dispatchLine("TXN W " + id + " " + k + " 1"); !strings.HasPrefix(got, "OK") {
				t.Fatalf("TXN W %s -> %q", k, got)
			}
		}
		return srv.dispatchLine("TXN COMMIT " + id)
	}
	verbs := []struct {
		name string
		run  func() string
	}{
		{"UPD", func() string { return srv.dispatchLine("UPD v=3 dl=60000 w:" + k0 + ":1") }},
		{"TXN COMMIT live", func() string { return session(k0) }},
		{"TXN COMMIT deferred", func() string { return session(k0, k1) }},
	}
	for i, v := range verbs {
		if got := v.run(); !strings.HasPrefix(got, "ERR engine: commit not durable") {
			t.Fatalf("%s over a broken WAL -> %q, want the SyncError", v.name, got)
		}
		_, _, lost := valueLedger(t, srv)
		if want := 3 * float64(i+1); lost[obs.LossWALError] != want || sum(lost) != want {
			t.Errorf("after %s: lost = %v, want %v under %s and nothing else", v.name, lost, want, obs.LossWALError)
		}
	}
}

// TestLossAttributionParity: a failed verdict books the same reason
// label whether a one-shot verb or a TXN COMMIT carried it — finish
// classifies the error, not the reply text (which legitimately differs:
// sessions mark retryable conflicts).
func TestLossAttributionParity(t *testing.T) {
	srv, _ := startServer(t, Config{Shards: 2})
	cases := []struct {
		name           string
		err            error
		reason         string
		oneShot, inTxn string // replies
	}{
		{"conflict budget", fmt.Errorf("shard: cross-shard transaction: %w", &engine.AttemptsError{Attempts: 7}), obs.LossConflictAbort,
			"ERR shard: cross-shard transaction: engine: transaction exceeded 7 attempts",
			"ERR conflict: shard: cross-shard transaction: engine: transaction exceeded 7 attempts"},
		{"sync error", &engine.SyncError{Err: errors.New("boom")}, obs.LossWALError,
			"ERR engine: commit not durable: boom", "ERR engine: commit not durable: boom"},
		{"cross-shed", fmt.Errorf("retry 2: %w", ErrShed), obs.LossCrossShed, "SHED", "SHED"},
		{"plain error", errors.New("bad key"), obs.LossError, "ERR bad key", "ERR bad key"},
	}
	for _, c := range cases {
		for _, session := range []bool{false, true} {
			_, _, before := valueLedger(t, srv)
			r, refused := srv.lines.begin(opts.T{Value: 2}, 1, true, session, nil)
			if refused != "" {
				t.Fatalf("begin refused: %q", refused)
			}
			// A cross-shed surrendered its slot at readmission.
			if r.shed = errors.Is(c.err, ErrShed); r.shed {
				srv.adm.Release(0, 0)
			}
			want := c.oneShot
			if session {
				want = c.inTxn
			}
			if got := r.finish(nil, c.err); got != want {
				t.Errorf("%s (session=%v): reply %q, want %q", c.name, session, got, want)
			}
			_, _, after := valueLedger(t, srv)
			for reason, v := range after {
				moved := v - before[reason]
				if reason == c.reason && moved != 2 || reason != c.reason && moved != 0 {
					t.Errorf("%s (session=%v): lost{%s} moved by %v, want all of v=2 under %s", c.name, session, reason, moved, c.reason)
				}
			}
		}
	}
	if st := srv.adm.Stats(); st.InFlight != 0 {
		t.Errorf("%d admission slots leaked", st.InFlight)
	}
	sub, real, lost := valueLedger(t, srv)
	if sub != real+sum(lost) {
		t.Errorf("value leak: submitted %v != realized %v + lost %v", sub, real, lost)
	}
}

// TestSessionDecayBooksUnderSession: a committed session's decay between
// submit and commit lands in the documented reason="session" row, a
// one-shot's in reason="execution".
func TestSessionDecayBooksUnderSession(t *testing.T) {
	srv, _ := startServer(t, Config{Shards: 2})
	// Already past the deadline at submit, declining 1000/s: every
	// microsecond of service decays measurably.
	if got := srv.dispatchLine("UPD v=100 dl=0.000001 grad=1000 w:k:1"); got != "OK 1" {
		t.Fatalf("UPD -> %q", got)
	}
	_, _, lost := valueLedger(t, srv)
	if lost[obs.LossExecution] <= 0 || lost[obs.LossSession] != 0 {
		t.Errorf("one-shot decay booked %v, want it under %s", lost, obs.LossExecution)
	}
	oneShot := lost[obs.LossExecution]
	id := strings.TrimPrefix(srv.dispatchLine("TXN BEGIN v=100 dl=0.000001 grad=1000"), "OK ")
	if got := srv.dispatchLine("TXN COMMIT " + id); got != "OK" {
		t.Fatalf("TXN COMMIT -> %q", got)
	}
	_, _, lost = valueLedger(t, srv)
	if lost[obs.LossSession] <= 0 || lost[obs.LossExecution] != oneShot {
		t.Errorf("session decay booked %v, want it under %s", lost, obs.LossSession)
	}
}

// TestSessionWriteFenceRecordsReject: a TXN W on a clustered non-primary
// goes through the same entry fence as a one-shot write — same redirect,
// same fence_reject event in the flight ring.
func TestSessionWriteFenceRecordsReject(t *testing.T) {
	srv, _ := startServer(t, Config{Shards: 2, Repl: ReplOptions{Primary: true}, Cluster: ClusterConfig{Self: "127.0.0.1:0"}})
	id := strings.TrimPrefix(srv.dispatchLine("TXN BEGIN"), "OK ")
	srv.cluster.Observe(2, "127.0.0.1:9")
	rejects := func() (n int) {
		for _, e := range srv.flight.Snapshot() {
			if e.Name == flight.EvFenceReject {
				n++
			}
		}
		return n
	}
	for i, line := range []string{"ADD k 1", "TXN W " + id + " k 1"} {
		if got := srv.dispatchLine(line); got != "ERR not-primary 127.0.0.1:9" {
			t.Fatalf("%q on a deposed node -> %q", line, got)
		}
		if got := rejects(); got != i+1 {
			t.Errorf("after %q: %d fence_reject events, want %d", line, got, i+1)
		}
	}
}
