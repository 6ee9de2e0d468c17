// Tests of the interactive transaction sessions (TXN wire verbs and the
// Go client's Txn/Do API): protocol conformance, the acceptance check
// that SCC speculation really spans client round trips (a shadow forked
// and promoted between TXN R and TXN COMMIT), single-shard-to-cross-
// shard fallback, value-cognizant session reaping, replica behavior,
// and a history-oracle serializability replay of concurrent interactive
// transactions.
package server

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/server/client"
)

// validWireTxnID reports whether id is a well-formed TXN wire id with
// the expected numeric sequence: "<seq>-" followed by 16 lowercase hex
// digits of capability token.
func validWireTxnID(id string, wantSeq int) bool {
	num, token, ok := strings.Cut(id, "-")
	if !ok || num != fmt.Sprint(wantSeq) || len(token) != 16 {
		return false
	}
	for _, c := range token {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TestTxnProtocolConformance drives the TXN state machine over a raw
// connection: happy paths (including two interleaved sessions on one
// connection), the whole error surface, and the post-finish rules (ops
// after abort, double commit).
func TestTxnProtocolConformance(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4})
	rc := dialRaw(t, addr)

	exact := func(in, want string) {
		t.Helper()
		rc.send(in)
		if got := rc.recv(); got != want {
			t.Errorf("%-40q -> %q, want %q", in, got, want)
		}
	}
	// begin starts a session and returns its wire id, checking that the
	// id is "<seq>-<token>": the numeric table key (sequential from 1 on
	// a fresh server) plus a 16-hex-digit capability token.
	begin := func(args string, wantSeq int) string {
		t.Helper()
		line := "TXN BEGIN"
		if args != "" {
			line += " " + args
		}
		rc.send(line)
		got := rc.recv()
		id, ok := strings.CutPrefix(got, "OK ")
		if !ok || !validWireTxnID(id, wantSeq) {
			t.Fatalf("%q -> %q, want OK %d-<16 hex>", line, got, wantSeq)
		}
		return id
	}

	// Two sessions interleaved on one connection.
	id1 := begin("", 1)
	id2 := begin("v=2 dl=50", 2)
	exact("TXN R "+id1+" a", "OK 0") // missing key reads 0
	exact("TXN W "+id1+" a 5", "OK 5")
	exact("TXN W "+id2+" b =7", "OK 7") // blind write
	exact("TXN R "+id2+" b", "OK 7")    // read-your-writes
	exact("GET a", "NIL")               // uncommitted writes are invisible
	exact("GET b", "NIL")
	exact("TXN R "+id2+" a", "OK 0") // isolation: 1's uncommitted write invisible to 2
	exact("TXN COMMIT "+id1, "OK 5")
	exact("GET a", "OK 5")
	exact("TXN COMMIT "+id2, "OK 7")
	exact("GET b", "OK 7")

	// Finished sessions are gone; their ids draw no-such-txn.
	exact("TXN COMMIT "+id1, "ERR no such txn "+id1)
	exact("TXN R "+id2+" a", "ERR no such txn "+id2)

	// ABORT discards everything.
	id3 := begin("", 3)
	exact("TXN W "+id3+" gone 9", "OK 9")
	exact("TXN ABORT "+id3, "OK")
	exact("GET gone", "NIL")
	exact("TXN W "+id3+" gone 9", "ERR no such txn "+id3)

	// An empty transaction commits trivially.
	id4 := begin("", 4)
	exact("TXN COMMIT "+id4, "OK")

	// TXN works identically under REQ framing (single-line replies).
	rc.send("REQ q1 TXN BEGIN")
	got := rc.recv()
	id5, ok := strings.CutPrefix(got, "RES q1 OK ")
	if !ok || !validWireTxnID(id5, 5) {
		t.Fatalf("REQ-framed BEGIN -> %q", got)
	}
	rc.send("REQ q2 TXN COMMIT " + id5)
	if got := rc.recv(); got != "RES q2 OK" {
		t.Errorf("REQ-framed COMMIT -> %q", got)
	}

	// Error surface. Session 6 exists for the argument checks; probes
	// that reach past the session lookup must present its full wire id
	// (the bare numeric prefix is no longer a credential).
	id6 := begin("", 6)
	for in, want := range map[string]string{
		"TXN":                          "ERR usage: TXN BEGIN|R|W|COMMIT|ABORT ...",
		"TXN R":                        "ERR usage: TXN R <id> ...",
		"TXN R abc k":                  "ERR bad txn id abc",
		"TXN R 99 k":                   "ERR no such txn 99",
		"TXN R 6 k":                    "ERR no such txn 6", // live id without its token
		"TXN R 6-deadbeefdeadbeef k":   "ERR no such txn 6-deadbeefdeadbeef",
		"TXN R " + id6:                 "ERR usage: TXN R <id> <key>",
		"TXN R " + id6 + " a:b":        "ERR bad key a:b",
		"TXN W " + id6 + " k":          "ERR usage: TXN W <id> <key> <delta|=val>",
		"TXN W " + id6 + " k 1.5":      "ERR bad delta 1.5",
		"TXN W " + id6 + " k =":        "ERR bad delta =",
		"TXN W " + id6 + " a:b 1":      "ERR bad key a:b",
		"TXN COMMIT " + id6 + " extra": "ERR usage: TXN COMMIT <id>",
		"TXN ABORT " + id6 + " extra":  "ERR usage: TXN ABORT <id>",
		"TXN NOSUCH " + id6:            "ERR unknown TXN subverb NOSUCH",
		"TXN BEGIN v=NaN":              "ERR bad v=",
		"TXN BEGIN dl=1e309":           "ERR bad dl=",
		"TXN BEGIN grad=-Inf":          "ERR bad grad=",
		"TXN BEGIN hello":              "ERR bad token hello",
	} {
		rc.send(in)
		if got := rc.recv(); got != want {
			t.Errorf("%-24q -> %q, want %q", in, got, want)
		}
	}
	exact("TXN ABORT "+id6, "OK")

	// A traced session's COMMIT carries its timeline after the results.
	id7 := begin("trace=1", 7)
	exact("TXN W "+id7+" tr 1", "OK 1")
	rc.send("TXN COMMIT " + id7)
	if got := rc.recv(); !strings.HasPrefix(got, "OK 1 trace=enqueue:") {
		t.Errorf("traced COMMIT -> %q, want OK 1 trace=enqueue:...", got)
	}

	// The connection survived the whole barrage.
	exact("PING", "OK pong")
}

// TestTxnSpeculationAcrossRoundTrips is the acceptance check for the
// session redesign: an interactive transaction begun over TCP observes
// SCC speculation across its round trips. Session A reads x; a
// conflicting one-shot write commits between A's round trips, aborting
// A's optimistic shadow and forking a speculative shadow parked at the
// read; A's next op and COMMIT are then served by the promoted shadow,
// which observed the fresh value — no from-scratch client-visible
// restart, exactly the paper's Sec. 2 mechanism.
func TestTxnSpeculationAcrossRoundTrips(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 1, Mode: engine.SCC2S})
	a, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	tx, err := a.Begin(client.TxOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// A's live optimistic shadow reads x = 0 and records the version.
	if n, err := tx.Get("x"); err != nil || n != 0 {
		t.Fatalf("Get(x) = %d, %v", n, err)
	}

	// B commits a conflicting write while A is "thinking". B's Set forks
	// a speculative shadow for A (Write Rule), parked at A's read of x;
	// B's commit then aborts A's optimistic shadow and opens the gate.
	if _, err := b.Update([]client.Op{{Key: "x", Delta: 5, Write: true}}, client.TxOpts{}); err != nil {
		t.Fatal(err)
	}
	st := srv.Store().Stats()
	if st.Engine.Forks < 1 {
		t.Fatalf("no speculative shadow forked for the parked session (forks=%d)", st.Engine.Forks)
	}
	if st.Engine.Aborts < 1 {
		t.Fatalf("optimistic shadow not aborted by the conflicting commit (aborts=%d)", st.Engine.Aborts)
	}

	// A's next round trip is served by the woken speculative shadow,
	// which re-read the fresh x=5.
	if n, err := tx.Add("x", 1); err != nil || n != 6 {
		t.Fatalf("Add(x,1) = %d, %v (want 6: the shadow observed the fresh value)", n, err)
	}
	res, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != 6 {
		t.Fatalf("Commit results = %v, want [6]", res)
	}
	st = srv.Store().Stats()
	if st.Engine.Promotions < 1 {
		t.Fatalf("the transaction did not commit through a promoted shadow (promotions=%d)", st.Engine.Promotions)
	}
	if n, ok, err := a.Get("x"); err != nil || !ok || n != 6 {
		t.Fatalf("final x = %d, %v, %v", n, ok, err)
	}
}

// TestTxnCrossShardFallback: a session whose ops outgrow the bound shard
// falls back to deferred cross-shard execution transparently — results
// stay coherent, COMMIT goes through the cross-shard path, and the
// balanced deltas conserve.
func TestTxnCrossShardFallback(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 8})
	store := srv.Store()
	k1 := "fb-a"
	k2 := ""
	for i := 0; i < 10000 && k2 == ""; i++ {
		k := fmt.Sprintf("fb-b%d", i)
		if store.ShardOf(k) != store.ShardOf(k1) {
			k2 = k
		}
	}
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tx, err := c.Begin(client.TxOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tx.Add(k1, 3); err != nil || n != 3 {
		t.Fatalf("Add(%s) = %d, %v", k1, n, err)
	}
	// k2 routes off the bound shard: live -> deferred fallback.
	if n, err := tx.Add(k2, -3); err != nil || n != -3 {
		t.Fatalf("Add(%s) = %d, %v", k2, n, err)
	}
	// Read-your-writes survives the fallback.
	if n, err := tx.Get(k1); err != nil || n != 3 {
		t.Fatalf("Get(%s) after fallback = %d, %v", k1, n, err)
	}
	res, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] != 3 || res[1] != -3 {
		t.Fatalf("Commit results = %v, want [3 -3]", res)
	}
	if sum, err := c.Sum(k1, k2); err != nil || sum != 0 {
		t.Fatalf("Sum = %d, %v", sum, err)
	}
	if st := store.Stats(); st.CrossCommits < 1 {
		t.Errorf("fallback commit did not use the cross-shard path (cross=%d)", st.CrossCommits)
	}
}

// TestTxnReap: a session whose value function crosses zero while it sits
// idle is shed by its reap timer — later verbs on it answer SHED, the slot
// is returned, and txn_reaped counts it.
func TestTxnReap(t *testing.T) {
	srv, addr := startServer(t, Config{
		Shards:  2,
		txnIdle: -1,
	})
	rc := dialRaw(t, addr)

	// Zero-crossing ~50ms after BEGIN: the reap lands at the crossing, so
	// the margin is what lets the TXN W below land first on a loaded host.
	rc.send("TXN BEGIN v=1e-6 dl=50 grad=1e9")
	got := rc.recv()
	id, ok := strings.CutPrefix(got, "OK ")
	if !ok || !validWireTxnID(id, 1) {
		t.Fatalf("BEGIN -> %q", got)
	}
	rc.send("TXN W " + id + " r-x 5")
	if got := rc.recv(); got != "OK 5" {
		t.Fatalf("W -> %q", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.met.txnReaped.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never reaped past its zero-crossing")
		}
		time.Sleep(time.Millisecond)
	}
	// SHED is answered by numeric tombstone — even without the token, so
	// a client that lost the reply still learns its session's fate.
	for _, verb := range []string{"TXN R " + id + " r-x", "TXN W " + id + " r-x 1", "TXN COMMIT " + id, "TXN ABORT " + id, "TXN COMMIT 1"} {
		rc.send(verb)
		if got := rc.recv(); got != "SHED" {
			t.Errorf("%q on reaped session -> %q, want SHED", verb, got)
		}
	}
	// Nothing committed; the write is gone.
	rc.send("GET r-x")
	if got := rc.recv(); got != "NIL" {
		t.Errorf("GET after reap -> %q", got)
	}
	rc.send("STATS")
	if got := rc.recv(); !strings.Contains(got, "txn_reaped=1") || !strings.Contains(got, "txn_active=0") {
		t.Errorf("STATS after reap = %q", got)
	}
	// The reaped session's admission slot was returned: new work admits.
	rc.send("TXN BEGIN")
	got = rc.recv()
	id2, ok := strings.CutPrefix(got, "OK ")
	if !ok || !validWireTxnID(id2, 2) {
		t.Errorf("BEGIN after reap -> %q", got)
	}
	rc.send("TXN ABORT " + id2)
	rc.recv()
}

// TestTxnIdleReap: the idle cap reaps an abandoned session even though
// its value function never declines.
func TestTxnIdleReap(t *testing.T) {
	srv, addr := startServer(t, Config{
		Shards:  2,
		txnIdle: 20 * time.Millisecond,
	})
	rc := dialRaw(t, addr)
	rc.send("TXN BEGIN") // no deadline: only the idle cap can reap it
	got := rc.recv()
	id, ok := strings.CutPrefix(got, "OK ")
	if !ok || !validWireTxnID(id, 1) {
		t.Fatalf("BEGIN -> %q", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.txnReaped.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never reaped")
		}
		time.Sleep(time.Millisecond)
	}
	rc.send("TXN COMMIT " + id)
	if got := rc.recv(); got != "SHED" {
		t.Errorf("COMMIT on idle-reaped session -> %q, want SHED", got)
	}
}

// waitReaped polls txn_reaped until it reaches n, failing after 5 s.
func waitReaped(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.txnReaped.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("txn_reaped = %d after 5s, want %d", srv.met.txnReaped.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTxnOpRenewsIdleCap: an op moves the idle deadline, and the timer
// armed for the old one re-arms instead of reaping. A session that sends
// an op every ~15 ms outlives its 40 ms cap several times over, then is
// reaped no sooner than the cap after its last op.
func TestTxnOpRenewsIdleCap(t *testing.T) {
	const idle = 40 * time.Millisecond
	srv, addr := startServer(t, Config{Shards: 2, txnIdle: idle})
	rc := dialRaw(t, addr)
	rc.send("TXN BEGIN") // no deadline: only the idle cap can reap it
	id, ok := strings.CutPrefix(rc.recv(), "OK ")
	if !ok {
		t.Fatal("BEGIN refused")
	}
	var last time.Time
	for start := time.Now(); time.Since(start) < 3*idle; time.Sleep(15 * time.Millisecond) {
		last = time.Now()
		rc.send("TXN R " + id + " renew-k")
		if got := rc.recv(); got != "OK 0" {
			t.Fatalf("op %v into the session -> %q, want OK 0", time.Since(start), got)
		}
	}
	if n := srv.met.txnReaped.Value(); n != 0 {
		t.Fatalf("txn_reaped = %d while ops kept arriving inside the idle cap", n)
	}
	waitReaped(t, srv, 1)
	if since := time.Since(last); since < idle {
		t.Errorf("reaped %v after its last op, want >= the %v idle cap", since, idle)
	}
}

// TestTxnReapNeverEarly: a session whose zero crossing is ~50 ms out
// answers its ops, and its timer does not reap it before the crossing.
func TestTxnReapNeverEarly(t *testing.T) {
	const crossing = 50 * time.Millisecond
	srv, addr := startServer(t, Config{Shards: 2, txnIdle: -1})
	rc := dialRaw(t, addr)
	begun := time.Now() // before the server's admission clock reads BEGIN
	rc.send("TXN BEGIN v=1e-6 dl=50 grad=1e9")
	id, ok := strings.CutPrefix(rc.recv(), "OK ")
	if !ok {
		t.Fatal("BEGIN refused")
	}
	for _, step := range []struct{ op, want string }{
		{"TXN W " + id + " early-k 2", "OK 2"},
		{"TXN R " + id + " early-k", "OK 2"},
		{"TXN W " + id + " early-k 3", "OK 5"},
	} {
		rc.send(step.op)
		if got := rc.recv(); got != step.want {
			t.Fatalf("%q before the crossing -> %q, want %q", step.op, got, step.want)
		}
	}
	waitReaped(t, srv, 1)
	if since := time.Since(begun); since < crossing {
		t.Errorf("reaped %v after BEGIN, before its %v zero crossing", since, crossing)
	}
}

// TestCloseStopsReapTimers: Close aborts a session whose crossing is an
// hour away promptly, and stops its timer — it never fires into the
// closed server.
func TestCloseStopsReapTimers(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2, txnIdle: -1})
	rc := dialRaw(t, addr)
	rc.send("TXN BEGIN v=1 dl=3600000 vf=cliff")
	id, ok := strings.CutPrefix(rc.recv(), "OK ")
	if !ok {
		t.Fatal("BEGIN refused")
	}
	rc.send("TXN W " + id + " close-k 1")
	if got := rc.recv(); got != "OK 1" {
		t.Fatalf("W -> %q", got)
	}
	sessions := srv.sessions.snapshot()
	if len(sessions) != 1 || sessions[0].timer == nil {
		t.Fatalf("want one session with an armed timer, have %d", len(sessions))
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close blocked behind a session an hour from its crossing")
	}
	if sessions[0].timer.Stop() {
		t.Error("the session's reap timer was still armed after Close")
	}
	if n := srv.met.txnReaped.Value(); n != 0 {
		t.Errorf("txn_reaped = %d after Close, want 0", n)
	}
}

// TestTxnSessionTokenAuth: the wire id BEGIN returns carries a random
// capability token, and it — not the guessable numeric prefix — is the
// credential. A second connection can operate on the session only by
// presenting the full id; a forged or missing token is indistinguishable
// from a session that never existed.
func TestTxnSessionTokenAuth(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	a := dialRaw(t, addr)
	b := dialRaw(t, addr)

	a.send("TXN BEGIN")
	got := a.recv()
	id, ok := strings.CutPrefix(got, "OK ")
	if !ok || !validWireTxnID(id, 1) {
		t.Fatalf("BEGIN -> %q", got)
	}
	a.send("TXN W " + id + " ta-k 5")
	if got := a.recv(); got != "OK 5" {
		t.Fatalf("W -> %q", got)
	}

	// Another connection guessing the numeric id — with no token, a
	// forged token, or a truncated one — is turned away.
	num, token, _ := strings.Cut(id, "-")
	for _, forged := range []string{num, num + "-0000000000000000", num + "-" + token[:15]} {
		b.send("TXN R " + forged + " ta-k")
		if got := b.recv(); got != "ERR no such txn "+forged {
			t.Errorf("forged id %q -> %q, want ERR no such txn", forged, got)
		}
	}
	// The uncommitted write stayed invisible and uncommitted.
	b.send("GET ta-k")
	if got := b.recv(); got != "NIL" {
		t.Errorf("GET during forgery attempts -> %q", got)
	}

	// The full wire id is a capability: a different connection holding it
	// operates the session (sessions are not connection-bound).
	b.send("TXN R " + id + " ta-k")
	if got := b.recv(); got != "OK 5" {
		t.Errorf("token-bearing cross-connection read -> %q, want OK 5", got)
	}
	b.send("TXN COMMIT " + id)
	if got := b.recv(); got != "OK 5" {
		t.Errorf("token-bearing cross-connection commit -> %q, want OK 5", got)
	}
	a.send("GET ta-k")
	if got := a.recv(); got != "OK 5" {
		t.Errorf("GET after commit -> %q", got)
	}
}

// TestTxnReplica: sessions on a read replica are read-only and priced by
// the lag gate at BEGIN — a session whose value function would cross
// zero before the replica's estimated catch-up is shed at the door.
func TestTxnReplica(t *testing.T) {
	// A tight lag budget so manufactured lag actually sheds.
	pri, priAddr, rep, repAddr := startReplicaPair(t, 4, 10*time.Millisecond)

	// Seed the primary and let the replica catch up.
	pc, err := client.DialMux(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Add("rt-k", 42); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pri, rep)

	c, err := client.DialMux(repAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx, err := c.Begin(client.TxOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tx.Get("rt-k"); err != nil || n != 42 {
		t.Fatalf("replica Get = %d, %v", n, err)
	}
	if _, err := tx.Add("rt-k", 1); err == nil || !strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("replica write err = %v, want read-only replica", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("read-only commit: %v", err)
	}

	// Manufacture hopeless lag: BEGIN with a tight value function sheds.
	rep.replGate().ObserveHead(1_000_000)
	_, err = c.Begin(client.TxOpts{Value: 1e-6, Deadline: time.Millisecond, Gradient: 1e9})
	if !errors.Is(err, client.ErrShed) {
		t.Fatalf("lagging BEGIN err = %v, want ErrShed", err)
	}
	// A patient session (no deadline) is still served from the snapshot.
	tx2, err := c.Begin(client.TxOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tx2.Get("rt-k"); err != nil || n != 42 {
		t.Fatalf("patient replica Get = %d, %v", n, err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnClientDo: the Do retry loop mirrors Store.Update — fn runs
// inside a session, a clean return commits, an error aborts.
func TestTxnClientDo(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4})
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Do(client.TxOpts{Value: 2}, func(tx *client.Txn) error {
		if _, err := tx.Add("do-a", 10); err != nil {
			return err
		}
		_, err := tx.Add("do-b", -10)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if sum, err := c.Sum("do-a", "do-b"); err != nil || sum != 0 {
		t.Fatalf("Sum = %d, %v", sum, err)
	}
	if n, ok, _ := c.Get("do-a"); !ok || n != 10 {
		t.Fatalf("do-a = %d, %v", n, ok)
	}

	// fn error aborts: nothing committed.
	boom := errors.New("boom")
	if err := c.Do(client.TxOpts{}, func(tx *client.Txn) error {
		if _, err := tx.Add("do-c", 1); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Do err = %v, want boom", err)
	}
	if _, ok, _ := c.Get("do-c"); ok {
		t.Fatal("aborted Do leaked a write")
	}

	// fn may commit explicitly to observe results; Do honors the verdict.
	var res []int64
	if err := c.Do(client.TxOpts{}, func(tx *client.Txn) error {
		if _, err := tx.Add("do-d", 7); err != nil {
			return err
		}
		var err error
		res, err = tx.Commit()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != 7 {
		t.Fatalf("explicit commit results = %v", res)
	}
}

// TestTxnDeadlineMapsToReap: TxOpts.Deadline given to Begin becomes the
// session's dl= on the wire, so the server's reap timer sheds the session
// once the deadline (plus the default post-deadline decline) has consumed
// its value. The crossing is short on purpose: it is what catches a reap
// timer armed after the session table unlocks.
func TestTxnDeadlineMapsToReap(t *testing.T) {
	srv, addr := startServer(t, Config{
		Shards:  2,
		txnIdle: -1,
	})
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Begin(client.TxOpts{Deadline: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Value 1, deadline ~20ms, default gradient => zero-crossing ~40ms.
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.txnReaped.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("deadline session never reaped: dl= was not mapped")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTxnInteractiveSerializableHistory replays concurrent interactive
// transactions through the history oracle, exactly like the pipelined
// one-shot test but with every transaction spanning three round trips
// (BEGIN, two writes, COMMIT) and many sessions interleaved per
// connection. Commit results are the committed execution's values, so
// the same cumulative-sum trick rebuilds read versions.
func TestTxnInteractiveSerializableHistory(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 8, Mode: engine.SCC2S})
	const (
		clients    = 4
		perSession = 2 // concurrent sessions per connection
		perWorker  = 15
		hotKeys    = 4
		gKey       = "txnseq"
	)

	var mu sync.Mutex
	var all []pobs
	var wg sync.WaitGroup
	for cI := 0; cI < clients; cI++ {
		m, err := client.DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for sI := 0; sI < perSession; sI++ {
			wg.Add(1)
			go func(cI, sI int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					hk := (cI*11 + sI*5 + i*3) % hotKeys
					var res []int64
					err := m.Do(client.TxOpts{Value: 1, Deadline: 10 * time.Second}, func(tx *client.Txn) error {
						if _, err := tx.Add(gKey, 1); err != nil {
							return err
						}
						if _, err := tx.Add(fmt.Sprintf("txnhot%d", hk), 1); err != nil {
							return err
						}
						var err error
						res, err = tx.Commit()
						return err
					})
					if err != nil {
						t.Errorf("worker %d.%d: %v", cI, sI, err)
						return
					}
					if len(res) != 2 {
						t.Errorf("worker %d.%d: results %v", cI, sI, res)
						return
					}
					mu.Lock()
					all = append(all, pobs{gval: res[0], hkey: hk, hval: res[1]})
					mu.Unlock()
				}
			}(cI, sI)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	want := clients * perSession * perWorker
	if len(all) != want {
		t.Fatalf("collected %d commits, want %d", len(all), want)
	}
	gPage := model.PageID(0)
	hPage := func(k int) model.PageID { return model.PageID(1 + k) }
	gWriter := make(map[int64]model.TxnID, len(all))
	hWriter := make(map[int]map[int64]model.TxnID, hotKeys)
	for i, o := range all {
		id := model.TxnID(i + 1)
		if _, dup := gWriter[o.gval]; dup {
			t.Fatalf("duplicate sequencer value %d: lost update", o.gval)
		}
		gWriter[o.gval] = id
		if hWriter[o.hkey] == nil {
			hWriter[o.hkey] = make(map[int64]model.TxnID)
		}
		if _, dup := hWriter[o.hkey][o.hval]; dup {
			t.Fatalf("duplicate hot%d value %d: lost update", o.hkey, o.hval)
		}
		hWriter[o.hkey][o.hval] = id
	}
	version := func(m map[int64]model.TxnID, preVal int64, what string) model.TxnID {
		if preVal == 0 {
			return 0
		}
		id, ok := m[preVal]
		if !ok {
			t.Fatalf("%s: observed pre-value %d produced by no committed transaction", what, preVal)
		}
		return id
	}
	var rec history.Recorder
	for i, o := range all {
		id := model.TxnID(i + 1)
		rec.Add(history.CommitRecord{
			ID:  id,
			Seq: int(o.gval),
			Reads: []model.ReadObs{
				{Page: gPage, Version: version(gWriter, o.gval-1, "txnseq")},
				{Page: hPage(o.hkey), Version: version(hWriter[o.hkey], o.hval-1, fmt.Sprintf("txnhot%d", o.hkey))},
			},
			Writes: []model.PageID{gPage, hPage(o.hkey)},
		})
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("interactive execution not serializable: %v", err)
	}
}

// TestCloseUnblocksSessions: Server.Close must not deadlock behind open
// sessions — a BEGIN queued behind session-held admission slots and an
// op parked on a live session are both unblocked by the teardown order
// (admission closed, sessions aborted, then handlers awaited).
func TestCloseUnblocksSessions(t *testing.T) {
	srv, addr := startServer(t, Config{
		Shards:    2,
		Admission: AdmissionConfig{MaxConcurrent: 1},
		txnIdle:   -1, // no idle cap: only Close can unwedge
	})
	c1, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// Session 1 takes the only admission slot and binds a live engine
	// transaction, then sits idle.
	tx, err := c1.Begin(client.TxOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Add("cu-k", 1); err != nil {
		t.Fatal(err)
	}
	// A second BEGIN queues behind the held slot.
	c2, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	beginDone := make(chan error, 1)
	go func() {
		_, err := c2.Begin(client.TxOpts{})
		beginDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the BEGIN reach the queue

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close deadlocked behind open sessions")
	}
	select {
	case err := <-beginDone:
		if !errors.Is(err, client.ErrShed) && err == nil {
			t.Errorf("queued BEGIN at shutdown = %v, want shed or connection error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued BEGIN never unblocked")
	}
}

// TestUPDMatchesTxn: the legacy one-shot UPD and an equivalent
// interactive session produce identical results — they share one
// executor. (Exact UPD reply bytes are pinned by the main conformance
// suite; this checks end-to-end equivalence of the two surfaces.)
func TestUPDMatchesTxn(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4})
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	updRes, err := c.Update([]client.Op{
		{Key: "eq-a", Delta: 4, Write: true},
		{Key: "eq-b"},
		{Key: "eq-c", Delta: -4, Write: true},
	}, client.TxOpts{Value: 3, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	tx, err := c.Begin(client.TxOpts{Value: 3, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Add("eq2-a", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("eq2-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Add("eq2-c", -4); err != nil {
		t.Fatal(err)
	}
	txnRes, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(updRes) != len(txnRes) || updRes[0] != txnRes[0] || updRes[1] != txnRes[1] {
		t.Fatalf("UPD results %v != TXN results %v", updRes, txnRes)
	}
}

// TestTxnSessionsNeverLoseAnAck is the serving-layer regression test for
// the engine's shadow hand-off: concurrent interactive sessions (read both
// accounts, think, move a balanced delta) and one-shot UPDs of the same
// transfers contend on 8 keys of one shard — so the sessions stay
// live-bound, with speculation spanning their round trips — under group
// commit, and a client-side ledger holds the server to its word. A
// transaction that was not answered OK must have installed nothing: each
// worker's private counter rides in its transactions and is re-read after
// every failure; and the acknowledged deltas must add up to exactly the
// stored balances. With the hand-off split across two critical sections,
// a transaction committed by a late-forked shadow was answered "engine:
// transaction exceeded 100 attempts" with its deltas installed (about one
// run in forty of this test; engine.TestHandOffNeverLosesACommit is the
// dense reproducer).
func TestTxnSessionsNeverLoseAnAck(t *testing.T) {
	const conns, perConn, rounds, hot = 2, 16, 100, 8
	// Oversubscribed Ps, as in the engine test: the OS preempting a driver
	// between critical sections is what the window needs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	srv, addr := startServer(t, Config{Shards: 16, Mode: engine.SCC2S})
	store := srv.Store()
	var keys []string // hot keys first, then one counter per worker, all co-located
	for i := 0; len(keys) < hot+conns*perConn; i++ {
		if k := fmt.Sprintf("ack%d", i); store.ShardOf(k) == store.ShardOf("ack0") {
			keys = append(keys, k)
		}
	}
	o := client.TxOpts{Value: 1, Deadline: 10 * time.Second}
	session := func(m *client.Mux, from, to, counter string, d int64) error {
		tx, err := m.Begin(o)
		if err != nil {
			return err
		}
		_, err = tx.Get(from)
		if err == nil {
			_, err = tx.Get(to)
		}
		if err == nil {
			time.Sleep(50 * time.Microsecond) // think time: the session sits open while others commit
			_, err = tx.Add(from, -d)
		}
		if err == nil {
			_, err = tx.Add(to, d)
		}
		if err == nil {
			_, err = tx.Add(counter, 1)
		}
		if err != nil {
			tx.Abort()
			return err
		}
		_, err = tx.Commit()
		return err
	}

	var acked [hot]atomic.Int64
	var wg sync.WaitGroup
	for cI := 0; cI < conns; cI++ {
		m, err := client.DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for wI := 0; wI < perConn; wI++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				counter, commits := keys[hot+w], int64(0)
				for i := 0; i < rounds; i++ {
					from := rng.Intn(hot)
					to := (from + 1 + rng.Intn(hot-1)) % hot
					d := int64(1 + rng.Intn(9))
					var err error
					if i%2 == 0 {
						err = session(m, keys[from], keys[to], counter, d)
					} else {
						// A one-shot writer resolves within microseconds, so a
						// shadow it forks for a session is not parked for long.
						_, err = m.Update([]client.Op{{Key: keys[from], Delta: -d, Write: true},
							{Key: keys[to], Delta: d, Write: true}, {Key: counter, Delta: 1, Write: true}}, o)
					}
					if err == nil {
						commits++
						acked[from].Add(-d)
						acked[to].Add(d)
						continue
					}
					if n, _, gerr := m.Get(counter); gerr != nil || n != commits {
						t.Errorf("worker %d round %d answered %q, yet its counter reads %d after %d acknowledged commits (%v): an installed commit was not acknowledged",
							w, i, err, n, commits, gerr)
						return
					}
				}
			}(cI*perConn + wI)
		}
	}
	wg.Wait()
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range acked {
		if n, _, err := c.Get(keys[i]); err != nil || n != acked[i].Load() {
			t.Errorf("%s = %d (%v), acknowledged deltas sum to %d", keys[i], n, err, acked[i].Load())
		}
	}
}

// pooledGoroutines returns the ids of the goroutines now inside an
// engine.Pool's worker loop, idle or busy.
func pooledGoroutines() map[string]bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := make(map[string]bool)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "engine.(*Pool).work(") {
			ids[strings.Fields(g)[1]] = true
		}
	}
	return ids
}

// TestSessionPoolsExitOnClose: session runs and speculative shadows run
// on pooled goroutines, and Server.Close returns only once every one of
// them has exited — those that finished and sit idle, and those still
// busy in a session the close aborts.
func TestSessionPoolsExitOnClose(t *testing.T) {
	before := pooledGoroutines()
	srv, addr := startServer(t, Config{Shards: 1, Mode: engine.SCC2S})
	a, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Churn: sessions over two hot keys from both connections start,
	// finish and reuse runs and shadows. A commit that loses its conflict
	// is part of the churn.
	var wg sync.WaitGroup
	for _, c := range []*client.Mux{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				tx, err := c.Begin(client.TxOpts{})
				if err != nil {
					t.Error(err)
					return
				}
				tx.Get("x")
				tx.Add("y", 1)
				tx.Add("x", 1)
				tx.Commit()
			}
		}()
	}
	wg.Wait()

	// A session left open at Close with a forked shadow, as in
	// TestTxnSpeculationAcrossRoundTrips: its run and its shadow are busy.
	tx, err := a.Begin(client.TxOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Update([]client.Op{{Key: "x", Delta: 5, Write: true}}, client.TxOpts{}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Store().Stats(); st.Engine.Forks < 1 {
		t.Fatalf("no shadow forked (forks=%d)", st.Engine.Forks)
	}
	now := pooledGoroutines()
	pooled := 0
	for id := range now {
		if !before[id] {
			pooled++
		}
	}
	if pooled < 2 {
		t.Fatalf("%d pooled goroutines with a session run and its shadow busy, want >= 2", pooled)
	}

	srv.Close()
	for id := range pooledGoroutines() {
		if !before[id] {
			t.Errorf("pooled goroutine %s outlived Server.Close", id)
		}
	}
}
