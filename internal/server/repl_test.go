// End-to-end replication tests: a primary and a replica server wired by
// a live REPL/ACK stream over loopback TCP, plus deterministic tests of
// the replica's lag accounting that inject state instead of sleeping.
package server

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/repl"
	"repro/internal/server/client"
	"repro/internal/shard"
)

// startReplicaPair starts a primary and a read replica streaming from
// it, the replica with the given lag budget.
func startReplicaPair(t *testing.T, shards int, lagBudget time.Duration) (pri *Server, priAddr string, rep *Server, repAddr string) {
	t.Helper()
	pri, priAddr = startServer(t, Config{Shards: shards, Repl: ReplOptions{Primary: true}})
	rep, repAddr = startServer(t, Config{Shards: shards, ReplicaOf: priAddr, lagBudget: lagBudget})
	return pri, priAddr, rep, repAddr
}

// waitCaughtUp blocks until the replica has applied every part the
// primary's feed holds (the feed must be quiescent by then).
func waitCaughtUp(t *testing.T, pri, rep *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		head := pri.Feed().Log().Head()
		pos, _ := rep.Replica().Position()
		if pos >= head {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: head=%d applied=%d", head, pos)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicationConverges drives a mixed (single- and cross-shard)
// write load into the primary and checks full convergence: every key
// agrees byte-for-byte, SUM agrees, an independent replay of the shipped
// log reproduces the replica's state, and ack bookkeeping is sane.
func TestReplicationConverges(t *testing.T) {
	pri, priAddr, rep, repAddr := startReplicaPair(t, 4, time.Hour)
	c, err := client.DialMux(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("rk%d", i)
	}
	for round := 0; round < 20; round++ {
		for i, k := range keys {
			if _, err := c.Add(k, int64(i+round)); err != nil {
				t.Fatal(err)
			}
		}
		// Cross-shard transfers between neighbours keep the total fixed
		// and force the cross-shard commit path into the log.
		for i := 0; i+1 < len(keys); i += 2 {
			_, err := c.Update([]client.Op{
				{Key: keys[i], Delta: -1, Write: true},
				{Key: keys[i+1], Delta: 1, Write: true},
			}, client.TxOpts{})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	waitCaughtUp(t, pri, rep)

	rc, err := client.DialMux(repAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Key-by-key agreement, and an aggregate snapshot.
	var priSum, repSum int64
	for _, k := range keys {
		pv, pok, err := c.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		rv, rok, err := rc.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if pok != rok || pv != rv {
			t.Fatalf("key %s: primary %d(%v) replica %d(%v)", k, pv, pok, rv, rok)
		}
	}
	if priSum, err = c.Sum(keys...); err != nil {
		t.Fatal(err)
	}
	if repSum, err = rc.Sum(keys...); err != nil {
		t.Fatal(err)
	}
	if priSum != repSum {
		t.Fatalf("SUM disagrees: primary %d, replica %d", priSum, repSum)
	}

	// Consistency oracle: replay the shipped log independently and check
	// the replayed state matches what the replica serves.
	replay := make(map[string]string)
	recs, _, _ := pri.Feed().Log().From(1, 0)
	records := uint64(len(recs))
	for i, rec := range recs {
		if rec.Index != uint64(i+1) {
			t.Fatalf("log not dense: part %d at position %d", rec.Index, i+1)
		}
		for k, v := range rec.Writes {
			replay[k] = string(v)
		}
	}
	for _, k := range keys {
		rv, _, err := rc.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if replay[k] != strconv.FormatInt(rv, 10) {
			t.Fatalf("oracle replay of %s = %s, replica serves %d", k, replay[k], rv)
		}
	}

	// The replica applied the whole stream, and its STATS report it with
	// zero lag.
	if pos, _ := rep.Replica().Position(); pos != records {
		t.Fatalf("replica applied through %d, primary logged %d parts", pos, records)
	}
	st, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["repl_applied"] != strconv.FormatUint(records, 10) {
		t.Fatalf("replica repl_applied=%s, want %d", st["repl_applied"], records)
	}
	if st["repl_lag"] != "0" {
		t.Fatalf("replica repl_lag=%s, want 0", st["repl_lag"])
	}
	pst, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// One connection carries the replica's one subscription.
	if pst["repl_subs"] != "1" {
		t.Fatalf("primary repl_subs=%s, want 1", pst["repl_subs"])
	}
	// Each apply round leaves a repl_apply event carrying its newest
	// commit epoch: the replica's half of a merged cross-node timeline.
	rounds := 0
	for _, e := range rep.Flight().Snapshot() {
		if e.Name == flight.EvReplApply && e.Epoch > 0 {
			rounds++
		}
	}
	if rounds == 0 {
		t.Fatal("the replica's flight ring holds no epoch-stamped repl_apply event")
	}
}

// TestReplicaIsAPrefix: under concurrent single- and cross-shard load on
// 4 shards, the replica's stream is stopped at seeded points and
// restarted (each restart a SNAP bootstrap into the non-empty store); one
// stop lands while the replica is still catching up after its SNAP. At
// every stop the applied position p is a record boundary of the
// primary's commit order, and the replica holds exactly the state of a
// fresh store into which the primary's log parts 1..p were replayed.
func TestReplicaIsAPrefix(t *testing.T) {
	pri, priAddr, rep, _ := startReplicaPair(t, 4, time.Hour)
	rng := rand.New(rand.NewSource(38))
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("pk%d", i)
	}
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.DialMux(priAddr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 3000; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				from, to := keys[(7*w+i)%len(keys)], keys[(13*w+3*i+1)%len(keys)]
				ops := []client.Op{{Key: from, Delta: -1, Write: true}}
				if i%3 != 0 && from != to {
					ops = append(ops, client.Op{Key: to, Delta: 1, Write: true})
				}
				if _, err := c.Update(ops, client.TxOpts{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	state := func(st *shard.Store) map[string]string {
		out := make(map[string]string)
		for i := 0; i < st.NumShards(); i++ {
			st.Shard(i).LockCommit()
			st.Shard(i).RangeLocked(func(k string, v []byte) bool {
				out[fmt.Sprintf("%d/%s", i, k)] = string(v)
				return true
			})
			st.Shard(i).UnlockCommit()
		}
		return out
	}
	check := func(stop int, pos uint64) {
		t.Helper()
		recs, _, err := pri.Feed().Log().From(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pos > uint64(len(recs)) {
			t.Fatalf("stop %d: replica at position %d, past the primary's %d parts", stop, pos, len(recs))
		}
		if pos > 0 {
			if last := recs[pos-1]; last.Cross() && last.Shard != last.Shards[len(last.Shards)-1] {
				t.Fatalf("stop %d: position %d is inside the cross-shard record at epoch %d", stop, pos, last.Epoch)
			}
		}
		replay := shard.Open(shard.Config{Shards: 4})
		defer replay.Close()
		for _, rec := range recs[:pos] {
			if err := replay.ApplyReplicated([]shard.Replicated{{Shards: []int{rec.Shard}, Writes: []map[string][]byte{rec.Writes}}}); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := state(rep.Store()), state(replay); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("stop %d at position %d: replica %v, primary's first %d parts replay to %v", stop, pos, got, pos, want)
		}
	}
	// A View over keys on every shard holds every replica latch, so the
	// stream can be stopped while a backlog builds behind it.
	var every []string
	for i := 0; len(every) < 4; i++ {
		k := fmt.Sprintf("latch%d", i)
		if rep.Store().ShardOf(k) == len(every) {
			every = append(every, k)
		}
	}
	const catchUpStop = 2
	for stop := 0; stop < 5; stop++ {
		r := rep.Replica()
		if stop == catchUpStop {
			// Stop during catch-up after the SNAP the previous restart
			// took: hold the applies until the primary is two rounds
			// ahead, then close the stream and let its round finish.
			held, release := make(chan struct{}), make(chan struct{})
			go rep.Store().View(every, func(shard.Tx) error {
				close(held)
				<-release
				return nil
			})
			<-held
			pos, _ := r.Position()
			for deadline := time.Now().Add(10 * time.Second); pri.Feed().Log().Head() < pos+3*256; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("no backlog built behind the held replica")
				}
			}
			closed := make(chan struct{})
			go func() { r.Close(); close(closed) }()
			time.Sleep(time.Millisecond)
			close(release)
			<-closed
			if pos, _ := r.Position(); pos >= pri.Feed().Log().Head() {
				t.Fatalf("stop %d is not during catch-up: position %d, primary head %d", stop, pos, pri.Feed().Log().Head())
			}
		} else {
			time.Sleep(time.Duration(1+rng.Intn(20)) * time.Millisecond)
			r.Close()
		}
		pos, _ := r.Position()
		check(stop, pos)
		t.Logf("stop %d: replica at %d of %d parts", stop, pos, pri.Feed().Log().Head())
		if err := rep.startReplica(priAddr); err != nil {
			t.Fatal(err)
		}
	}
	close(stopLoad)
	wg.Wait()
	waitCaughtUp(t, pri, rep)
	pos, _ := rep.Replica().Position()
	check(5, pos)
}

// TestReplicaLagAccounting holds a replica behind a lag budget
// deterministically (state injected, no timing): reads whose value
// functions would cross zero before catch-up draw SHED and increment
// repl_shed, value-bearing reads survive, and a served read always
// reflects at least the acked log prefix.
func TestReplicaLagAccounting(t *testing.T) {
	// A replica with no stream, its lag injected: 10ms budget, 1ms per
	// part.
	rep, repAddr := startServer(t, Config{Shards: 4})
	gate := repl.NewLagGate(10*time.Millisecond, time.Millisecond)
	rep.gateP.Store(gate)

	// Ship five records for key x by hand, acking each: the replica's
	// snapshot must always reflect the acked prefix.
	shardOfX := rep.Store().ShardOf("x")
	rc := dialRaw(t, repAddr)
	for i := 1; i <= 5; i++ {
		err := rep.Store().ApplyReplicated([]shard.Replicated{{Shards: []int{shardOfX}, Writes: []map[string][]byte{
			{"x": []byte(strconv.Itoa(i))},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		gate.ObserveApplied(uint64(i), time.Millisecond, 1)
		// acked == applied == i; a read served now must be >= record i.
		rc.send("GET x")
		if got := rc.recv(); got != "OK "+strconv.Itoa(i) {
			t.Fatalf("after ack %d: GET x = %q, want OK %d (read older than acked index)", i, got, i)
		}
	}

	// Fall behind: the primary is 10000 records ahead -> ~10s catch-up,
	// far past the 10ms budget.
	gate.ObserveHead(10005)

	// A tight read (zero-crossing ~0.2s away) cannot outlive catch-up: SHED.
	rc.send("UPD v=1 dl=100 r:x")
	if got := rc.recv(); got != "SHED" {
		t.Fatalf("doomed read on lagging replica = %q, want SHED", got)
	}
	// A long-lived read is still worth serving stale.
	rc.send("UPD v=5 dl=3600000 r:x")
	if got := rc.recv(); got != "OK" {
		t.Fatalf("valuable read on lagging replica = %q, want OK", got)
	}
	// Writes never belong on a replica.
	rc.send("ADD x 99")
	if got := rc.recv(); got != "ERR read-only replica" {
		t.Fatalf("write on replica = %q", got)
	}
	rc.send("ADD x 1")
	if got := rc.recv(); got != "ERR read-only replica" {
		t.Fatalf("ADD on replica = %q", got)
	}

	rc.send("STATS")
	st := rc.recv()
	if !strings.Contains(st, "repl_shed=1") {
		t.Fatalf("STATS %q does not report repl_shed=1", st)
	}
	if !strings.Contains(st, "repl_lag=10000") {
		t.Fatalf("STATS %q does not report repl_lag=10000", st)
	}
}

// TestLagShedOnLivePath proves lag shedding works end-to-end, not just
// with injected state: the replica's apply loop is stalled (a parked
// View holds the shard's commit latch), the primary keeps committing,
// and the replica's HEAD poller — its only honest view of the backlog,
// since the stalled stream is read exactly as late as the lag being
// measured — must grow the gate's lag until a tight-deadline read sheds.
func TestLagShedOnLivePath(t *testing.T) {
	// A 10ms budget. No record is applied before the stall lifts, so the
	// per-record estimate keeps its seed and the backlog's catch-up time
	// is backlog × 20µs.
	_, priAddr, rep, repAddr := startReplicaPair(t, 1, 10*time.Millisecond)
	gate := rep.replGate()

	// Stall the replica's applies: a View holds the shard latch until
	// released, so ApplyReplicated blocks behind it.
	viewHeld := make(chan struct{})
	release := make(chan struct{})
	go rep.Store().View([]string{"k"}, func(shard.Tx) error {
		close(viewHeld)
		<-release
		return nil
	})
	<-viewHeld

	c, err := client.DialMux(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const backlog = 2000
	for i := 0; i < backlog; i++ {
		if _, err := c.Add("k", 1); err != nil {
			t.Fatal(err)
		}
	}

	// The poller must surface the backlog even though the stream is stuck.
	deadline := time.Now().Add(10 * time.Second)
	for gate.LagRecords() < backlog {
		if time.Now().After(deadline) {
			t.Fatalf("head poller never surfaced the backlog: lag=%d", gate.LagRecords())
		}
		time.Sleep(time.Millisecond)
	}

	// ~40ms estimated catch-up > 10ms budget: a read whose value crosses
	// zero in 10ms sheds at the gate, before ever touching the store
	// (whose latch the stall holds — an admitted read would block here).
	rc := dialRaw(t, repAddr)
	rc.send("UPD v=1 dl=5 r:k")
	if got := rc.recv(); got != "SHED" {
		t.Fatalf("tight read on live lagging replica = %q, want SHED", got)
	}

	// Release the stall: the replica drains and tight reads serve again.
	close(release)
	for gate.LagRecords() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never drained: lag=%d", gate.LagRecords())
		}
		time.Sleep(time.Millisecond)
	}
	rc.send("UPD v=1 dl=5 r:k")
	if got := rc.recv(); got != "OK" {
		t.Fatalf("tight read on drained replica = %q, want OK", got)
	}
}

// TestReplicaFailover: losing the primary ends the stream but not the
// replica — it keeps serving its last consistent snapshot.
func TestReplicaFailover(t *testing.T) {
	pri, priAddr, rep, repAddr := startReplicaPair(t, 2, time.Hour)
	c, err := client.DialMux(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add("stable", 7); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pri, rep)
	r := rep.Replica()
	c.Close()
	pri.Close()

	select {
	case <-r.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("replication stream did not end after primary close")
	}
	if r.Err() == nil {
		t.Fatal("stream end after primary loss reported no error")
	}
	rc, err := client.DialMux(repAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if n, ok, err := rc.Get("stable"); err != nil || !ok || n != 7 {
		t.Fatalf("frozen replica Get(stable) = %d, %v, %v; want 7", n, ok, err)
	}
}

// TestSnapRefusesUnsyncedState: SNAP ships a snapshot only once its own
// sync made it durable; a log whose sync fails draws ERR, not state a
// joiner would bootstrap from and the primary could not recover.
func TestSnapRefusesUnsyncedState(t *testing.T) {
	pri, priAddr := startServer(t, Config{Shards: 2, Repl: ReplOptions{Primary: true}})
	rc := dialRaw(t, priAddr)
	rc.send("ADD snapkey 1")
	rc.recv()
	pri.store.Shard(0).SetCommitLog(brokenLog{})
	rc.send("SNAP")
	if got := rc.recv(); got != "ERR disk on fire" {
		t.Fatalf("SNAP over a log whose sync fails -> %q, want ERR disk on fire", got)
	}
}

// TestReplVerbErrors pins the REPL/ACK error surface.
func TestReplVerbErrors(t *testing.T) {
	_, priAddr := startServer(t, Config{Shards: 2, Repl: ReplOptions{Primary: true}})
	rc := dialRaw(t, priAddr)
	for in, wantPrefix := range map[string]string{
		"ACK 1":        "ERR ACK before REPL",
		"REPL":         "ERR usage: REPL <position>",
		"REPL 0 1":     "ERR usage: REPL <position>",
		"REPL 0":       "ERR bad position",
		"REPL x":       "ERR bad position",
		"ACK":          "ERR usage: ACK <position>",
		"ACK -1":       "ERR bad position",
		"REQ 1 REPL 1": "RES 1 ERR REPL requires bare framing",
		"REQ 2 ACK 1":  "RES 2 ERR ACK requires bare framing",
	} {
		rc.send(in)
		if got := rc.recv(); !strings.HasPrefix(got, wantPrefix) {
			t.Errorf("%q -> %q, want prefix %q", in, got, wantPrefix)
		}
	}

	// HEAD reports the epoch watermark then the log's head position on a
	// primary: OK <watermark> <head>.
	rc.send("ADD headkey 1")
	rc.recv()
	rc.send("HEAD")
	if got := rc.recv(); got != "OK 1 1" {
		t.Errorf("HEAD after one commit -> %q, want OK 1 1", got)
	}

	// A non-primary has no feed to subscribe to or report heads for, and
	// a replica pointed at it must fail at startup, not serve emptiness.
	_, plainAddr := startServer(t, Config{Shards: 2})
	pc := dialRaw(t, plainAddr)
	for _, in := range []string{"REPL 1", "HEAD"} {
		pc.send(in)
		if got := pc.recv(); got != "ERR not a replication primary" {
			t.Errorf("%q on non-primary -> %q", in, got)
		}
	}
	if _, err := Open(Config{Shards: 2, ReplicaOf: plainAddr}); err == nil || !strings.Contains(err.Error(), "not a replication primary") {
		t.Errorf("replica of a non-primary opened with %v, want a not-a-replication-primary error", err)
	}
}
