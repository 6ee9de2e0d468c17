// Cluster fencing and failover tests: the deterministic deposed-epoch
// proofs (entry fence and commit-boundary fence), the TOPO verb
// surfaces, and an in-process replica-to-primary promotion over a live
// replication stream.
package server

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/obs/flight"
	"repro/internal/server/client"
	"repro/internal/server/opts"
)

// member is a cluster membership whose lease never runs out within a
// test, so only the test moves the member's role.
var member = ClusterConfig{Self: "127.0.0.1:0", Lease: time.Hour}

// TestDeposedEpochWriteNeverAcked is the fencing invariant's
// deterministic proof, layer by layer, on an in-memory and on a durable
// clustered primary:
//
//  1. entry fence — after deposition every new write draws the
//     not-primary redirect and installs nothing;
//  2. commit-boundary fence — a commit already past the entry fence when
//     deposition lands (the zombie-primary window) installs through the
//     engine but its verdict is converted to an error at the commit
//     boundary, so it is never acknowledged. Both commit paths cross that
//     boundary: a one-shot execution and a live session's TXN COMMIT,
//     whatever the commit log is.
//
// Together: a write under a deposed fencing epoch can never install
// silently or be acked durable.
func TestDeposedEpochWriteNeverAcked(t *testing.T) {
	for _, node := range []string{"in-memory", "durable"} {
		t.Run(node, func(t *testing.T) {
			cfg := Config{Shards: 2, Repl: ReplOptions{Primary: true}, Cluster: member}
			if node == "durable" {
				cfg.Durable = durable.Options{Dir: t.TempDir()}
			}
			srv, addr := startDurableServer(t, cfg)
			t.Cleanup(srv.Close)

			// While primary, writes commit normally — and a live session
			// binds its engine transaction, passing the entry fence.
			if got := srv.dispatchLine("ADD fencekey 7"); got != "OK 7" {
				t.Fatalf("write on live primary = %q", got)
			}
			live := strings.TrimPrefix(srv.dispatchLine("TXN BEGIN"), "OK ")
			if got := srv.dispatchLine("TXN W " + live + " sesskey 5"); got != "OK 5" {
				t.Fatalf("TXN W on live primary = %q", got)
			}

			// Depose: a peer claims epoch 2.
			if !srv.cluster.Observe(2, "127.0.0.1:9") {
				t.Fatal("Observe(2) must depose the primary")
			}

			// Layer 1: the entry fence. The write is refused with a redirect
			// before admission; nothing installs.
			got := srv.dispatchLine("ADD fencekey 1")
			if got != "ERR not-primary 127.0.0.1:9" {
				t.Fatalf("write on deposed node = %q, want ERR not-primary 127.0.0.1:9", got)
			}
			if got := srv.dispatchLine("GET fencekey"); got != "OK 7" {
				t.Fatalf("fenced write mutated state: GET = %q, want OK 7", got)
			}
			// TXN writes hit the same fence.
			id := strings.TrimPrefix(srv.dispatchLine("TXN BEGIN"), "OK ")
			if got := srv.dispatchLine("TXN W " + id + " fencekey 1"); got != "ERR not-primary 127.0.0.1:9" {
				t.Fatalf("TXN W on deposed node = %q", got)
			}

			// Layer 2, one-shot: drive the admitted executor directly — the
			// deterministic stand-in for a request that passed the entry
			// fence before deposition landed. The install goes through, the
			// verdict is an error naming the fence.
			_, err := srv.execAdmitted(&request{s: srv, f: srv.adm.FnOf(opts.T{})}, []op{{key: "fencekey", delta: 99, write: true, set: true}}, time.Now(), nil)
			if err == nil || !strings.Contains(err.Error(), "fenced") {
				t.Fatalf("zombie one-shot commit: err = %v, want a fenced error (nil is an acknowledged zombie write)", err)
			}
			// Layer 2, live session: the session bound before deposition
			// commits through the engine's own per-commit path.
			if got := srv.dispatchLine("TXN COMMIT " + live); !strings.HasPrefix(got, "ERR") || !strings.Contains(got, "fenced") {
				t.Fatalf("zombie TXN COMMIT = %q, want ERR naming the fence", got)
			}

			// The fenced node's replication surface is frozen too.
			for _, verb := range []string{"HEAD", "SNAP", "REPL 1", "ACK 1"} {
				rc := dialRaw(t, addr)
				rc.send(verb)
				if got := rc.recv(); got != "ERR not-primary 127.0.0.1:9" {
					t.Errorf("%s on fenced node = %q, want ERR not-primary", verb, got)
				}
			}
		})
	}
}

// TestDeposedPrimaryFencesAndDumps: a clustered durable primary whose
// one peer — a loopback fake — answers TOPO as the primary of epoch 2 is
// fenced by its monitor's fold before it serves a connection, and keeps
// the deposed primary's black box: TOPO reports role=fenced, a raw write
// draws the not-primary redirect, the flight ring holds the demote event,
// and a dump file lies under <Durable.Dir>/flight.
func TestDeposedPrimaryFencesAndDumps(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	peer := lis.Addr().String()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if line, _ := bufio.NewReader(c).ReadString('\n'); strings.TrimSpace(line) == "TOPO" {
					fmt.Fprintf(c, "%s\n", cluster.TopoReply{Role: "primary", Epoch: 2, Primary: peer, Self: peer}.Format())
				}
			}()
		}
	}()

	dir := t.TempDir()
	srv, addr := startDurableServer(t, Config{
		Shards:  2,
		Repl:    ReplOptions{Primary: true},
		Cluster: ClusterConfig{Self: "127.0.0.1:0", Peers: []string{peer}, Lease: time.Hour},
		Durable: durable.Options{Dir: dir},
	})
	t.Cleanup(srv.Close)

	rc := dialRaw(t, addr) // accepted only after the monitor's boot probe
	rc.send("TOPO")
	if got := rc.recv(); !strings.HasPrefix(got, "OK role=fenced epoch=2 primary="+peer) {
		t.Fatalf("TOPO = %q, want role=fenced at epoch 2 under %s", got, peer)
	}
	rc.send("ADD k 1")
	if got := rc.recv(); got != "ERR not-primary "+peer {
		t.Fatalf("ADD on the deposed primary = %q, want ERR not-primary %s", got, peer)
	}
	demoted := false
	for _, e := range srv.Flight().Snapshot() {
		demoted = demoted || e.Name == flight.EvDemote
	}
	if !demoted {
		t.Error("no demote event in the flight ring")
	}
	if dumps, err := filepath.Glob(filepath.Join(dir, "flight", "*-demote.events")); err != nil || len(dumps) == 0 {
		t.Errorf("flight dumps under %s = %v (%v), want the demotion's", dir, dumps, err)
	}
}

// TestTopoVerb pins the TOPO surface: ERR off-cluster, a parseable
// k=v reply on members, and role/epoch tracking across deposition.
func TestTopoVerb(t *testing.T) {
	plain, _ := startServer(t, Config{Shards: 2})
	if got := plain.dispatchLine("TOPO"); got != "ERR not clustered" {
		t.Fatalf("TOPO off-cluster = %q", got)
	}

	srv, addr := startServer(t, Config{Shards: 2, Repl: ReplOptions{Primary: true}, Cluster: member})
	srv.dispatchLine("ADD topokey 1")
	rep, err := cluster.ParseTopoReply(srv.dispatchLine("TOPO"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Role != "primary" || rep.Epoch != 1 || rep.Self != "127.0.0.1:0" || rep.Primary != "127.0.0.1:0" {
		t.Fatalf("TOPO on primary = %+v", rep)
	}
	if rep.Applied == 0 {
		t.Fatal("primary TOPO must report its feed position as applied")
	}

	srv.cluster.Observe(2, "127.0.0.1:9")
	rep, err = cluster.ParseTopoReply(srv.dispatchLine("TOPO"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Role != "fenced" || rep.Epoch != 2 || rep.Primary != "127.0.0.1:9" {
		t.Fatalf("TOPO after deposition = %+v", rep)
	}

	// The PLACE planner had no executor and is gone: the verb is unknown.
	if got := srv.dispatchLine("PLACE"); got != "ERR unknown verb PLACE" {
		t.Fatalf("PLACE = %q", got)
	}

	// TOPO is single-line, so REQ framing is allowed.
	rc := dialRaw(t, addr)
	rc.send("REQ 7 TOPO")
	if got := rc.recv(); !strings.HasPrefix(got, "RES 7 OK role=fenced") {
		t.Fatalf("framed TOPO = %q", got)
	}
}

// TestPromoteTakesOver wires a real primary/replica pair, kills the
// primary, promotes the replica in-process (the hook the cluster Node
// drives), and checks the full handoff: replicated state retained,
// gate lifted, writes accepted under the new fencing epoch, feed
// rebased at the replica's applied position, and the TOPO/HEAD surfaces
// flipped to the primary shape.
func TestPromoteTakesOver(t *testing.T) {
	pri, priAddr := startServer(t, Config{Shards: 4, Repl: ReplOptions{Primary: true}})
	rep, repAddr := startServer(t, Config{Shards: 4, ReplicaOf: priAddr, Cluster: member})

	c, err := client.DialMux(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := c.Add(fmt.Sprintf("ck%d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A cross-shard transfer so the epoch watermark is nonzero.
	if _, err := c.Update([]client.Op{
		{Key: "ck0", Delta: -1, Write: true},
		{Key: "ck1", Delta: 1, Write: true},
	}, client.TxOpts{}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pri, rep)
	c.Close()
	priHead := pri.Feed().Log().Head()
	pri.Close()

	// Writes on the replica bounce with a redirect before promotion.
	if got := rep.dispatchLine("ADD ck0 1"); got != "ERR not-primary "+priAddr {
		t.Fatalf("pre-promotion write = %q", got)
	}

	if err := rep.promote(2); err != nil {
		t.Fatal(err)
	}

	// Role, epoch, and primary flipped.
	topo, err := cluster.ParseTopoReply(rep.dispatchLine("TOPO"))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Role != "primary" || topo.Epoch != 2 {
		t.Fatalf("post-promotion TOPO = %+v", topo)
	}

	// Replicated state retained, gate lifted, writes accepted.
	rc, err := client.DialMux(repAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if n, ok, err := rc.Get("ck5"); err != nil || !ok || n != 5 {
		t.Fatalf("promoted Get(ck5) = %d, %v, %v; want 5", n, ok, err)
	}
	if n, err := rc.Add("ck5", 10); err != nil || n != 15 {
		t.Fatalf("promoted Add(ck5, 10) = %d, %v; want 15", n, err)
	}

	// The new feed resumes the old primary's numbering: its head starts at
	// the replica's applied position, not at zero.
	if h := rep.Feed().Log().Head(); h < priHead {
		t.Fatalf("promoted head = %d regressed below old primary's %d", h, priHead)
	}

	// HEAD serves the primary grammar now, and a fresh replica can
	// bootstrap off the promoted node above the rebased base.
	raw := dialRaw(t, repAddr)
	raw.send("HEAD")
	if got := raw.recv(); !strings.HasPrefix(got, "OK ") || len(strings.Fields(got)) != 3 {
		t.Fatalf("HEAD on promoted node = %q, want OK <watermark> <head>", got)
	}
	rep2, _ := startServer(t, Config{Shards: 4, ReplicaOf: repAddr})
	waitCaughtUp(t, rep, rep2)
	if v, ok := rep2.Store().Get("ck5"); !ok || string(v) != "15" {
		t.Fatalf("second-generation replica ck5 = %q, %v; want 15", v, ok)
	}
}

// TestPromoteDurableReplica promotes a durable replica: it keeps its WAL
// as the commit log (new commits are logged and survive a restart beside
// the replicated history) and gains the commit-boundary fence (deposed
// again, an in-flight commit is never acknowledged).
func TestPromoteDurableReplica(t *testing.T) {
	pri, priAddr := startServer(t, Config{Shards: 4, Repl: ReplOptions{Primary: true}})
	dir := t.TempDir()
	rep, _ := startDurableServer(t, Config{
		Shards:    4,
		ReplicaOf: priAddr,
		Repl:      ReplOptions{Primary: true},
		Cluster:   member,
		Durable:   durable.Options{Dir: dir},
	})
	keys := driveMixedLoad(t, priAddr, 3)
	waitCaughtUp(t, pri, rep)
	want := snapshotKeys(t, priAddr, keys)
	pri.Close()

	if err := rep.promote(2); err != nil {
		t.Fatalf("promoting a durable replica: %v", err)
	}
	logged := rep.Durable().Stats().WALAppends
	if got := rep.dispatchLine("ADD " + keys[0] + " 100"); got != "OK "+strconv.FormatInt(want[keys[0]]+100, 10) {
		t.Fatalf("write on promoted durable node = %q", got)
	}
	want[keys[0]] += 100
	if got := rep.dispatchLine("UPD w:" + keys[1] + ":-1 w:" + keys[2] + ":1"); !strings.HasPrefix(got, "OK") {
		t.Fatalf("cross-shard write on promoted durable node = %q", got)
	}
	want[keys[1]]--
	want[keys[2]]++
	if now := rep.Durable().Stats().WALAppends; now <= logged {
		t.Fatalf("promoted node's commits bypassed the WAL: appends %d -> %d", logged, now)
	}

	// Deposed again: a commit already past the entry fence is never acked.
	rep.cluster.Observe(3, "127.0.0.1:9")
	_, err := rep.execAdmitted(&request{s: rep, f: rep.adm.FnOf(opts.T{})}, []op{{key: "zombie", delta: 1, write: true, set: true}}, time.Now(), nil)
	if err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("commit on re-deposed durable node: err = %v, want a fenced error", err)
	}
	rep.Close()

	// Restart over the same directory: replicated history and the
	// promoted node's own acknowledged commits are all recovered.
	back, backAddr := startDurableServer(t, Config{Shards: 4, Durable: durable.Options{Dir: dir}})
	defer back.Close()
	if got := snapshotKeys(t, backAddr, keys); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered state %v, want %v", got, want)
	}
}

// TestFailoverFollowsNewPrimary is the three-node failover the cluster
// monitors drive on their own: primary A (semi-sync) and replicas B and
// C, all members of one cluster. A dies mid-load; exactly one of B and C
// promotes, and the other follows it — its TOPO names the winner, and
// writes made on the winner after the promotion stream to it, which only
// a re-pointed stream can do. On the winner, transfers conserve value
// and every acknowledged commit is present (the ledger's >= form: a
// commit whose ack the kill cut off may have landed too). The follower's
// pre-kill state is not compared: it may hold records the winner lacks.
func TestFailoverFollowsNewPrimary(t *testing.T) {
	const shards, keys, workers = 4, 16, 4
	var lis [3]net.Listener
	var addrs [3]string
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lis[i], addrs[i] = l, l.Addr().String()
	}
	start := func(i int, cfg Config) *Server {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg.Shards = shards
		cfg.Cluster = ClusterConfig{Self: addrs[i], Peers: peers, Lease: 100 * time.Millisecond}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		go s.Serve(lis[i])
		return s
	}
	// The sync timeout bounds how long closing A waits on acks that will
	// never come; it is far above an ack's latency here.
	a := start(0, Config{Repl: ReplOptions{Primary: true, SyncAcks: true, SyncTimeout: 500 * time.Millisecond}})
	replicas := [2]*Server{start(1, Config{ReplicaOf: addrs[0]}), start(2, Config{ReplicaOf: addrs[0]})}

	// Transfers between the fk keys, each booking one ledger increment for
	// its worker, until the kill cuts the worker off.
	var acked [workers]int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.DialMux(addrs[0])
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				from := (7*w + i) % keys
				to := (from + 1 + i%(keys-1)) % keys
				if _, err := c.Update([]client.Op{
					{Key: fmt.Sprintf("fk%d", from), Delta: -1, Write: true},
					{Key: fmt.Sprintf("fk%d", to), Delta: 1, Write: true},
					{Key: fmt.Sprintf("fledger%d", w), Delta: 1, Write: true},
				}, client.TxOpts{}); err != nil {
					return
				}
				acked[w]++
			}
		}(w)
	}
	time.Sleep(200 * time.Millisecond)
	a.Close()
	wg.Wait()

	// Exactly one replica promotes; the other follows it under the same
	// fencing epoch.
	var winner, follower *Server
	var winnerAddr string
	deadline := time.Now().Add(10 * time.Second)
	for winner == nil {
		for i, s := range replicas {
			if s.cluster.IsPrimary() && s.replGate() == nil {
				winner, follower, winnerAddr = s, replicas[1-i], addrs[1+i]
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("neither replica promoted after the primary died")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		topo, err := cluster.ParseTopoReply(follower.dispatchLine("TOPO"))
		if err != nil {
			t.Fatal(err)
		}
		if topo.Role == "replica" && topo.Primary == winnerAddr && topo.Epoch == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the other replica never followed the winner %s: TOPO %+v", winnerAddr, topo)
		}
		time.Sleep(time.Millisecond)
	}
	if topo, _ := cluster.ParseTopoReply(winner.dispatchLine("TOPO")); topo.Role != "primary" || topo.Epoch != 2 {
		t.Fatalf("winner TOPO = %+v, want the primary at epoch 2", topo)
	}
	for _, e := range follower.Flight().Snapshot() {
		if e.Name == flight.EvPromote {
			t.Fatal("both replicas promoted")
		}
	}

	// A write made on the winner after the promotion reaches the follower.
	if got := winner.dispatchLine("ADD follow-check 42"); got != "OK 42" {
		t.Fatalf("write on the winner = %q", got)
	}
	for {
		if v, ok := follower.Store().Get("follow-check"); ok && string(v) == "42" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the winner's new write never reached the follower: its stream was not re-pointed")
		}
		time.Sleep(time.Millisecond)
	}

	sum := "SUM"
	for k := 0; k < keys; k++ {
		sum += fmt.Sprintf(" fk%d", k)
	}
	if got := winner.dispatchLine(sum); got != "OK 0" {
		t.Errorf("conservation on the winner: %s = %q, want OK 0", sum, got)
	}
	var total int64
	for w, n := range acked {
		total += n
		got := parseNum([]byte(strings.TrimPrefix(winner.dispatchLine(fmt.Sprintf("GET fledger%d", w)), "OK ")))
		if got < n {
			t.Errorf("ledger on the winner: worker %d has %d commits, %d were acknowledged", w, got, n)
		}
	}
	if total == 0 {
		t.Fatal("no commit was acknowledged before the kill; the test degenerated")
	}
}

// TestSyncAcksDegradesWithoutSubscriber pins the semi-sync wait on both
// commit paths (one-shot and live session): with no replica ever
// subscribed, the wait degrades to async immediately — a lone primary
// does not stall; once one has, every commit waits for an ack and a
// silent subscriber costs it the timeout, counted in repl_sync_degraded.
func TestSyncAcksDegradesWithoutSubscriber(t *testing.T) {
	srv, _ := startServer(t, Config{Shards: 2, Repl: ReplOptions{Primary: true, SyncAcks: true, SyncTimeout: 50 * time.Millisecond}})
	paths := []struct {
		name   string
		commit func(key string) string
	}{
		{"one-shot", func(key string) string { return srv.dispatchLine("ADD " + key + " 1") }},
		{"live-session", func(key string) string {
			id := strings.TrimPrefix(srv.dispatchLine("TXN BEGIN"), "OK ")
			srv.dispatchLine("TXN W " + id + " " + key + " 1")
			return srv.dispatchLine("TXN COMMIT " + id)
		}},
	}
	for _, p := range paths {
		if got := p.commit("sk-" + p.name); got != "OK 1" {
			t.Fatalf("%s: semi-sync lone write = %q", p.name, got)
		}
		if n := srv.met.syncDegraded.Value(); n != 0 {
			t.Fatalf("%s: lone primary waited out %d semi-sync timeouts, want none", p.name, n)
		}
	}
	sub := srv.Feed().Subscribe()
	defer sub.Close()
	for _, p := range paths {
		before := srv.met.syncDegraded.Value()
		if got := p.commit("sk-" + p.name); got != "OK 2" {
			t.Fatalf("%s: semi-sync write under a silent subscriber = %q", p.name, got)
		}
		if n := srv.met.syncDegraded.Value() - before; n != 1 {
			t.Fatalf("%s: %d degraded waits, want 1 (the commit must wait for a replica ack)", p.name, n)
		}
	}
	if got := statsOf(srv)["repl_sync_degraded"]; got != "2" {
		t.Errorf("STATS repl_sync_degraded = %q, want the 2 degraded waits", got)
	}
}

// TestCloseWakesSemiSyncWait: a commit parked in the semi-sync wait
// behind a subscriber that never acks does not hold Close for the whole
// SyncTimeout. Closing the subscriber's connection alone does not end
// the wait (a vanished subscriber is waited out); closing the feed does,
// and the lapse counts as a degrade.
func TestCloseWakesSemiSyncWait(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 1, Repl: ReplOptions{Primary: true, SyncAcks: true, SyncTimeout: 5 * time.Second}})
	sub, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	fmt.Fprintf(sub, "REPL 1\n")
	if reply, err := bufio.NewReader(sub).ReadString('\n'); err != nil || reply != "OK 0\n" {
		t.Fatalf("REPL 1 -> %q, %v", reply, err)
	}
	writer, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	fmt.Fprintf(writer, "ADD k 1\n")
	for deadline := time.Now().Add(5 * time.Second); srv.Feed().Log().Head() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the ADD never committed")
		}
	}
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a commit in the semi-sync wait (SyncTimeout 5s)", d.Round(time.Millisecond))
	}
	if n := srv.met.syncDegraded.Value(); n != 1 {
		t.Fatalf("%d degraded waits, want 1", n)
	}
}
