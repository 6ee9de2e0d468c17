package loadgen

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// startServer serves an in-process server on a loopback port.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	s, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(lis)
	t.Cleanup(s.Close)
	return s, lis.Addr().String()
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

func dial(t *testing.T, addr string) *client.Mux {
	t.Helper()
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

const testPages = 32

// testConfig is a small Ops-bounded run over testPages pages.
func testConfig(addrs string, runID int64) Config {
	return Config{
		Pool:    NewPool(addrs),
		Clients: 3,
		Ops:     20,
		Workload: func(seed int64) workload.Config {
			cfg := workload.Baseline(100, seed)
			cfg.DBPages = testPages
			cfg.Classes[0].NumOps = 4
			cfg.Think = workload.ThinkTime{Kind: workload.ThinkFixed, Mean: 0.0002}
			return cfg
		},
		Opts: func(t *model.Txn) client.TxOpts {
			return client.TxOpts{Value: t.Class.Value, Deadline: 5 * time.Second}
		},
		Pages: testPages,
		Seed:  1,
		RunID: runID,
	}
}

// audits runs both audits in the exact ledger form and fails the test
// on any violation.
func audits(t *testing.T, c *client.Mux, res *Result) {
	t.Helper()
	if sum, err := AuditConservation(c, res.RunID, testPages); err != nil || sum != 0 {
		t.Errorf("conservation: sum=%d err=%v", sum, err)
	}
	if bad, err := AuditLedger(c, res.Acked, false); err != nil || len(bad) != 0 {
		t.Errorf("ledger: %v err=%v", bad, err)
	}
}

// TestWorkerShapes drives each worker shape against one live server:
// every shape must commit exactly the configured count and leave both
// audits green in their strictest form.
func TestWorkerShapes(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	shapes := []struct {
		name        string
		pipeline    int
		interactive bool
		pages       int
	}{
		{"blocking", 0, false, testPages},
		{"batch", 4, false, testPages},
		{"sessions", 3, true, testPages}, // 20 ops split 7/7/6 over 3 sessions
		{"single-session", 0, true, testPages},
		{"counter-only", 4, false, 0},
	}
	for i, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := testConfig(addr, int64(100+i))
			cfg.Pipeline, cfg.Interactive, cfg.Pages, cfg.TraceEvery = sh.pipeline, sh.interactive, sh.pages, 5
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(cfg.Clients * cfg.Ops); res.Committed != want || res.Requests != want || res.Errors != 0 {
				t.Fatalf("committed %d of %d requests (errors %d), want %d", res.Committed, res.Requests, res.Errors, want)
			}
			if res.P50Ms <= 0 || res.ValuePct != 100 || res.MissedPct != 0 {
				t.Errorf("summary: p50=%v value=%v%% missed=%v%%", res.P50Ms, res.ValuePct, res.MissedPct)
			}
			if res.TraceSampled != cfg.Clients*cfg.Ops/5 || res.TraceCarried != res.TraceSampled || res.Stages["commit"].N == 0 {
				t.Errorf("traces: sampled %d carried %d stages %v", res.TraceSampled, res.TraceCarried, res.Stages)
			}
			audits(t, dial(t, addr), res)
		})
	}
}

// TestDurationBound checks the deadline form of the stop condition.
func TestDurationBound(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	cfg := testConfig(addr, 7)
	cfg.Ops, cfg.Duration, cfg.Pipeline = 0, 150*time.Millisecond, 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.ElapsedSec < 0.15 || res.ElapsedSec > 2 {
		t.Fatalf("committed %d in %.2fs", res.Committed, res.ElapsedSec)
	}
	audits(t, dial(t, addr), res)
}

// TestAuditsCatchViolations plants the faults the audits exist for.
func TestAuditsCatchViolations(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	cfg := testConfig(addr, 9)
	cfg.Pipeline = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	audits(t, c, res)

	// A torn commit: one page key off by one.
	if _, err := c.Add(PageKey(9, 3), 1); err != nil {
		t.Fatal(err)
	}
	if sum, err := AuditConservation(c, 9, testPages); err != nil || sum != 1 {
		t.Errorf("planted +1: sum=%d err=%v, want 1", sum, err)
	}

	// A lost acked commit: client 0's counters one below its acked
	// count fails in both forms.
	if _, err := c.Add(CounterKey(9, 0, 1), -1); err != nil {
		t.Fatal(err)
	}
	for _, atLeast := range []bool{false, true} {
		if bad, err := AuditLedger(c, res.Acked, atLeast); err != nil || len(bad) != 1 {
			t.Errorf("counter below acked, atLeast=%v: %v err=%v, want 1 violation", atLeast, bad, err)
		}
	}
	// A commit whose ack was lost: one above passes only with atLeast.
	if _, err := c.Add(CounterKey(9, 0, 1), 2); err != nil {
		t.Fatal(err)
	}
	if bad, err := AuditLedger(c, res.Acked, true); err != nil || len(bad) != 0 {
		t.Errorf("counter above acked, atLeast: %v err=%v", bad, err)
	}
	if bad, err := AuditLedger(c, res.Acked, false); err != nil || len(bad) != 1 {
		t.Errorf("counter above acked, exact: %v err=%v, want 1 violation", bad, err)
	}
}

func TestAckedFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acked")
	want := Acked{RunID: 42, Slots: 8, Counts: []int64{5, 0, 17}}
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAcked(path, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != 42 || got.Slots != 8 || len(got.Counts) != 3 || got.Counts[2] != 17 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := LoadAcked(path, 43); err == nil {
		t.Error("acked file of run 42 accepted for run 43")
	}
	if _, err := LoadAcked(filepath.Join(t.TempDir(), "missing"), 42); err == nil {
		t.Error("missing acked file accepted")
	}
}

// fencedServer starts a clustered replica of primary whose lease never
// runs out within a test: it answers every write with ERR not-primary
// <primary>.
func fencedServer(t *testing.T, primary string) string {
	t.Helper()
	_, addr := startServer(t, server.Config{
		ReplicaOf: primary,
		Cluster:   server.ClusterConfig{Self: "127.0.0.1:0", Lease: time.Hour},
	})
	return addr
}

func update(c *client.Mux) error {
	_, err := c.Update([]client.Op{{Key: "k", Delta: 1, Write: true}}, client.TxOpts{})
	return err
}

func TestPoolFollowsRedirects(t *testing.T) {
	_, primary := startServer(t, server.Config{Repl: server.ReplOptions{Primary: true}})
	fenced := fencedServer(t, primary)

	// The redirect names a member already in the list.
	p := NewPool(fenced + "," + primary)
	fc := &failoverClient{pool: p}
	defer fc.close()
	if sent, err := fc.do(time.Time{}, update); !sent || err != nil {
		t.Fatalf("do = sent %v, err %v", sent, err)
	}
	if p.Primary() != primary || p.Len() != 2 || p.redirects.Load() != 1 {
		t.Errorf("primary %s len %d redirects %d", p.Primary(), p.Len(), p.redirects.Load())
	}

	// The redirect names a member the list did not know: adopted.
	p = NewPool(fenced + "," + deadAddr(t))
	fc2 := &failoverClient{pool: p}
	defer fc2.close()
	if sent, err := fc2.do(time.Time{}, update); !sent || err != nil {
		t.Fatalf("do = sent %v, err %v", sent, err)
	}
	if p.Primary() != primary || p.Len() != 3 {
		t.Errorf("primary %s len %d, want the adopted %s", p.Primary(), p.Len(), primary)
	}

	// A single address has nowhere to go: the redirect is the outcome.
	p = NewPool(fenced)
	fc3 := &failoverClient{pool: p}
	defer fc3.close()
	if sent, err := fc3.do(time.Time{}, update); !sent || err == nil || p.Len() != 1 {
		t.Errorf("single-address do = sent %v, err %v, len %d", sent, err, p.Len())
	}
}

func TestPoolRotatesOffDeadConnections(t *testing.T) {
	first, firstAddr := startServer(t, server.Config{})
	_, second := startServer(t, server.Config{})
	p := NewPool(deadAddr(t) + "," + firstAddr + "," + second)
	fc := &failoverClient{pool: p}
	defer fc.close()
	// A member that refuses the dial is rotated past.
	if sent, err := fc.do(time.Time{}, update); !sent || err != nil || p.Primary() != firstAddr {
		t.Fatalf("do = sent %v, err %v, primary %s", sent, err, p.Primary())
	}
	// A connection that dies under the worker is re-dialed elsewhere.
	first.Close()
	if sent, err := fc.do(time.Time{}, update); !sent || err != nil || p.Primary() != second {
		t.Fatalf("after kill: do = sent %v, err %v, primary %s", sent, err, p.Primary())
	}
	if p.reconns.Load() < 2 {
		t.Errorf("reconnects %d, want >= 2", p.reconns.Load())
	}
	if c, err := p.Dial(); err != nil {
		t.Errorf("Dial: %v", err)
	} else {
		c.Close()
	}
}

// TestUnsentTransactionsAreNotBooked is the attempted guard: when no
// member can be reached before the run's deadline, nothing left the
// client, so nothing may be accounted — least of all as a commit.
func TestUnsentTransactionsAreNotBooked(t *testing.T) {
	p := NewPool(deadAddr(t) + "," + deadAddr(t))
	fc := &failoverClient{pool: p}
	called := false
	sent, err := fc.do(time.Now().Add(80*time.Millisecond), func(*client.Mux) error {
		called = true
		return nil
	})
	if sent || called || err == nil {
		t.Fatalf("do over dead members = sent %v, called %v, err %v", sent, called, err)
	}

	cfg := testConfig(deadAddr(t)+","+deadAddr(t), 11)
	cfg.Ops, cfg.Duration = 0, 80*time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 || res.Committed != 0 || res.Errors != 0 {
		t.Fatalf("booked %d requests (%d commits, %d errors) for transactions never sent",
			res.Requests, res.Committed, res.Errors)
	}
	for w, n := range res.Acked.Counts {
		if n != 0 {
			t.Errorf("client %d acked %d", w, n)
		}
	}
}

// TestRealizedValue pins the one client-side value account both front
// ends report: family-aware, clamped at zero.
func TestRealizedValue(t *testing.T) {
	o := client.TxOpts{Value: 100, Deadline: time.Second, Gradient: 50}
	for _, tc := range []struct {
		elapsed time.Duration
		want    float64
	}{
		{500 * time.Millisecond, 100},
		{2 * time.Second, 50},
		{10 * time.Second, 0}, // linear decline would be -350: clamped
	} {
		if got := realizedValue(o, tc.elapsed); got != tc.want {
			t.Errorf("realizedValue(linear, %v) = %v, want %v", tc.elapsed, got, tc.want)
		}
	}
	r := NewResult()
	r.Book(o, nil, 10*time.Second, "")
	r.Book(o, client.ErrShed, 0, "")
	r.Finish(time.Second)
	if r.ValueSum != 0 || r.MaxValue != 200 || r.MissedPct != 100 || r.TardinessMs != 9000 || r.Shed != 1 {
		t.Errorf("account = %+v", r)
	}
}
