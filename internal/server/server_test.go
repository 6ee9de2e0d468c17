package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server/client"
)

// startServer spins up a server on a loopback port and returns it with a
// dialable address.
func startServer(t *testing.T, cfg Config) (*Server, string) {
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
	t.Cleanup(s.Close)
	return s, lis.Addr().String()
}

func TestProtocol(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4})
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("missing"); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v err=%v", ok, err)
	}
	if _, err := c.Add("a", 41); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Add("a", 1); err != nil || n != 42 {
		t.Fatalf("Add = %d, %v", n, err)
	}
	if n, ok, err := c.Get("a"); err != nil || !ok || n != 42 {
		t.Fatalf("Get(a) = %d, %v, %v", n, ok, err)
	}

	// A multi-key transaction spanning shards.
	res, err := c.Update([]client.Op{
		{Key: "x", Delta: 10, Write: true},
		{Key: "a"}, // read dependency
		{Key: "y", Delta: -10, Write: true},
	}, client.TxOpts{Value: 5, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] != 10 || res[1] != -10 {
		t.Fatalf("Update results = %v", res)
	}
	if sum, err := c.Sum("x", "y"); err != nil || sum != 0 {
		t.Fatalf("Sum = %d, %v", sum, err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["shards"] != "4" {
		t.Errorf("stats shards = %q", st["shards"])
	}
	if st["commits"] == "0" || st["commits"] == "" {
		t.Errorf("stats commits = %q", st["commits"])
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 256)
	send := func(line string) string {
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf[:n])
	}
	for _, tc := range []struct{ in, wantPrefix string }{
		{"BOGUS", "ERR"},
		{"GET", "ERR"},
		{"ADD a notanumber", "ERR"},
		{"UPD", "ERR"},
		{"UPD w:a", "ERR"},
		{"UPD q:a:1", "ERR"},
		{"SUM", "ERR"},
		{"PING", "OK"},
	} {
		if got := send(tc.in); len(got) < 2 || got[:2] != tc.wantPrefix[:2] {
			t.Errorf("%q -> %q, want %s...", tc.in, got, tc.wantPrefix)
		}
	}
}

func TestShedOverWire(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The deadline is anchored when the server parses the request, and
	// admission reads the clock again, several clock reads later. A 1ns
	// deadline with an absurd gradient puts the value function's
	// zero-crossing 1ns after that anchor, so admission always sees an
	// expired request. (A 1µs deadline was often still live at admission,
	// which made this test skip instead of checking the shed.)
	_, err = c.Update([]client.Op{{Key: "k", Delta: 1, Write: true}},
		client.TxOpts{Value: 1e-9, Deadline: time.Nanosecond, Gradient: 1e12})
	if err != client.ErrShed {
		t.Fatalf("err = %v, want ErrShed", err)
	}
}

// TestE2EConservation is the headline end-to-end test: 64 concurrent TCP
// clients transfer value between 128 accounts hash-spread over 16 shards
// while a checker continuously snapshots the total with SUM. Every
// intermediate snapshot and the final total must equal the seeded amount —
// a lost update, torn cross-shard commit, or non-serializable read would
// break conservation.
func TestE2EConservation(t *testing.T) {
	srv, addr := startServer(t, Config{
		Shards: 16,
		Mode:   engine.SCC2S,
		Admission: AdmissionConfig{
			MaxConcurrent: 32,
			MaxQueue:      4096,
		},
	})

	const (
		clients   = 64
		accounts  = 128
		transfers = 40
		initial   = 1000
	)
	keys := make([]string, accounts)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct%d", i)
	}

	seed, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	for _, k := range keys {
		if _, err := seed.Add(k, initial); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	checkerDone := make(chan error, 1)
	go func() {
		c, err := client.DialMux(addr)
		if err != nil {
			checkerDone <- err
			return
		}
		defer c.Close()
		checks := 0
		for {
			select {
			case <-stop:
				checkerDone <- nil
				return
			default:
			}
			got, err := c.Sum(keys...)
			if err != nil {
				checkerDone <- err
				return
			}
			if got != accounts*initial {
				checkerDone <- fmt.Errorf("mid-flight conservation violated after %d checks: sum = %d, want %d",
					checks, got, accounts*initial)
				return
			}
			checks++
		}
	}()

	var wg sync.WaitGroup
	var committed atomic.Int64
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.DialMux(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < transfers; i++ {
				from := keys[(w*7+i*13)%accounts]
				to := keys[(w*11+i*17+1)%accounts]
				if from == to {
					to = keys[(w*11+i*17+2)%accounts]
				}
				amt := int64(1 + (w+i)%5)
				_, err := c.Update([]client.Op{
					{Key: from, Delta: -amt, Write: true},
					{Key: to, Delta: amt, Write: true},
				}, client.TxOpts{Value: float64(amt)})
				if err != nil {
					errs <- fmt.Errorf("client %d transfer %d: %w", w, i, err)
					return
				}
				committed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-checkerDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if got := committed.Load(); got != clients*transfers {
		t.Fatalf("committed %d of %d transfers", got, clients*transfers)
	}
	total, err := seed.Sum(keys...)
	if err != nil {
		t.Fatal(err)
	}
	if total != accounts*initial {
		t.Fatalf("final sum = %d, want %d", total, accounts*initial)
	}
	st := srv.Store().Stats()
	if st.CrossCommits == 0 {
		t.Error("no cross-shard commits: transfers never spanned shards")
	}
	if st.FastPath == 0 {
		t.Error("no fast-path commits: seeding should be single-shard")
	}
	t.Logf("stats: %+v", st)
}

// TestE2EModeComparison runs the same high-contention fixed-size workload
// against an SCC-2S server and an OCC-BC server and asserts SCC-2S commits
// at least as many transactions. Both runs are closed-loop with a fixed op
// budget and no deadlines, so every transaction eventually commits unless
// its retry budget exhausts — which under high contention hits the
// restart-only OCC-BC first.
func TestE2EModeComparison(t *testing.T) {
	run := func(mode engine.Mode) int64 {
		srv, addr := startServer(t, Config{
			Shards:    8,
			Mode:      mode,
			Admission: AdmissionConfig{MaxConcurrent: 64, MaxQueue: 4096},
		})
		const (
			clients = 64
			ops     = 20
			hotKeys = 4
		)
		var wg sync.WaitGroup
		var committed atomic.Int64
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, err := client.DialMux(addr)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				for i := 0; i < ops; i++ {
					key := fmt.Sprintf("hot%d", (w+i)%hotKeys)
					if _, err := c.Add(key, 1); err == nil {
						committed.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		got := committed.Load()
		t.Logf("%v: %d committed, store stats %+v", mode, got, srv.Store().Stats())
		return got
	}
	scc := run(engine.SCC2S)
	occ := run(engine.OCCBC)
	if scc < occ {
		t.Errorf("SCC-2S committed %d < OCC-BC %d on the high-contention mix", scc, occ)
	}
}
