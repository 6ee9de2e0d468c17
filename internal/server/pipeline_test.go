// End-to-end tests of the pipelined transport: the multiplexing client,
// the Batch API, and — the strongest check in the file — a replay of a
// concurrent pipelined run through internal/history, asserting the
// observed GET/UPD results form a conflict-serializable execution. The
// history checker is an oracle independent of the engine's own
// validation, so a protocol bug that commits a non-serializable schedule
// fails the test even though every individual response looked fine.
package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/server/client"
	"repro/internal/shard"
)

// TestMuxBasics drives every verb through the multiplexing client.
func TestMuxBasics(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4})
	m, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if err := m.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add("a", 41); err != nil {
		t.Fatal(err)
	}
	if n, err := m.Add("a", 1); err != nil || n != 42 {
		t.Fatalf("Add = %d, %v", n, err)
	}
	if n, ok, err := m.Get("a"); err != nil || !ok || n != 42 {
		t.Fatalf("Get = %d, %v, %v", n, ok, err)
	}
	res, err := m.Update([]client.Op{
		{Key: "x", Delta: 10, Write: true},
		{Key: "a"},
		{Key: "y", Delta: -10, Write: true},
	}, client.TxOpts{Value: 5, Deadline: time.Second})
	if err != nil || len(res) != 2 || res[0] != 10 || res[1] != -10 {
		t.Fatalf("Update = %v, %v", res, err)
	}
	if sum, err := m.Sum("x", "y"); err != nil || sum != 0 {
		t.Fatalf("Sum = %d, %v", sum, err)
	}
	if st, err := m.Stats(); err != nil || st["shards"] != "4" {
		t.Fatalf("Stats = %v, %v", st, err)
	}

	// Batch: good and bad entries mixed; slots line up with requests.
	// Entries of one batch execute concurrently (no intra-batch order),
	// so the good entries touch independent keys.
	outs := m.Batch([]client.UpdateReq{
		{Ops: []client.Op{{Key: "b1", Delta: 1, Write: true}}},
		{Ops: []client.Op{{Key: "bad key", Delta: 1, Write: true}}}, // invalid key
		{Ops: []client.Op{{Key: "b2", Delta: 2, Write: true}}},
		{},
	})
	if outs[0].Err != nil || outs[0].Results[0] != 1 {
		t.Errorf("batch[0] = %+v", outs[0])
	}
	if outs[1].Err == nil {
		t.Error("batch[1] invalid key not rejected")
	}
	if outs[2].Err != nil || outs[2].Results[0] != 2 {
		t.Errorf("batch[2] = %+v", outs[2])
	}
	if outs[3].Err == nil {
		t.Error("batch[3] empty ops not rejected")
	}
}

// TestMuxConcurrent hammers one Mux from many goroutines: per-goroutine
// counters must never lose an update even though all requests multiplex
// over a single connection.
func TestMuxConcurrent(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 8})
	m, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const workers, iters = 16, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("mc%d", w)
			for i := 1; i <= iters; i++ {
				n, err := m.Add(key, 1)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if n != int64(i) {
					t.Errorf("worker %d: Add #%d = %d", w, i, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMuxOversizedDiagnostic: a request line past the server's 1MB bound
// kills the connection, and the Mux must surface the server's diagnostic
// — not a generic "malformed response" — to every affected caller.
func TestMuxOversizedDiagnostic(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	m, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	hugeKey := strings.Repeat("k", 2<<20)
	_, err = m.Update([]client.Op{{Key: hugeKey, Delta: 1, Write: true}}, client.TxOpts{})
	if err == nil || !strings.Contains(err.Error(), "exceeds 1MB") {
		t.Fatalf("err = %v, want the server's oversized-line diagnostic", err)
	}
	// The connection is dead; later calls fail fast with the same cause.
	if err := m.Ping(); err == nil {
		t.Fatal("Ping succeeded on a dead mux")
	}
}

// TestResponseWriterSharesFlushes reads the flush rule off the server's own
// counters: a lone request is one line and one flush — it is not held back
// for company — while verdicts produced by concurrently running workers
// share flushes.
func TestResponseWriterSharesFlushes(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2})
	m, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Ping(); err != nil {
		t.Fatal(err)
	}
	// wire_responses moves before the flush that carries the lines and
	// wire_flushes just after it, so the client can hold the reply a moment
	// before the second counter moves: give it that moment.
	for deadline := time.Now().Add(5 * time.Second); srv.met.wireFlushes.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if r, f := srv.met.wireResponses.Value(), srv.met.wireFlushes.Value(); r != 1 || f != 1 {
		t.Fatalf("a lone PING: wire_responses = %d, wire_flushes = %d, want 1 and 1", r, f)
	}

	const workers, iters = 32, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := m.Ping(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	responses, flushes := srv.met.wireResponses.Value(), srv.met.wireFlushes.Value()
	if responses != 1+workers*iters {
		t.Fatalf("wire_responses = %d, want %d", responses, 1+workers*iters)
	}
	if flushes >= responses {
		t.Fatalf("wire_flushes = %d for wire_responses = %d: concurrent verdicts never shared a flush", flushes, responses)
	}
}

// TestCrossShedOverWire forces a cross-shard validation failure on a
// transaction whose value function has by then crossed zero, and asserts
// the retry is shed — SHED on the wire, cross_shed in STATS — instead of
// blindly re-executed. The interleaving is engineered, not raced: a View
// latch on the write key's shard wedges the transaction mid-execution
// (after it has read the hot key, before it can read the write key), a
// fast-path ADD then invalidates the read, and releasing the latch lets
// the transaction run into validation failure with an expired value
// function.
func TestCrossShedOverWire(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 8, Mode: engine.SCC2S})
	store := srv.Store()

	// hotKey is the read dependency; sinkKey, on a different shard, is
	// the write — the shard split is what routes the transaction through
	// updateCross.
	hotKey := "xs-hot"
	sinkKey := ""
	for i := 0; i < 10000 && sinkKey == ""; i++ {
		k := fmt.Sprintf("xs-sink%d", i)
		if store.ShardOf(k) != store.ShardOf(hotKey) {
			sinkKey = k
		}
	}

	latched := make(chan struct{})
	release := make(chan struct{})
	viewDone := make(chan error, 1)
	go func() {
		viewDone <- store.View([]string{sinkKey}, func(shard.Tx) error {
			close(latched)
			<-release
			return nil
		})
	}()
	<-latched

	m, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	updErr := make(chan error, 1)
	go func() {
		// Zero-crossing ~1ms after arrival: admission passes (the value
		// is still live on arrival), but any retry after the engineered
		// stall is far past it.
		_, err := m.Update([]client.Op{
			{Key: hotKey},
			{Key: sinkKey, Delta: 1, Write: true},
		}, client.TxOpts{Value: 1e-6, Deadline: time.Millisecond, Gradient: 1e9})
		updErr <- err
	}()

	// Let the transaction read hotKey and park on the latched shard; its
	// progress to that point is a handful of map reads, so 100ms is
	// orders of magnitude of slack even under the race detector.
	time.Sleep(100 * time.Millisecond)
	if err := store.Update([]string{hotKey}, func(tx shard.Tx) error {
		return tx.Set(hotKey, []byte("1"))
	}); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-viewDone; err != nil {
		t.Fatal(err)
	}

	if err := <-updErr; err != client.ErrShed {
		t.Fatalf("cross-shard retry err = %v, want ErrShed", err)
	}
	st := store.Stats()
	if st.CrossRestarts == 0 {
		t.Error("no cross-shard restart recorded")
	}
	if got := srv.met.crossShed.Value(); got != 1 {
		t.Errorf("crossShed = %d, want 1", got)
	}
	// The counter the operator sees must agree.
	stats, err := m.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["cross_shed"] != "1" {
		t.Errorf("STATS cross_shed = %q, want 1", stats["cross_shed"])
	}
}

// pobs is one committed pipelined transaction's observation: the returned
// (post-increment) values of its two write ops.
type pobs struct {
	gval int64 // global sequencer key value — doubles as version order
	hkey int   // which hot key this transaction also wrote
	hval int64
}

// TestPipelinedSerializableHistory replays a concurrent pipelined run
// through the internal/history oracle. Every transaction read-modify-
// writes a global sequencer key g (so the version order of g totally
// orders all commits — that order is the replay sequence) plus one of a
// few hot keys. Because every key's value is a strictly increasing
// cumulative sum, each returned value identifies exactly which committed
// transaction produced the value that was read — which is all the
// history checker needs to rebuild read-version observations and assert
// conflict-serializability. Concurrent plain GETs on the sequencer key
// additionally assert monotonic reads per connection.
func TestPipelinedSerializableHistory(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"per-commit", Config{Shards: 8, Mode: engine.SCC2S}},
		{"group-commit", Config{
			Shards:      8,
			Mode:        engine.SCC2S,
			GroupCommit: engine.GroupCommit{MaxBatch: 16},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServer(t, tc.cfg)
			const (
				clients   = 8
				perClient = 40
				window    = 8 // in-flight transactions per connection
				hotKeys   = 4
				gKey      = "seq"
			)

			results := make([][]pobs, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					m, err := client.DialMux(addr)
					if err != nil {
						t.Error(err)
						return
					}
					defer m.Close()
					for done := 0; done < perClient; done += window {
						n := min(window, perClient-done)
						reqs := make([]client.UpdateReq, n)
						hks := make([]int, n)
						for j := range reqs {
							hk := (c*7 + done + j*3) % hotKeys
							hks[j] = hk
							reqs[j] = client.UpdateReq{Ops: []client.Op{
								{Key: gKey, Delta: 1, Write: true},
								{Key: fmt.Sprintf("hot%d", hk), Delta: 1, Write: true},
							}}
						}
						for j, o := range m.Batch(reqs) {
							if o.Err != nil {
								t.Errorf("client %d: %v", c, o.Err)
								return
							}
							if len(o.Results) != 2 {
								t.Errorf("client %d: results %v", c, o.Results)
								return
							}
							results[c] = append(results[c], pobs{gval: o.Results[0], hkey: hks[j], hval: o.Results[1]})
						}
					}
				}(c)
			}

			// Monotonic-reads checker: plain GETs on the sequencer key
			// from one connection must observe non-decreasing values.
			stop := make(chan struct{})
			checkerDone := make(chan error, 1)
			go func() {
				m, err := client.DialMux(addr)
				if err != nil {
					checkerDone <- err
					return
				}
				defer m.Close()
				var last int64
				for {
					select {
					case <-stop:
						checkerDone <- nil
						return
					default:
					}
					n, _, err := m.Get(gKey)
					if err != nil {
						checkerDone <- err
						return
					}
					if n < last {
						checkerDone <- fmt.Errorf("monotonic reads violated: %d after %d", n, last)
						return
					}
					last = n
				}
			}()

			wg.Wait()
			close(stop)
			if err := <-checkerDone; err != nil {
				t.Fatal(err)
			}

			// Rebuild the history. Pages: 0 = g, 1+k = hot key k. Writer
			// maps recover, for every observed pre-value, the transaction
			// that produced it (version 0 = initial state).
			var all []pobs
			for _, r := range results {
				all = append(all, r...)
			}
			if len(all) != clients*perClient {
				t.Fatalf("collected %d commits, want %d", len(all), clients*perClient)
			}
			gPage := model.PageID(0)
			hPage := func(k int) model.PageID { return model.PageID(1 + k) }
			gWriter := make(map[int64]model.TxnID, len(all))
			hWriter := make(map[int]map[int64]model.TxnID, hotKeys)
			for i, o := range all {
				id := model.TxnID(i + 1)
				if _, dup := gWriter[o.gval]; dup {
					t.Fatalf("duplicate sequencer value %d: lost update on the wire", o.gval)
				}
				gWriter[o.gval] = id
				if hWriter[o.hkey] == nil {
					hWriter[o.hkey] = make(map[int64]model.TxnID)
				}
				if _, dup := hWriter[o.hkey][o.hval]; dup {
					t.Fatalf("duplicate hot%d value %d: lost update on the wire", o.hkey, o.hval)
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
					Seq: int(o.gval), // the sequencer's version order IS the commit order
					Reads: []model.ReadObs{
						{Page: gPage, Version: version(gWriter, o.gval-1, "seq")},
						{Page: hPage(o.hkey), Version: version(hWriter[o.hkey], o.hval-1, fmt.Sprintf("hot%d", o.hkey))},
					},
					Writes: []model.PageID{gPage, hPage(o.hkey)},
				})
			}
			if err := rec.Check(); err != nil {
				t.Fatalf("pipelined execution not serializable: %v", err)
			}
		})
	}
}
