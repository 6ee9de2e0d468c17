package server

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server/client"
)

// TestWireUpdateAllocs is the allocation ratchet of the wire path: one UPD
// round trip through a Mux and an in-process Server, counting every
// allocation the process makes per request — the client's frame and its
// parse of the reply, the server's reader, dispatch, admission, the store
// and the reply — in the benchmark's two shapes: a one-key increment and a
// 4-op cross-shard UPD (two reads, two writes on four shards). Both
// shapes are warmed first, so no key is created inside the count. Each
// ceiling is the measured count plus 2, as in TestUpdateAllocs.
func TestWireUpdateAllocs(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 16, Mode: engine.SCC2S,
		GroupCommit: engine.GroupCommit{MaxBatch: 64}})
	m, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var cross []string
	seen := make(map[int]bool)
	for i := 0; len(cross) < 4; i++ {
		k := "k" + strconv.Itoa(i)
		if sh := srv.store.ShardOf(k); !seen[sh] {
			seen[sh] = true
			cross = append(cross, k)
		}
	}
	o := client.TxOpts{Value: 10, Deadline: 100 * time.Millisecond}
	for _, c := range []struct {
		name string
		want int // measured; the ratchet allows 2 more
		ops  []client.Op
	}{
		{"increment", 24, []client.Op{{Key: "a", Delta: 1, Write: true}}},
		{"cross", 32, []client.Op{{Key: cross[0]}, {Key: cross[1]},
			{Key: cross[2], Delta: 37, Write: true}, {Key: cross[3], Delta: -37, Write: true}}},
	} {
		reqs := []client.UpdateReq{{Ops: c.ops, Opts: o}}
		for i := 0; i < 100; i++ {
			if r := m.Batch(reqs)[0]; r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		got := testing.AllocsPerRun(1000, func() {
			if r := m.Batch(reqs)[0]; r.Err != nil {
				t.Fatal(r.Err)
			}
		})
		if got > float64(c.want+2) {
			t.Errorf("%s: %.1f allocs per round trip, want <= %d", c.name, got, c.want+2)
		}
		t.Logf("%s: %.1f allocs per round trip (ceiling %d)", c.name, got, c.want+2)
	}
}
