// Package repro's root benchmarks regenerate every figure of the paper's
// evaluation as testing.B benchmarks. Each BenchmarkFig* sub-benchmark
// runs one protocol at a contended point of the corresponding figure and
// reports the figure's metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the paper's comparison rows next to wall-clock cost. The full
// sweeps (all rates, full 4000-commit runs, confidence intervals) are
// produced by `sccsim -exp` (cmd/sccsim); these benchmarks are the
// scaled, repeatable regression points.
package repro

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/rtdbs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchPoint runs one protocol at one arrival rate and reports metrics.
func benchPoint(b *testing.B, proto string, rate float64, twoClass bool,
	metrics map[string]func(*stats.Metrics) float64) {
	b.Helper()
	spec := protocol(b, proto)
	for i := 0; i < b.N; i++ {
		wl := workload.Baseline(rate, int64(i)+1)
		if twoClass {
			wl = workload.TwoClass(rate, int64(i)+1)
		}
		res := rtdbs.Run(rtdbs.Config{
			Workload: wl, Target: 400, Warmup: 40, MaxActive: 4000,
		}, spec.New())
		for name, f := range metrics {
			b.ReportMetric(f(res.Metrics), name)
		}
	}
}

func protocol(b *testing.B, name string) harness.ProtocolSpec {
	b.Helper()
	spec, err := harness.Protocol(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

func missed(m *stats.Metrics) float64 { return m.MissedRatio() }
func tardy(m *stats.Metrics) float64  { return m.AvgTardiness() * 1000 } // ms
func sysval(m *stats.Metrics) float64 { return m.SystemValuePct() }

// BenchmarkFig13aMissedRatio — Fig. 13-a at 150 txn/s: Missed Ratio of
// SCC-2S vs OCC-BC vs WAIT-50 vs 2PL-PA (paper: 30 / 78 / 92 / ~100 %).
func BenchmarkFig13aMissedRatio(b *testing.B) {
	for _, p := range []string{"SCC-2S", "OCC-BC", "WAIT-50", "2PL-PA"} {
		b.Run(p, func(b *testing.B) {
			benchPoint(b, p, 150, false, map[string]func(*stats.Metrics) float64{"missed_%": missed})
		})
	}
}

// BenchmarkFig13bTardiness — Fig. 13-b at 150 txn/s: Average Tardiness.
func BenchmarkFig13bTardiness(b *testing.B) {
	for _, p := range []string{"SCC-2S", "OCC-BC", "WAIT-50", "2PL-PA"} {
		b.Run(p, func(b *testing.B) {
			benchPoint(b, p, 150, false, map[string]func(*stats.Metrics) float64{"tardy_ms": tardy})
		})
	}
}

// BenchmarkFig14aSystemValue — Fig. 14-a at 150 txn/s, one value class.
func BenchmarkFig14aSystemValue(b *testing.B) {
	for _, p := range []string{"SCC-VW", "SCC-2S", "OCC-BC", "WAIT-50"} {
		b.Run(p, func(b *testing.B) {
			benchPoint(b, p, 150, false, map[string]func(*stats.Metrics) float64{"sysval_%": sysval})
		})
	}
}

// BenchmarkFig14bSystemValue — Fig. 14-b at 150 txn/s, two value classes
// (10% long/tight/high-value): SCC-VW's advantage shows here.
func BenchmarkFig14bSystemValue(b *testing.B) {
	for _, p := range []string{"SCC-VW", "SCC-2S", "OCC-BC", "WAIT-50"} {
		b.Run(p, func(b *testing.B) {
			benchPoint(b, p, 150, true, map[string]func(*stats.Metrics) float64{"sysval_%": sysval})
		})
	}
}

// BenchmarkFig15aMissedRatio — Fig. 15-a: SCC-VW misses more deadlines
// than SCC-2S...
func BenchmarkFig15aMissedRatio(b *testing.B) {
	for _, p := range []string{"SCC-VW", "SCC-2S"} {
		b.Run(p, func(b *testing.B) {
			benchPoint(b, p, 150, false, map[string]func(*stats.Metrics) float64{"missed_%": missed})
		})
	}
}

// BenchmarkFig15bTardiness — ...Fig. 15-b: but by a smaller margin.
func BenchmarkFig15bTardiness(b *testing.B) {
	for _, p := range []string{"SCC-VW", "SCC-2S"} {
		b.Run(p, func(b *testing.B) {
			benchPoint(b, p, 150, false, map[string]func(*stats.Metrics) float64{"tardy_ms": tardy})
		})
	}
}

// BenchmarkSecondaryMeasures — Sec. 4's explanatory counters at 100 txn/s.
func BenchmarkSecondaryMeasures(b *testing.B) {
	for _, p := range []string{"SCC-2S", "OCC-BC", "2PL-PA"} {
		b.Run(p, func(b *testing.B) {
			benchPoint(b, p, 100, false, map[string]func(*stats.Metrics) float64{
				"restarts/commit": func(m *stats.Metrics) float64 { return m.RestartsPerCommit() },
				"wasted_frac":     func(m *stats.Metrics) float64 { return m.WastedFraction() },
			})
		})
	}
}

// BenchmarkAblationKShadows — Sec. 2.1: missed ratio as the shadow budget
// k grows (k=1 is the OCC-BC degenerate case).
func BenchmarkAblationKShadows(b *testing.B) {
	for _, k := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchPoint(b, fmt.Sprintf("SCC-kS(%d)", k), 150, false,
				map[string]func(*stats.Metrics) float64{"missed_%": missed})
		})
	}
}

// BenchmarkAblationPolicy — LBFO vs FIFO vs Priority shadow replacement.
func BenchmarkAblationPolicy(b *testing.B) {
	for _, p := range []string{"SCC-kS(2)", "SCC-kS-FIFO(2)", "SCC-kS-PRIO(2)"} {
		b.Run(p, func(b *testing.B) {
			benchPoint(b, p, 150, false, map[string]func(*stats.Metrics) float64{"missed_%": missed})
		})
	}
}

// BenchmarkAblationAdaptiveK — SCC-AK rations shadows by class worth on
// the two-class workload.
func BenchmarkAblationAdaptiveK(b *testing.B) {
	for _, p := range []string{"SCC-AK", "SCC-2S", "SCC-CB"} {
		b.Run(p, func(b *testing.B) {
			benchPoint(b, p, 150, true, map[string]func(*stats.Metrics) float64{"sysval_%": sysval})
		})
	}
}

// BenchmarkAblationDelta — SCC-DC (exact Termination Rule) vs SCC-VW (the
// cheap approximation) on system value.
func BenchmarkAblationDelta(b *testing.B) {
	for _, p := range []string{"SCC-DC", "SCC-VW"} {
		b.Run(p, func(b *testing.B) {
			benchPoint(b, p, 100, false, map[string]func(*stats.Metrics) float64{"sysval_%": sysval})
		})
	}
}

// BenchmarkSimulatorThroughput measures raw event throughput of the
// discrete-event substrate (events/sec across a full SCC-2S run).
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec := protocol(b, "SCC-2S")
	for i := 0; i < b.N; i++ {
		rtdbs.Run(rtdbs.Config{
			Workload: workload.Baseline(100, 1), Target: 400, Warmup: 0,
		}, spec.New())
	}
}

// BenchmarkEngineContended compares the live engine's modes on a hot-key
// increment workload: SCC-2S resolves conflicts by promotion, OCC-BC by
// restart.
func BenchmarkEngineContended(b *testing.B) {
	for _, mode := range []engine.Mode{engine.SCC2S, engine.OCCBC} {
		b.Run(mode.String(), func(b *testing.B) {
			s := engine.Open(engine.Config{Mode: mode})
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					_ = s.Update(func(tx *engine.Tx) error {
						v, err := tx.Get("hot")
						if err != nil {
							return err
						}
						var buf [8]byte
						binary.BigEndian.PutUint64(buf[:], binary.BigEndian.Uint64(pad(v))+1)
						return tx.Set("hot", buf[:])
					})
				}
			})
			st := s.Stats()
			b.ReportMetric(float64(st.Restarts)/float64(st.Commits+1), "restarts/commit")
			b.ReportMetric(float64(st.Promotions)/float64(st.Commits+1), "promotions/commit")
		})
	}
}

func pad(b []byte) []byte {
	if len(b) == 8 {
		return b
	}
	return make([]byte, 8)
}

// BenchmarkShardedStore sweeps the sharded serving layer: 1/4/16
// partitions under a low-contention mix (wide keyspace, conflicts rare —
// throughput should scale with shards as the per-shard latch stops being
// the bottleneck) and a high-contention mix (16 hot keys — sharding cannot
// help much because the contention is logical, not physical). Each op is
// the canonical read-modify-write increment on the single-shard fast path.
func BenchmarkShardedStore(b *testing.B) {
	mixes := []struct {
		name string
		keys int
	}{
		{"low", 65536},
		{"high", 16},
	}
	for _, shards := range []int{1, 4, 16} {
		for _, mix := range mixes {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mix.name), func(b *testing.B) {
				s := shard.Open(shard.Config{
					Shards: shards,
					Engine: engine.Config{Mode: engine.SCC2S},
				})
				defer s.Close()
				var worker atomic.Int64
				// Many in-flight transactions per core: the conflict
				// scans (Read/Write rules, broadcast commit) are O(active
				// set), which partitioning divides by the shard count —
				// the benchmark measures that even on one core.
				b.SetParallelism(32)
				b.RunParallel(func(pb *testing.PB) {
					// Deterministic per-goroutine key walk with a large
					// prime stride: disjoint-ish on the wide keyspace,
					// all-hot on the narrow one.
					i := int(worker.Add(1)) * 1_000_003
					keys := make([]string, 1)
					for pb.Next() {
						key := fmt.Sprintf("k%d", i%mix.keys)
						i += 7919
						keys[0] = key
						_ = s.Update(keys, func(tx shard.Tx) error {
							v, err := tx.Get(key)
							if err != nil {
								return err
							}
							var buf [8]byte
							binary.BigEndian.PutUint64(buf[:], binary.BigEndian.Uint64(pad(v))+1)
							return tx.Set(key, buf[:])
						})
					}
				})
				st := s.Stats()
				b.ReportMetric(float64(st.Engine.Restarts)/float64(st.TotalCommits()+1), "restarts/commit")
			})
		}
	}
}

// BenchmarkShardedCross measures the deterministic-order cross-shard
// commit: every transaction moves value between two keys on (almost
// always) different partitions of a 16-shard store.
func BenchmarkShardedCross(b *testing.B) {
	s := shard.Open(shard.Config{Shards: 16, Engine: engine.Config{Mode: engine.SCC2S}})
	defer s.Close()
	b.ReportAllocs()
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * 1_000_003
		for pb.Next() {
			a := fmt.Sprintf("k%d", i%65536)
			c := fmt.Sprintf("k%d", (i+31)%65536)
			i += 7919
			keys := []string{a, c}
			_ = s.Update(keys, func(tx shard.Tx) error {
				va, err := tx.Get(a)
				if err != nil {
					return err
				}
				var buf [8]byte
				binary.BigEndian.PutUint64(buf[:], binary.BigEndian.Uint64(pad(va))+1)
				if err := tx.Set(a, buf[:]); err != nil {
					return err
				}
				return tx.Set(c, buf[:])
			})
		}
	})
	st := s.Stats()
	b.ReportMetric(float64(st.CrossRestarts)/float64(st.CrossCommits+1), "restarts/commit")
}

// startWireServer brings up a full TCP server for wire benchmarks.
func startWireServer(b *testing.B) string {
	b.Helper()
	srv := server.New(server.Config{Shards: 16})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	b.Cleanup(srv.Close)
	return lis.Addr().String()
}

// BenchmarkPerRoundTrip is a lone Mux caller: every transaction costs one
// blocking round trip on its connection, the same path
// probe.server.ping_rtt_us times with PING.
func BenchmarkPerRoundTrip(b *testing.B) {
	addr := startWireServer(b)
	c, err := client.DialMux(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i%1024)
		if _, err := c.Add(key, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelined is the same transaction stream with a window of
// transactions in flight on the connection via Batch, so the
// per-transaction round trip disappears.
func BenchmarkPipelined(b *testing.B) {
	addr := startWireServer(b)
	m, err := client.DialMux(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	const window = 64
	reqs := make([]client.UpdateReq, 0, window)
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := window
		if rem := b.N - done; rem < n {
			n = rem
		}
		reqs = reqs[:0]
		for j := 0; j < n; j++ {
			key := fmt.Sprintf("k%d", (done+j)%1024)
			reqs = append(reqs, client.UpdateReq{
				Ops: []client.Op{{Key: key, Delta: 1, Write: true}},
			})
		}
		for _, out := range m.Batch(reqs) {
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
		done += n
	}
}

// BenchmarkEngineDisjoint is the uncontended fast path.
func BenchmarkEngineDisjoint(b *testing.B) {
	s := engine.Open(engine.Config{Mode: engine.SCC2S})
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := fmt.Sprintf("k%d", i%4096)
			i++
			_ = s.Update(func(tx *engine.Tx) error { return tx.Set(key, []byte{1}) })
		}
	})
}
