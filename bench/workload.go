package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/shard"
)

// Every workload shares one server shape and one request value function,
// so a difference between two workloads is a difference in traffic, not
// in configuration.
const (
	numShards     = 16
	numConns      = 2  // Mux connections (this box has 2 CPUs)
	slotsPerConn  = 16 // closed-loop transactions (or sessions) in flight per connection
	uniformKeys   = 4096
	hotKeys       = 8
	reqValue      = 10.0
	reqDeadline   = 100 * time.Millisecond
	sessionThink  = 200 * time.Microsecond
	ckptEvery     = 4096
	twoClassValue = 100.0 // -values two_class: the 10 % high-value class
)

// opSpec is one generated operation, by index into the workload's key
// set: the index is what the client-side ledger is keyed by.
type opSpec struct {
	key   int
	delta int64
	write bool
}

// workload is one traffic mix. gen fills buf with the next transaction's
// operations; session workloads run the same ops as an interactive TXN
// session (BEGIN, one round trip per op with think time between, COMMIT).
type workload struct {
	name    string
	why     string // BENCHMARK.json carries the same line
	durable bool
	session bool
	// hot: the transactions run over hotKeys keys co-located on one shard
	// instead of the uniform key set.
	hot bool
	// sumIsCommits: every commit adds exactly 1 to the key set, so the
	// conservation audit expects SUM == commits instead of 0.
	sumIsCommits bool
	gen          func(rng *rand.Rand, buf []opSpec) []opSpec
}

func uniformKeySet() []string {
	keys := make([]string, uniformKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}

// hotKeySet returns hotKeys keys that all hash to the shard owning "h0",
// so every transaction over them takes the single-shard engine path.
func hotKeySet(st *shard.Store) []string {
	target := st.ShardOf("h0")
	keys := make([]string, 0, hotKeys)
	for i := 0; len(keys) < hotKeys; i++ {
		if k := fmt.Sprintf("h%d", i); st.ShardOf(k) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

// distinct draws n distinct indices below limit into out.
func distinct(rng *rand.Rand, limit int, out []int) {
	for i := range out {
	draw:
		for {
			out[i] = rng.Intn(limit)
			for _, prev := range out[:i] {
				if prev == out[i] {
					continue draw
				}
			}
			break
		}
	}
}

// genCross is two reads plus a balanced ±d write pair over four distinct
// uniform keys: with 16 shards all four land on one shard once in 4096
// draws, so this is the cross-shard OCC path.
func genCross(rng *rand.Rand, buf []opSpec) []opSpec {
	var k [4]int
	distinct(rng, uniformKeys, k[:])
	d := int64(1 + rng.Intn(100))
	return append(buf[:0],
		opSpec{key: k[0]}, opSpec{key: k[1]},
		opSpec{key: k[2], delta: d, write: true}, opSpec{key: k[3], delta: -d, write: true})
}

func genSingle(rng *rand.Rand, buf []opSpec) []opSpec {
	return append(buf[:0], opSpec{key: rng.Intn(uniformKeys), delta: 1, write: true})
}

// genTransfer is a balanced two-write transfer between two of the hot keys.
func genTransfer(rng *rand.Rand, buf []opSpec) []opSpec {
	var k [2]int
	distinct(rng, hotKeys, k[:])
	d := int64(1 + rng.Intn(100))
	return append(buf[:0],
		opSpec{key: k[0], delta: d, write: true}, opSpec{key: k[1], delta: -d, write: true})
}

// genSession is R a, W a +1, W b -1 on two of the hot keys.
func genSession(rng *rand.Rand, buf []opSpec) []opSpec {
	var k [2]int
	distinct(rng, hotKeys, k[:])
	return append(buf[:0],
		opSpec{key: k[0]},
		opSpec{key: k[0], delta: 1, write: true}, opSpec{key: k[1], delta: -1, write: true})
}

// workloads lists the five mixes in BENCHMARK.json order. Each exists to
// put one layer to work while a partner workload leaves that layer idle.
var workloads = []*workload{
	{
		name: "cross_uniform",
		why:  "4-op cross-shard UPD over 4096 uniform keys: wire, admission and shard cross-commit work; engine speculation and WAL idle",
		gen:  genCross,
	},
	{
		name: "single_key",
		why:  "one-op increment over the same keys: single-shard fast path through engine.Update and group commit; cross-commit idle",
		gen:  genSingle, sumIsCommits: true,
	},
	{
		name: "hot_shard",
		why:  "one-shot transfers over 8 keys on one shard: the only one-shot mix where shadows fork, park and get promoted",
		hot:  true, gen: genTransfer,
	},
	{
		name: "session_hot",
		why:  "interactive TXN sessions with think time on the same 8 keys: shadows live across client round trips, session layer busy",
		hot:  true, gen: genSession, session: true,
	},
	{
		name: "durable_cross",
		why:  "cross_uniform traffic with WAL, 2PC intent/decision records and checkpoints on: prices durability as code path",
		gen:  genCross, durable: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// serverConfig is the one server shape every workload runs against;
// dataDir is non-empty for the durable workload only. The WAL runs with
// FsyncOff: appends, intent and decision records and checkpoints are all
// written, but nothing waits for the device, so the workload prices
// durability as code path and repeats on any disk.
func serverConfig(dataDir string) server.Config {
	cfg := server.Config{
		Shards:      numShards,
		Mode:        engine.SCC2S,
		GroupCommit: engine.GroupCommit{Enabled: true, Window: 200 * time.Microsecond, MaxBatch: 64},
	}
	if dataDir != "" {
		cfg.Durable = durable.Options{Dir: dataDir, Fsync: durable.FsyncOff, CkptEvery: ckptEvery}
	}
	return cfg
}
