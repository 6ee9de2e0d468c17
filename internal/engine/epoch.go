// Commit epochs: a store-group-wide monotone counter stamped on every
// commit-log record. Within one shard's commit order, epochs are strictly
// increasing (every allocation happens under that shard's commit latch),
// and a cross-shard commit carries ONE epoch on all of its parts — the
// identity a replica reads its parts as one record by (internal/repl)
// and a checkpoint's watermark is taken in (internal/durable).
//
// The type lives in package engine, the bottom of the serving dependency
// chain, so repl, shard, durable and server can all share one instance.

package engine

import "sync/atomic"

// Epochs allocates global commit epochs. The zero value is ready to use;
// epoch 0 is never allocated and means "standalone record, sink-stamped"
// throughout the serving stack.
type Epochs struct{ n atomic.Uint64 }

// Next allocates the next epoch (1, 2, ...). Callers on the commit path
// hold the latches of every shard the epoch's record(s) will land on, so
// per-shard log order agrees with epoch order.
func (e *Epochs) Next() uint64 { return e.n.Add(1) }

// Observe raises the counter to at least n. Recovery calls it with the
// largest epoch found on disk so fresh allocations never collide with
// history.
func (e *Epochs) Observe(n uint64) {
	for {
		cur := e.n.Load()
		if n <= cur || e.n.CompareAndSwap(cur, n) {
			return
		}
	}
}
