// The wait seam. A transaction's own goroutine blocks at a few known
// points on its way through the engine: the driver waiting for a
// speculative shadow that can still park at its conflict (the Blocking
// Rule), a Termination Rule deferral (deferForValue), and a commit
// boundary syncing a log that does I/O, led or followed in the commit
// queue. Each first calls the transaction's beforeWait hook, on the
// goroutine about to block, so a caller that must not block — a
// connection's reader in the serving layer — can hand its duties off at
// that moment instead of predicting it. A nil hook costs one branch per
// site. Speculative shadows run on goroutines of their own and never
// call it.

package engine

// Await receives from ch. When the receive would block and beforeWait is
// set, it calls beforeWait first.
func Await[T any](ch <-chan T, beforeWait func()) T {
	if beforeWait != nil {
		select {
		case v := <-ch:
			return v
		default:
			beforeWait()
		}
	}
	return <-ch
}

// onDevice returns beforeWait when a commit through q syncs a log that
// waits on a device, else nil: a wait behind an in-memory commit is a
// latch hold, not announced (announcing it cost hot_shard up to 28 %).
func (q *CommitQueue) onDevice(beforeWait func()) func() {
	for _, i := range q.latch {
		if q.stores[i].durable.Load() {
			return beforeWait
		}
	}
	return nil
}
