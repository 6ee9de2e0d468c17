// The wait seam. A transaction's own goroutine blocks at a few known
// points on its way through the engine: the driver waiting for a
// speculative shadow that can still park at its conflict (the Blocking
// Rule), a Termination Rule deferral (deferForValue), and a commit
// boundary syncing a log that does I/O, led or followed in the commit
// queue. Each first calls the transaction's beforeWait hook, on the
// goroutine about to block, so a caller that must not block — a
// connection's reader in the serving layer — can hand its duties off at
// that moment instead of predicting it. A nil hook costs one branch per
// site. Speculative shadows run on pooled goroutines of their own
// (pool.go) and never call it.

package engine

import "sync/atomic"

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

// event is a one-shot signal between transactions: a handle's done and an
// attempt's aborted. Firing and testing it is an atomic flag; a channel
// exists only once some goroutine has to block on the event, so a
// transaction no conflict waits on makes none.
type event struct {
	state atomic.Int32  // evOpen, evFired or evWaited
	ch    chan struct{} // made by the first blocking waiter, under store.mu
}

const (
	evOpen   int32 = iota
	evFired        // terminal
	evWaited       // open, and ch exists
)

// closedCh is what a waiter gets for an event that has already fired.
var closedCh = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()

// fired reports whether e has fired.
func (e *event) fired() bool { return e.state.Load() == evFired }

// fire fires e, closing its channel if a waiter made one, and reports
// whether this call was the one that fired it. It takes no latch: a
// waiter publishes ch before it publishes evWaited.
func (e *event) fire() bool {
	old := e.state.Swap(evFired)
	if old == evWaited {
		close(e.ch)
	}
	return old != evFired
}

// waitLocked returns a channel that is closed once e fires, making it on
// the first call. Callers hold the store latch, which orders the waiters
// of one event among themselves.
func (e *event) waitLocked() <-chan struct{} {
	switch e.state.Load() {
	case evWaited:
		return e.ch
	case evFired:
		return closedCh
	}
	e.ch = make(chan struct{})
	if !e.state.CompareAndSwap(evOpen, evWaited) {
		return closedCh // fired since the load
	}
	return e.ch
}
