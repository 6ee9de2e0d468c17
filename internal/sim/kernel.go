// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, which
// makes every simulation replayable: the same seed and inputs produce the
// same event trace.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is virtual time in seconds.
type Time float64

// Event is a scheduled callback. It is returned by At/After so callers can
// cancel it before it fires.
type Event struct {
	at       Time
	seq      int64
	fn       func()
	canceled bool
	index    int // heap index, -1 when popped
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Kernel is a single-threaded discrete-event simulator.
type Kernel struct {
	now     Time
	q       eventHeap
	seq     int64
	stopped bool
	steps   int64
}

// New returns a kernel with the clock at zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Steps returns the number of events fired so far.
func (k *Kernel) Steps() int64 { return k.steps }

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a model bug and silently reordering time corrupts results.
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	e := &Event{at: t, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.q, e)
	return e
}

// After schedules fn d seconds after the current time.
func (k *Kernel) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// Cancel prevents e from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.index >= 0 {
		heap.Remove(&k.q, e.index)
	}
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Step fires the next event. It reports false when the queue is empty.
func (k *Kernel) Step() bool {
	for len(k.q) > 0 {
		e := heap.Pop(&k.q).(*Event)
		if e.canceled {
			continue
		}
		k.now = e.at
		k.steps++
		e.fn()
		return true
	}
	return false
}

// Run fires events until the queue drains or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
func (k *Kernel) RunUntil(t Time) {
	k.stopped = false
	for !k.stopped {
		if len(k.q) == 0 || k.peek().at > t {
			break
		}
		k.Step()
	}
	if t > k.now {
		k.now = t
	}
}

func (k *Kernel) peek() *Event {
	for len(k.q) > 0 && k.q[0].canceled {
		heap.Pop(&k.q)
	}
	if len(k.q) == 0 {
		return nil
	}
	return k.q[0]
}
