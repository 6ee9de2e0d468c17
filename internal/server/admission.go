// Value-cognizant admission control. The paper's Sec. 3 machinery decides
// which transaction deserves the CPU when conflicts resolve; the same
// expected-value calculus applies one layer up, at the door: when the
// server is saturated, the waiting transaction with the highest expected
// value EV_u(x) = V_u(x) * EF_u(x) (Def. 7) is dispatched first, and a
// waiter whose value function has crossed zero (Def. 2's penalty decline
// has consumed its whole value) is shed — running it can no longer add
// value, only steal capacity from transactions that still can.

package server

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/server/opts"
	"repro/internal/value"
)

// ErrShed is returned by Acquire when a transaction is refused admission:
// either its value function already crossed zero, or it was evicted from a
// full queue as the lowest-expected-value waiter.
var ErrShed = errors.New("server: admission shed")

// AdmissionConfig configures the admission queue.
type AdmissionConfig struct {
	// MaxConcurrent is the number of transactions allowed in the engine at
	// once (default 64).
	MaxConcurrent int
	// MaxQueue bounds the waiting room; a full queue evicts the
	// lowest-expected-value waiter (default 1024).
	MaxQueue int
}

// The execution-time model is not configurable. The per-operation
// service-time estimate starts at initOpTime and is refined online from
// observed completions — the live analogue of class statistics
// "obtained off-line from the previous history of the system" (Sec.
// 3.2); execution times are assumed to spread by relSigma of their mean
// (the workload model's jitter).
const (
	initOpTime = 200e-6 // seconds
	relSigma   = 0.2
)

func (c *AdmissionConfig) defaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
}

// AdmissionStats are cumulative admission counters. Admitted counts
// grants, including re-grants to readmitted cross-shard retries; Shed
// includes readmission sheds, so front-door sheds are Shed minus the
// server's cross_shed counter.
type AdmissionStats struct {
	Admitted int64
	Shed     int64
	Depth    int     // current queue depth
	InFlight int     // currently admitted
	OpTime   float64 // current per-op service-time estimate (seconds)
}

type waiter struct {
	f     value.Fn
	d     value.ExecDist
	grant chan error
	score float64 // Def. 7 expected value, refreshed each dispatch sweep
}

// Admission is the value-cognizant admission queue.
type Admission struct {
	cfg   AdmissionConfig
	epoch time.Time

	mu       sync.Mutex
	closed   bool
	slots    int
	waiters  []*waiter
	opTime   float64 // EWMA of per-op service time, seconds
	admitted int64
	shed     int64
}

// NewAdmission returns an admission queue with all slots free.
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg.defaults()
	return &Admission{
		cfg:    cfg,
		epoch:  time.Now(),
		slots:  cfg.MaxConcurrent,
		opTime: initOpTime,
	}
}

// now returns seconds since the queue's epoch — the absolute time base the
// value functions are expressed in.
func (a *Admission) now() float64 { return time.Since(a.epoch).Seconds() }

// FnOf anchors parsed wire options to the queue's clock: the Def. 2
// value function of a request arriving now (opts.T.Fn holds the
// semantics every value-carrying path shares).
func (a *Admission) FnOf(o opts.T) value.Fn { return o.Fn(a.now()) }

// distFor builds the Def. 3 execution-time distribution for a request of
// numOps operations from the current service-time estimate.
func (a *Admission) distFor(numOps int) value.ExecDist {
	if numOps <= 0 {
		numOps = 1
	}
	mean := float64(numOps) * a.opTime
	return value.ExecDist{Mean: mean, Sigma: relSigma * mean}
}

// score is the Def. 7 expected value of dispatching w now: its value
// function evaluated one mean execution time ahead, weighted by the
// probability a fresh shadow finishes by then.
func (a *Admission) score(w *waiter, now float64) float64 {
	sh := []value.ShadowState{{Executed: 0, Adoption: 1}}
	return value.ExpectedValue(w.f, w.d, sh, now, w.d.Mean)
}

// Close sheds every queued waiter and makes all future Acquire/Readmit
// calls fail with ErrShed. A closing server calls it before waiting out
// its connection handlers: a handler parked in the queue behind slots
// that only session teardown would free must not stall shutdown.
func (a *Admission) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	for _, w := range a.waiters {
		a.shed++
		w.grant <- ErrShed
	}
	a.waiters = nil
}

// Acquire blocks until the transaction is admitted or shed. numOps sizes
// the execution-time estimate; f orders the wait and decides shedding.
func (a *Admission) Acquire(f value.Fn, numOps int) error { return a.acquire(f, numOps, nil) }

// acquire is Acquire with a request's wait hook, called before the
// caller blocks in the queue.
func (a *Admission) acquire(f value.Fn, numOps int, beforeWait func()) error {
	a.mu.Lock()
	if a.closed || f.At(a.now()) <= 0 {
		a.shed++
		a.mu.Unlock()
		return ErrShed
	}
	if a.slots > 0 && len(a.waiters) == 0 {
		a.slots--
		a.admitted++
		a.mu.Unlock()
		return nil
	}
	w := a.enqueueLocked(f, numOps)
	a.mu.Unlock()
	if w == nil {
		return ErrShed
	}
	return engine.Await(w.grant, beforeWait)
}

// enqueueLocked appends a waiter, applying the value-cognizant overflow
// policy: a full queue evicts the lowest-expected-value waiter, which may
// be the newcomer itself (nil return). Caller holds a.mu.
func (a *Admission) enqueueLocked(f value.Fn, numOps int) *waiter {
	now := a.now()
	w := &waiter{f: f, d: a.distFor(numOps), grant: make(chan error, 1)}
	if len(a.waiters) >= a.cfg.MaxQueue {
		evict, evictScore := -1, a.score(w, now)
		for i, other := range a.waiters {
			if sc := a.score(other, now); sc < evictScore {
				evict, evictScore = i, sc
			}
		}
		a.shed++
		if evict < 0 {
			return nil
		}
		victim := a.waiters[evict]
		a.waiters = append(a.waiters[:evict], a.waiters[evict+1:]...)
		victim.grant <- ErrShed
	}
	a.waiters = append(a.waiters, w)
	return w
}

// Readmit yields the caller's admission slot and immediately re-queues
// for a fresh grant. Cross-shard retries use it so a restarted
// transaction re-competes for capacity by expected value — the queue
// dispatches the highest-EV waiter first and sheds the caller outright
// once its value function has crossed zero — instead of retrying while
// still holding the slot it was first admitted on. The caller is
// enqueued before the slot is freed, all under one lock hold, so it
// competes for its own freed slot in the same expected-value sweep as
// every parked waiter — surrendering first would hand the slot to a
// lower-EV waiter unconditionally. On ErrShed the slot has already been
// surrendered; the caller must not Release again. beforeWait, when set,
// is called before the caller blocks for its grant.
func (a *Admission) Readmit(f value.Fn, numOps int, beforeWait func()) error {
	a.mu.Lock()
	var w *waiter
	if a.closed || f.At(a.now()) <= 0 {
		a.shed++
	} else {
		w = a.enqueueLocked(f, numOps)
	}
	a.slots++
	a.dispatchLocked()
	a.mu.Unlock()
	if w == nil {
		return ErrShed
	}
	return engine.Await(w.grant, beforeWait)
}

// Release returns a slot and reports the observed service time, refining
// the per-op estimate. It then dispatches waiters: sheds everything past
// its zero-crossing and grants slots in decreasing expected value.
func (a *Admission) Release(elapsed time.Duration, numOps int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if numOps > 0 && elapsed > 0 {
		const alpha = 0.05
		perOp := elapsed.Seconds() / float64(numOps)
		a.opTime = (1-alpha)*a.opTime + alpha*perOp
	}
	a.slots++
	a.dispatchLocked()
}

// dispatchLocked grants free slots to the highest-expected-value waiters,
// shedding waiters whose value functions crossed zero. Each waiter is
// scored once per dispatch (not once per freed slot), so draining a deep
// queue costs O(depth log depth) under the lock. Caller holds a.mu.
func (a *Admission) dispatchLocked() {
	if a.slots == 0 || len(a.waiters) == 0 {
		return
	}
	now := a.now()
	kept := a.waiters[:0]
	for _, w := range a.waiters {
		if w.f.At(now) <= 0 {
			a.shed++
			w.grant <- ErrShed
			continue
		}
		w.score = a.score(w, now)
		kept = append(kept, w)
	}
	a.waiters = kept
	sort.SliceStable(a.waiters, func(i, j int) bool {
		return a.waiters[i].score > a.waiters[j].score
	})
	for a.slots > 0 && len(a.waiters) > 0 {
		w := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.slots--
		a.admitted++
		w.grant <- nil
	}
}

// Stats returns a snapshot of the counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		Admitted: a.admitted,
		Shed:     a.shed,
		Depth:    len(a.waiters),
		InFlight: a.cfg.MaxConcurrent - a.slots,
		OpTime:   a.opTime,
	}
}
