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
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/server/opts"
	"repro/internal/value"
)

// ErrShed is returned by Acquire when a transaction is refused admission:
// either its value function already crossed zero, or it was evicted from a
// full queue as the lowest-expected-value waiter.
var ErrShed = errors.New("server: admission shed")

// ErrTenantShed is the admission refusal for a request whose tenant is
// over its rolling admitted-value budget. It wraps ErrShed — every
// existing errors.Is(err, ErrShed) site treats it as a shed — while
// letting the server attribute the loss to the budget, not the queue.
var ErrTenantShed = fmt.Errorf("%w: tenant over value budget", ErrShed)

// AdmissionConfig configures the admission queue.
type AdmissionConfig struct {
	// MaxConcurrent is the number of transactions allowed in the engine at
	// once (default 64).
	MaxConcurrent int
	// MaxQueue bounds the waiting room; a full queue evicts the
	// lowest-expected-value waiter (default 1024).
	MaxQueue int
	// TenantBudget caps the value each tenant (the tenant= wire token)
	// may have admitted per second, measured over a rolling tenantWindow.
	// A tenant over its budget is shed exactly where zero-crossed waiters
	// are shed — at the door and in every dispatch sweep — so a hog
	// tenant saturates its own budget instead of the whole queue. 0
	// disables budgets; untagged requests are never budget-shed.
	TenantBudget float64
}

// The execution-time model and the budget window are not configurable.
// The per-operation service-time estimate starts at initOpTime and is
// refined online from observed completions — the live analogue of class
// statistics "obtained off-line from the previous history of the
// system" (Sec. 3.2); execution times are assumed to spread by relSigma
// of their mean (the workload model's jitter); tenant budgets are
// metered over a rolling tenantWindow.
const (
	initOpTime   = 200e-6 // seconds
	relSigma     = 0.2
	tenantWindow = time.Second
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
// grants, including re-grants to readmitted cross-shard retries;
// Readmits counts retry re-entries (whether re-granted or shed); Shed
// includes readmission sheds. Front-door sheds are therefore Shed minus
// the server's cross_shed counter, and front-door grants are
// Admitted - (Readmits - cross_shed).
type AdmissionStats struct {
	Admitted   int64
	Shed       int64
	TenantShed int64   // subset of Shed caused by tenant budgets
	Readmits   int64   // Readmit calls (cross-shard retries re-entering the queue)
	Depth      int     // current queue depth
	InFlight   int     // currently admitted
	Tenants    int     // tenant budget meters currently tracked
	OpTime     float64 // current per-op service-time estimate (seconds)
}

type waiter struct {
	f      value.Fn
	d      value.ExecDist
	grant  chan error
	tenant string
	score  float64 // Def. 7 expected value, refreshed each dispatch sweep
}

// tenantBuckets subdivides the rolling budget window; a coarse ring is
// enough — the budget is a rate cap, not an accounting ledger.
const tenantBuckets = 10

// tenantMeter tracks one tenant's admitted value over the rolling
// window as a ring of window/tenantBuckets-wide buckets.
type tenantMeter struct {
	buckets [tenantBuckets]float64
	last    int64 // absolute bucket index the ring is positioned at
}

// advance zeroes buckets between the meter's position and bucket.
func (m *tenantMeter) advance(bucket int64) {
	step := bucket - m.last
	if step <= 0 {
		return
	}
	if step > tenantBuckets {
		step = tenantBuckets
	}
	for i := int64(1); i <= step; i++ {
		m.buckets[(m.last+i)%tenantBuckets] = 0
	}
	m.last = bucket
}

// total returns the admitted value over the window.
func (m *tenantMeter) total() float64 {
	sum := 0.0
	for _, b := range m.buckets {
		sum += b
	}
	return sum
}

// Admission is the value-cognizant admission queue.
type Admission struct {
	cfg   AdmissionConfig
	epoch time.Time

	mu         sync.Mutex
	closed     bool
	slots      int
	waiters    []*waiter
	opTime     float64 // EWMA of per-op service time, seconds
	admitted   int64
	shed       int64
	tenantShed int64
	readmits   int64
	tenants    map[string]*tenantMeter
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

// meterLocked returns tenant's budget meter advanced to now, creating
// it on first sight. Meters are client-named map entries; past a
// generous cap, drained meters (nothing admitted in the current window)
// are swept so an adversarial name stream cannot grow the map without
// also spending budget. Caller holds a.mu.
func (a *Admission) meterLocked(tenant string, now float64) *tenantMeter {
	if a.tenants == nil {
		a.tenants = make(map[string]*tenantMeter)
	}
	bucket := int64(now / (tenantWindow.Seconds() / tenantBuckets))
	m := a.tenants[tenant]
	if m == nil {
		if len(a.tenants) >= 4096 {
			for name, other := range a.tenants {
				other.advance(bucket)
				if other.total() == 0 {
					delete(a.tenants, name)
				}
			}
		}
		m = &tenantMeter{last: bucket}
		a.tenants[tenant] = m
	}
	m.advance(bucket)
	return m
}

// overBudgetLocked reports whether tenant has already admitted its
// budgeted value for the current rolling window. Caller holds a.mu.
func (a *Admission) overBudgetLocked(tenant string, now float64) bool {
	if a.cfg.TenantBudget <= 0 || tenant == "" {
		return false
	}
	return a.meterLocked(tenant, now).total() >= a.cfg.TenantBudget*tenantWindow.Seconds()
}

// chargeLocked records v admitted value against tenant's budget.
// Caller holds a.mu.
func (a *Admission) chargeLocked(tenant string, now, v float64) {
	if a.cfg.TenantBudget <= 0 || tenant == "" {
		return
	}
	m := a.meterLocked(tenant, now)
	m.buckets[m.last%tenantBuckets] += v
}

// Acquire blocks until the transaction is admitted or shed. numOps sizes
// the execution-time estimate; f orders the wait and decides shedding.
func (a *Admission) Acquire(f value.Fn, numOps int) error {
	return a.AcquireTenant(f, numOps, "")
}

// AcquireTenant is Acquire with the request attributed to a tenant
// budget: a tenant over its rolling admitted-value budget is refused
// with ErrTenantShed at the same decision points where zero-crossed
// value functions are shed. The admitted value V(now) is charged to the
// budget at grant time.
func (a *Admission) AcquireTenant(f value.Fn, numOps int, tenant string) error {
	a.mu.Lock()
	if a.closed {
		a.shed++
		a.mu.Unlock()
		return ErrShed
	}
	now := a.now()
	if f.At(now) <= 0 {
		a.shed++
		a.mu.Unlock()
		return ErrShed
	}
	if a.overBudgetLocked(tenant, now) {
		a.shed++
		a.tenantShed++
		a.mu.Unlock()
		return ErrTenantShed
	}
	if a.slots > 0 && len(a.waiters) == 0 {
		a.slots--
		a.admitted++
		a.chargeLocked(tenant, now, f.At(now))
		a.mu.Unlock()
		return nil
	}
	w := a.enqueueLocked(f, numOps, tenant)
	a.mu.Unlock()
	if w == nil {
		return ErrShed
	}
	return <-w.grant
}

// enqueueLocked appends a waiter, applying the value-cognizant overflow
// policy: a full queue evicts the lowest-expected-value waiter, which may
// be the newcomer itself (nil return). Caller holds a.mu.
func (a *Admission) enqueueLocked(f value.Fn, numOps int, tenant string) *waiter {
	now := a.now()
	w := &waiter{f: f, d: a.distFor(numOps), grant: make(chan error, 1), tenant: tenant}
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
// surrendered; the caller must not Release again. Readmission is
// tenant-blind: the transaction's value was charged to its tenant's
// budget at first admission, and shedding a half-executed cross-shard
// retry over a budget it already paid would only waste the work.
func (a *Admission) Readmit(f value.Fn, numOps int) error {
	a.mu.Lock()
	a.readmits++
	var w *waiter
	if a.closed || f.At(a.now()) <= 0 {
		a.shed++
	} else {
		w = a.enqueueLocked(f, numOps, "")
	}
	a.slots++
	a.dispatchLocked()
	a.mu.Unlock()
	if w == nil {
		return ErrShed
	}
	return <-w.grant
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
		// Over-budget tenants are shed first, at the zero-crossing
		// sweep: their waiters leave the queue before anything is
		// granted, so a hog's backlog cannot crowd the sort.
		if a.overBudgetLocked(w.tenant, now) {
			a.shed++
			a.tenantShed++
			w.grant <- ErrTenantShed
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
		a.chargeLocked(w.tenant, now, w.f.At(now))
		w.grant <- nil
	}
}

// Stats returns a snapshot of the counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		Admitted:   a.admitted,
		Shed:       a.shed,
		TenantShed: a.tenantShed,
		Readmits:   a.readmits,
		Depth:      len(a.waiters),
		InFlight:   a.cfg.MaxConcurrent - a.slots,
		Tenants:    len(a.tenants),
		OpTime:     a.opTime,
	}
}
