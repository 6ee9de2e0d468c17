// Value-cognizant replica read admission. A stale replica read is just
// another speculative execution: serving it is betting that its result is
// still worth something once the client acts on it. The LagGate prices
// that bet with the paper's value functions — a read-only transaction
// whose value function would cross zero before the replica's estimated
// catch-up can no longer add value, so it is shed (Sec. 3's zero-crossing
// rule lifted to replication lag).

package repl

import (
	"errors"
	"sync"
	"time"

	"repro/internal/value"
)

// ErrLagging is returned by LagGate.Admit for a read shed on replica lag.
var ErrLagging = errors.New("repl: replica lag sheds read past its zero-crossing")

// LagGate tracks a replica's replication progress — the primary's head
// position it knows of and the position it has applied through — and
// decides, per read-only transaction, whether serving it now can still
// add value. All methods are safe for concurrent use. Time inputs are
// explicit (seconds, the caller's clock base), so tests are
// deterministic.
type LagGate struct {
	budget float64 // estimated catch-up seconds tolerated without shedding

	mu      sync.Mutex
	seen    uint64  // highest position known to exist on the primary
	applied uint64  // highest position applied
	perRec  float64 // EWMA seconds to apply one part
	shed    int64
}

// NewLagGate returns a gate tolerating budget of estimated catch-up
// time before value-based shedding starts; initPerRec seeds the
// per-part apply-time estimate (default 20µs when <= 0).
func NewLagGate(budget time.Duration, initPerRec time.Duration) *LagGate {
	if initPerRec <= 0 {
		initPerRec = 20 * time.Microsecond
	}
	return &LagGate{budget: budget.Seconds(), perRec: initPerRec.Seconds()}
}

// ObserveHead records that the primary's log extends at least to head.
func (g *LagGate) ObserveHead(head uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seen = max(g.seen, head)
}

// ObserveApplied records that the log has been applied through pos; took
// is the wall time spent applying n parts, refining the per-part
// estimate (pass 0, 0 to skip refinement).
func (g *LagGate) ObserveApplied(pos uint64, took time.Duration, n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.applied = max(g.applied, pos)
	g.seen = max(g.seen, pos)
	if n > 0 && took > 0 {
		const alpha = 0.1
		g.perRec = (1-alpha)*g.perRec + alpha*took.Seconds()/float64(n)
	}
}

// LagRecords returns the number of known-but-unapplied parts.
func (g *LagGate) LagRecords() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.seen - g.applied
}

// Applied returns the position applied through.
func (g *LagGate) Applied() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.applied
}

// CatchUp estimates the seconds until the replica has applied everything
// it knows about, from the current lag and per-record apply estimate.
func (g *LagGate) CatchUp() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return float64(g.seen-g.applied) * g.perRec
}

// Admit decides whether a read-only transaction with value function f may
// be served from the replica's current snapshot at time now (seconds, in
// f's clock base). Within the lag budget every read is served. Past it, a
// read is shed — counted in Shed — iff its value function crosses zero
// before the estimated catch-up: its result could never be delivered from
// fresh-enough state while it still carries value.
func (g *LagGate) Admit(f value.Fn, now float64) error {
	catch := g.CatchUp()
	if catch <= g.budget {
		return nil
	}
	if f.At(now+catch) <= 0 {
		g.mu.Lock()
		g.shed++
		g.mu.Unlock()
		return ErrLagging
	}
	return nil
}

// Shed returns the number of reads shed on lag.
func (g *LagGate) Shed() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.shed
}
