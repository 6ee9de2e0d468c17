// This file implements commit deferment (Sec. 3) over SCC's waiting
// room. Under a deferral a finished optimistic shadow enters the room
// instead of committing, and a Termination Rule picks which waiter
// commits next: when the shadow finishes, after every commit, and every
// period seconds. The room, its sweep and its tick are SCC's; each policy
// is only its rule.
//
// SCC-DC and SCC-VW weigh the value-added of committing now against
// deferring, using transaction value functions and (for SCC-DC) the
// shadow finish and adoption probabilities of Defs. 3-7. WAIT-50, the
// evaluation's priority-cognizant baseline, is Haritsa's 50 % rule on
// OCC-BC.

package core

import (
	"slices"

	"repro/internal/model"
	"repro/internal/rtdbs"
	"repro/internal/sim"
	"repro/internal/value"
)

// deferral is a commit-deferment policy: its Termination Rule and when
// SCC runs it.
type deferral struct {
	// pick returns the waiter to commit now, or nil to keep them all
	// waiting; waiting is in ID order.
	pick func(waiting []*txnState) *txnState
	// period is the seconds between the rule's periodic sweeps of the
	// waiting room; 0 runs none.
	period float64
	// atTicks confines commits to the periodic sweeps. Otherwise the rule
	// also runs on a finishing shadow alone ("whenever an optimistic
	// shadow finishes") and over the room after every commit.
	atTicks bool
}

// enter puts st, whose optimistic shadow just finished, in the waiting
// room, unless the rule commits it at once.
func (c *SCC) enter(st *txnState) {
	st.finished = true
	i, _ := find(c.waiting, st.t.ID)
	c.waiting = slices.Insert(c.waiting, i, st)
	if !c.defr.atTicks && c.defr.pick(c.waiting[i:i+1]) != nil {
		c.rt.Commit(st.opt)
		return
	}
	c.rt.Metrics.CommitWaits++
}

// sweep commits what the rule picks until it picks nothing: each commit
// restarts its readers and reshapes the others' conflict sets, so the
// rule looks again after every one. A commit inside the sweep re-enters
// through OnCommitted, which must not start a second sweep.
func (c *SCC) sweep() {
	if c.sweeping {
		return
	}
	c.sweeping = true
	defer func() { c.sweeping = false }()
	for len(c.waiting) > 0 {
		st := c.defr.pick(c.waiting)
		if st == nil {
			return
		}
		c.rt.Commit(st.opt)
	}
}

// tick sweeps the waiting room every period seconds.
func (c *SCC) tick() {
	c.rt.K.After(sim.Time(c.defr.period), func() {
		c.sweep()
		c.tick()
	})
}

// first returns the rule that picks the first waiter, in ID order, that
// ready accepts.
func first(ready func(*txnState) bool) func([]*txnState) *txnState {
	return func(waiting []*txnState) *txnState {
		if i := slices.IndexFunc(waiting, ready); i >= 0 {
			return waiting[i]
		}
		return nil
	}
}

// noneExecuting reports whether no transaction in conf is still
// executing: every one has finished and waits in the room.
//
// SCC-DC and SCC-VW use it for stall safety, an engineering addition and
// not the paper's rule. Their V_later side assumes that a conflicter
// still executing will finish and commit; when none is, waiting cannot
// produce that commit, and a cluster of finished transactions deferring
// to each other could stay on "defer" while every value function decays
// in lockstep. So SCC-VW commits such a waiter, and SCC-DC commits the
// most valuable one when its comparison picks none.
func (c *SCC) noneExecuting(conf []model.TxnID) bool {
	for _, id := range conf {
		if !c.txns[id].finished {
			return false
		}
	}
	return true
}

// survivor returns the shadow st carries on with if u, whose write set is
// ws, commits now: its optimistic shadow if that read none of ws, else
// its speculative shadow waiting for u if that read none either, else
// nil (a restart from scratch).
func (st *txnState) survivor(u model.TxnID, ws []model.PageID) *rtdbs.Shadow {
	f := st.opt.Log.FirstReadOfAny(ws)
	if f < 0 {
		return st.opt
	}
	if sp := st.spec(u); sp != nil && sp.sh.NextOp <= f {
		return sp.sh
	}
	return nil
}

// execDist returns the Def. 3 execution-time distribution of a class. The
// workload draws per-transaction execution rates from a truncated normal
// around the class mean, which is exactly what this models.
func execDist(cl *model.Class) value.ExecDist {
	mean := cl.MeanExec()
	return value.ExecDist{
		Mean:  mean,
		Sigma: cl.ExecJitter * mean,
		Min:   0.4 * mean,
	}
}

// conflictSet returns the IDs of active transactions conflicting with st
// in either direction (they read st's writes, or st read theirs), sorted.
func (c *SCC) conflictSet(st *txnState) []model.TxnID {
	r := st.t.ID
	ids := c.appendReaders(nil, st.opt.Log.WritePages(), r)
	for _, obs := range st.opt.Log.Reads() {
		for _, h := range c.writers[obs.Page] {
			if h.id != r {
				ids = append(ids, h.id)
			}
		}
	}
	return distinct(ids)
}

// ---------------------------------------------------------------------------
// SCC-DC
// ---------------------------------------------------------------------------

// DC implements SCC with Deferred Commit. Every Delta seconds the
// Termination Rule examines each finished shadow T_o_u: commit now if the
// expected value-added V_now is at least the expected value-added V_later
// of deferring, computed from expected-finish probabilities (Def. 6) and
// value functions (Def. 7).
//
// Following the paper, the infinite sums are truncated at the horizon l_i
// where the finish probability reaches 1-eps. The per-tick contribution
// uses the probability mass of finishing in that tick (EF(k) - EF(k-1));
// the cumulative form printed in the paper double-counts ticks and would
// make deferring always win.
type DC struct {
	c     *SCC
	Delta float64 // Termination Rule period (seconds)
	Eps   float64 // horizon tolerance (default 0.01)
}

// NewDC returns SCC-kS extended with the SCC-DC Termination Rule. Commits
// happen only at clock ticks ("they wait at least until the next periodic
// invocation of the Termination Rule").
func NewDC(k int, delta float64) *SCC {
	c := NewKS(k, LBFO)
	d := &DC{c: c, Delta: delta, Eps: 0.01}
	c.defr = &deferral{pick: d.terminationRule, period: delta, atTicks: true}
	c.name = "SCC-DC"
	return c
}

// terminationRule picks the waiter to commit at a tick: the first for
// which committing now wins, else the most valuable one that no
// executing conflicter can release (see noneExecuting).
func (d *DC) terminationRule(waiting []*txnState) *txnState {
	now := float64(d.c.rt.K.Now())
	// Adoption probabilities and conflict sets are computed once per
	// pick, not once per waiter: the fixed point is global and the sweep
	// picks again after every commit anyway.
	confCache := make(map[model.TxnID][]model.TxnID)
	confOf := func(id model.TxnID) []model.TxnID {
		if c, ok := confCache[id]; ok {
			return c
		}
		c := d.c.conflictSet(d.c.txns[id])
		confCache[id] = c
		return c
	}
	pO := d.adoptionForCached(now, confOf)
	var stalled *txnState
	for _, st := range waiting {
		conf := confOf(st.t.ID)
		if len(conf) == 0 || d.commitNowWins(st, conf, pO, confOf, now) {
			return st
		}
		if d.c.noneExecuting(conf) && (stalled == nil ||
			st.t.Value(d.c.rt.K.Now()) > stalled.t.Value(d.c.rt.K.Now())) {
			stalled = st
		}
	}
	return stalled
}

// adoptionForCached computes Def. 5 adoption probabilities for all active
// transactions by fixed-point iteration (the definition is mutually
// recursive through the conflicting transactions' P_o), reusing the
// caller's conflict-set cache.
func (d *DC) adoptionForCached(now float64, confOf func(model.TxnID) []model.TxnID) map[model.TxnID]float64 {
	pOpt := make(map[model.TxnID]float64)
	ids := d.c.rt.ActiveIDs()
	for _, id := range ids {
		pOpt[id] = 1
	}
	for iter := 0; iter < 3; iter++ {
		for _, id := range ids {
			pOpt[id], _ = d.adoption(d.c.txns[id], pOpt, confOf, now)
		}
	}
	return pOpt
}

// adoption returns st's Def. 5 adoption probabilities, P_o_u and P_i_u
// per conflict in confOf order, given its conflicters' P_o in pO.
func (d *DC) adoption(st *txnState, pO map[model.TxnID]float64, confOf func(model.TxnID) []model.TxnID, now float64) (float64, []float64) {
	conf := confOf(st.t.ID)
	vs := make([]float64, len(conf))
	ps := make([]float64, len(conf))
	for i, cid := range conf {
		vs[i] = d.c.txns[cid].t.Value(sim.Time(now))
		ps[i] = pO[cid]
	}
	return value.Adoption(st.t.Value(sim.Time(now)), vs, ps)
}

// shadowStates assembles the Def. 6 shadow list of transaction st. The
// optimistic shadow carries pO adoption mass; speculative shadows split
// the rest proportionally to the value-weight of the conflict they cover
// (Def. 5's P_i_u).
func (d *DC) shadowStates(st *txnState, pO map[model.TxnID]float64, confOf func(model.TxnID) []model.TxnID, now float64) []value.ShadowState {
	po, pSpec := d.adoption(st, pO, confOf, now)
	out := []value.ShadowState{{
		Executed: st.opt.EstExecutedTime(),
		Adoption: po,
		Finished: st.finished,
	}}
	for i, cid := range confOf(st.t.ID) {
		sp := st.spec(cid)
		if sp == nil {
			continue // unaccounted conflict: no shadow carries its mass
		}
		out = append(out, value.ShadowState{
			Executed: sp.sh.EstExecutedTime(),
			Adoption: pSpec[i],
		})
	}
	return out
}

// expectedDeferredValue returns sum_k V(t+k*Delta) * P[finish in tick k]
// truncated at the 1-eps horizon.
func (d *DC) expectedDeferredValue(t *model.Txn, shadows []value.ShadowState, now float64) float64 {
	dist := execDist(t.Class)
	horizon := dist.TailHorizon(d.Eps)
	kMax := int(horizon/d.Delta) + 2
	if kMax > 200 {
		kMax = 200
	}
	total, prev := 0.0, 0.0
	for k := 1; k <= kMax; k++ {
		dt := float64(k) * d.Delta
		ef := value.ExpectedFinish(dist, shadows, dt)
		mass := ef - prev
		prev = ef
		if mass <= 0 {
			continue
		}
		total += t.Value(sim.Time(now+dt)) * mass
	}
	return total
}

// commitNowWins evaluates the Termination Rule comparison for finished st.
//
// V_now  = V_u(t) + sum_i EV_i(after u commits)
// V_later = sum_k EV_u(t+k*Delta) + sum_i EV_i(current shadows)
//
// The EV_i terms differ between the two sides through T_i's shadow
// configuration: committing u now aborts each conflicting T_i's exposed
// optimistic shadow, leaving its speculative shadow (or a restart) to
// carry on.
func (d *DC) commitNowWins(st *txnState, conf []model.TxnID, pO map[model.TxnID]float64, confOf func(model.TxnID) []model.TxnID, now float64) bool {
	u := st.t

	vNow := u.Value(sim.Time(now))
	vLater := d.expectedDeferredValue(u, d.shadowStates(st, pO, confOf, now), now)

	ws := st.opt.Log.WritePages()
	for _, cid := range conf {
		ist := d.c.txns[cid]
		// Later: T_i continues with its current shadows.
		cur := d.shadowStates(ist, pO, confOf, now)
		vLater += d.expectedDeferredValue(ist.t, cur, now)
		// Now: if T_i read u's writes its optimistic shadow dies; the
		// shadow waiting for u (or a scratch restart) carries on alone.
		after := cur
		if sh := ist.survivor(u.ID, ws); sh != ist.opt {
			after = []value.ShadowState{{Adoption: 1}}
			if sh != nil {
				after[0].Executed = sh.EstExecutedTime()
			}
		}
		vNow += d.expectedDeferredValue(ist.t, after, now)
	}
	return vNow >= vLater
}

// ---------------------------------------------------------------------------
// SCC-VW
// ---------------------------------------------------------------------------

// VW implements SCC with Voted Waiting (Sec. 3.3), the cheap approximation
// of SCC-DC: each executing transaction conflicting with a finished shadow
// votes for or against committing it by comparing two value estimates
// built from class-mean remaining execution times; votes are weighed by
// relative transaction value and the shadow commits iff the weighted
// commit indicator exceeds 50%.
type VW struct{ c *SCC }

// NewVW returns SCC-kS extended with the SCC-VW Termination Rule, which
// also re-runs the vote for the waiters every delta seconds.
func NewVW(k int, delta float64) *SCC {
	c := NewKS(k, LBFO)
	v := &VW{c}
	c.defr = &deferral{pick: first(v.shouldCommit), period: delta}
	c.name = "SCC-VW"
	return c
}

// shouldCommit computes the commit indicator CI_u (Defs. 8-10).
func (v *VW) shouldCommit(st *txnState) bool {
	now := float64(v.c.rt.K.Now())
	conf := v.c.conflictSet(st)
	if v.c.noneExecuting(conf) {
		return true // no conflict, or stall safety
	}

	u := st.t
	vU := u.Value(sim.Time(now))
	// Relative weights w_i(t) with a small positive floor so transactions
	// deep past their deadlines cannot produce negative weights.
	weight := make(map[model.TxnID]float64, len(conf))
	totalW := 0.0
	for _, cid := range conf {
		w := v.c.txns[cid].t.Value(sim.Time(now))
		if w < 1e-9 {
			w = 1e-9
		}
		weight[cid] = w
		totalW += w
	}

	ci := 0.0
	ws := st.opt.Log.WritePages()
	for _, cid := range conf {
		ist := v.c.txns[cid]
		ti := ist.t
		eci := ti.Class.MeanExec()

		// sigma_u_i: executed time of T_i's shadow that accounts for the
		// conflict with u — the shadow T_i falls back on if u commits now
		// (0 for a restart from scratch).
		var sigmaUI float64
		if sh := ist.survivor(u.ID, ws); sh != nil {
			sigmaUI = sh.EstExecutedTime()
		}
		vNow := vU + ti.Value(sim.Time(now+eci-sigmaUI))

		// later: when T_i's own optimistic shadow is expected to finish.
		sigmaOI := ist.opt.EstExecutedTime()
		later := now + eci - sigmaOI
		if later < now {
			later = now
		}
		var vLater float64
		if sp := st.spec(cid); sp != nil {
			// u has a shadow for the conflict with T_i: T_i's commit
			// aborts u's finished shadow; u resumes from the fork.
			ecu := u.Class.MeanExec()
			sigmaIU := sp.sh.EstExecutedTime()
			vLater = ti.Value(sim.Time(later)) + u.Value(sim.Time(later+ecu-sigmaIU))
		} else {
			// No shadow: u's finished shadow survives T_i's commit only
			// if u never read T_i's writes; it commits right after.
			vLater = ti.Value(sim.Time(later)) + u.Value(sim.Time(later))
		}
		if vNow >= vLater {
			ci += weight[cid] / totalW
		}
	}
	return ci > 0.5
}

// ---------------------------------------------------------------------------
// WAIT-50
// ---------------------------------------------------------------------------

// Wait50 is Haritsa's 50 % rule wait control [Hari90a] on OCC-BC
// (broadcast commit, [Mena82, Robi82]): a finished transaction checks the
// set of transactions its commit would restart; while at least half of
// them have higher (EDF) priority it waits instead of committing. While
// it waits it stays vulnerable: a conflicter that commits first restarts
// it like any other reader of its writes.
type Wait50 struct{ c *SCC }

// NewWait50 returns WAIT-50: OCC-BC (SCC-kS with k = 1) extended with the
// 50 % rule. It has no period: only a commit can clear a wait.
func NewWait50() *SCC {
	c := NewKS(1, LBFO)
	w := &Wait50{c}
	c.defr = &deferral{pick: first(func(st *txnState) bool { return !w.mustWait(st) })}
	c.name = "WAIT-50"
	return c
}

// mustWait applies the 50 % rule to finished st. Its conflict set is the
// active transactions whose optimistic shadow read a page st wrote (those
// its commit would restart); st waits while that set is non-empty and at
// least half of it has higher priority.
func (w *Wait50) mustWait(st *txnState) bool {
	ids := distinct(w.c.appendReaders(nil, st.opt.Log.WritePages(), st.t.ID))
	higher := 0
	for _, id := range ids {
		if w.c.txns[id].t.HigherPriority(st.t) {
			higher++
		}
	}
	return len(ids) > 0 && 2*higher >= len(ids)
}
