// This file implements SCC-DC and SCC-VW (Sec. 3): value-cognizant commit
// deferment on top of SCC-kS. Finished optimistic shadows do not commit
// immediately; a Termination Rule weighs the value-added of committing now
// against deferring, using transaction value functions and (for SCC-DC)
// the shadow finish and adoption probabilities of Defs. 3-7. It also
// implements the evaluation's priority-cognizant baseline, WAIT-50, as a
// deferral policy on OCC-BC.

package core

import (
	"slices"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/value"
)

// deferral is the hook set a commit-deferment policy plugs into SCC.
type deferral interface {
	attach(c *SCC)
	// onFinish is invoked when an optimistic shadow finishes; the policy
	// decides when it commits.
	onFinish(st *txnState)
	// onCommitted is invoked after any commit (waiters may now proceed).
	onCommitted(id model.TxnID)
	// cancel is invoked when a commit aborts a finished shadow: its
	// transaction resumed executing from a promoted shadow or restarted.
	cancel(st *txnState)
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
	c       *SCC
	Delta   float64 // Termination Rule period (seconds)
	Eps     float64 // horizon tolerance (default 0.01)
	pending []*txnState
}

// NewDC returns SCC-kS extended with the SCC-DC Termination Rule.
func NewDC(k int, delta float64) *SCC {
	c := NewKS(k, LBFO)
	c.defr = &DC{Delta: delta, Eps: 0.01}
	c.name = "SCC-DC"
	return c
}

func (d *DC) attach(c *SCC) {
	d.c = c
	d.tickLoop()
}

func (d *DC) tickLoop() {
	d.c.rt.K.After(sim.Time(d.Delta), func() {
		d.terminationRule()
		d.tickLoop()
	})
}

func (d *DC) onFinish(st *txnState) {
	d.pending = insert(d.pending, st)
	d.c.rt.Metrics.CommitWaits++
	// Commits happen only at clock ticks ("they wait at least until the
	// next periodic invocation of the Termination Rule").
}

func (d *DC) onCommitted(id model.TxnID) { d.pending = remove(d.pending, id) }
func (d *DC) cancel(st *txnState)        { d.pending = remove(d.pending, st.t.ID) }

// terminationRule is invoked at each tick.
func (d *DC) terminationRule() {
	now := float64(d.c.rt.K.Now())
	for {
		// Adoption probabilities and conflict sets are recomputed once
		// per sweep, not once per pending transaction: the fixed point is
		// global and the sweep restarts after every commit anyway.
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
		// Stall safety (documented in DESIGN.md): in a cluster of finished
		// transactions all deferring to each other, the V_now/V_later
		// comparison can stay on "defer" indefinitely while every value
		// function decays in lockstep. If a pending transaction's conflict
		// set has no transaction still executing, waiting cannot produce
		// the commit V_later assumes; commit the most valuable such
		// transaction.
		var pick, stalled *txnState
		for _, st := range d.pending {
			conf := confOf(st.t.ID)
			if len(conf) == 0 || d.commitNowWins(st, conf, pO, confOf, now) {
				pick = st
				break
			}
			allFinished := true
			for _, cid := range conf {
				if !d.c.txns[cid].finished {
					allFinished = false
					break
				}
			}
			if allFinished && (stalled == nil ||
				st.t.Value(d.c.rt.K.Now()) > stalled.t.Value(d.c.rt.K.Now())) {
				stalled = st
			}
		}
		if pick == nil {
			pick = stalled
		}
		if pick == nil {
			return
		}
		// The commit reshapes every conflict set; rescan.
		d.pending = remove(d.pending, pick.t.ID)
		d.c.rt.Commit(pick.opt)
	}
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
			st := d.c.txns[id]
			conf := confOf(id)
			vs := make([]float64, len(conf))
			ps := make([]float64, len(conf))
			for i, cid := range conf {
				vs[i] = d.c.txns[cid].t.Value(sim.Time(now))
				ps[i] = pOpt[cid]
			}
			po, _ := value.Adoption(st.t.Value(sim.Time(now)), vs, ps)
			pOpt[id] = po
		}
	}
	return pOpt
}

// shadowStates assembles the Def. 6 shadow list of transaction st. The
// optimistic shadow carries pO adoption mass; speculative shadows split
// the rest proportionally to the value-weight of the conflict they cover
// (Def. 5's P_i_u).
func (d *DC) shadowStates(st *txnState, pO map[model.TxnID]float64, confOf func(model.TxnID) []model.TxnID, now float64) []value.ShadowState {
	conf := confOf(st.t.ID)
	vs := make([]float64, len(conf))
	ps := make([]float64, len(conf))
	for i, cid := range conf {
		vs[i] = d.c.txns[cid].t.Value(sim.Time(now))
		ps[i] = pO[cid]
	}
	po, pSpec := value.Adoption(st.t.Value(sim.Time(now)), vs, ps)
	out := []value.ShadowState{{
		Executed: st.opt.EstExecutedTime(),
		Adoption: po,
		Finished: st.finished,
	}}
	for i, cid := range conf {
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
		vLater += d.expectedDeferredValue(ist.t, d.shadowStates(ist, pO, confOf, now), now)
		// Now: if T_i read u's writes its optimistic shadow dies; the
		// shadow waiting for u (or a scratch restart) carries on alone.
		f := ist.opt.Log.FirstReadOfAny(ws)
		var after []value.ShadowState
		if f < 0 {
			after = d.shadowStates(ist, pO, confOf, now)
		} else if sp := ist.spec(u.ID); sp != nil && sp.sh.NextOp <= f {
			after = []value.ShadowState{{Executed: sp.sh.EstExecutedTime(), Adoption: 1}}
		} else {
			after = []value.ShadowState{{Executed: 0, Adoption: 1}}
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
type VW struct {
	c       *SCC
	Delta   float64 // re-evaluation period for parked waiters
	pending []*txnState
}

// NewVW returns SCC-kS extended with the SCC-VW Termination Rule.
func NewVW(k int, delta float64) *SCC {
	c := NewKS(k, LBFO)
	c.defr = &VW{Delta: delta}
	c.name = "SCC-VW"
	return c
}

func (v *VW) attach(c *SCC) {
	v.c = c
	v.tickLoop()
}

func (v *VW) tickLoop() {
	v.c.rt.K.After(sim.Time(v.Delta), func() {
		v.c.sweep(&v.pending, v.shouldCommit)
		v.tickLoop()
	})
}

// onFinish evaluates the finished shadow immediately (the paper's
// Termination Rule fires "whenever an optimistic shadow finishes").
func (v *VW) onFinish(st *txnState) {
	if v.shouldCommit(st) {
		v.c.rt.Commit(st.opt)
		return
	}
	v.pending = insert(v.pending, st)
	v.c.rt.Metrics.CommitWaits++
}

// onCommitted re-runs the vote for the parked waiters.
func (v *VW) onCommitted(id model.TxnID) {
	v.pending = remove(v.pending, id)
	v.c.sweep(&v.pending, v.shouldCommit)
}

func (v *VW) cancel(st *txnState) { v.pending = remove(v.pending, st.t.ID) }

// shouldCommit computes the commit indicator CI_u (Defs. 8-10).
func (v *VW) shouldCommit(st *txnState) bool {
	now := float64(v.c.rt.K.Now())
	conf := v.c.conflictSet(st)
	if len(conf) == 0 {
		return true
	}
	// Stall safety (engineering addition, documented in DESIGN.md): if no
	// conflicting transaction is still executing, waiting cannot help —
	// the V_later estimates assumed a conflicter would finish and commit.
	anyRunning := false
	for _, cid := range conf {
		if !v.c.txns[cid].finished {
			anyRunning = true
			break
		}
	}
	if !anyRunning {
		return true
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
		// conflict with u — the shadow T_i falls back on if u commits now.
		var sigmaUI float64
		f := ist.opt.Log.FirstReadOfAny(ws)
		switch {
		case f < 0:
			// T_i did not read u's writes; its optimistic shadow survives.
			sigmaUI = ist.opt.EstExecutedTime()
		case ist.spec(u.ID) != nil && ist.spec(u.ID).sh.NextOp <= f:
			sigmaUI = ist.spec(u.ID).sh.EstExecutedTime()
		default:
			sigmaUI = 0 // restart from scratch
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
type Wait50 struct {
	c       *SCC
	waiting []*txnState
}

// NewWait50 returns WAIT-50: OCC-BC (SCC-kS with k = 1) extended with the
// 50 % rule.
func NewWait50() *SCC {
	c := NewKS(1, LBFO)
	c.defr = &Wait50{}
	c.name = "WAIT-50"
	return c
}

func (w *Wait50) attach(c *SCC) { w.c = c }

func (w *Wait50) onFinish(st *txnState) {
	if !w.mustWait(st) {
		w.c.rt.Commit(st.opt)
		return
	}
	w.waiting = insert(w.waiting, st)
	w.c.rt.Metrics.CommitWaits++
}

// onCommitted commits the waiters whose wait has cleared.
func (w *Wait50) onCommitted(id model.TxnID) {
	w.waiting = remove(w.waiting, id)
	w.c.sweep(&w.waiting, func(st *txnState) bool { return !w.mustWait(st) })
}

func (w *Wait50) cancel(st *txnState) { w.waiting = remove(w.waiting, st.t.ID) }

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

// sweep commits the first waiter (in ID order) that ready accepts until
// none does: each commit restarts its readers and reshapes the others'
// conflict sets. A commit inside the sweep re-enters through the
// deferral's onCommitted, which must not start a second sweep.
func (c *SCC) sweep(waiting *[]*txnState, ready func(*txnState) bool) {
	if c.sweeping {
		return
	}
	c.sweeping = true
	defer func() { c.sweeping = false }()
next:
	for {
		for i, st := range *waiting {
			if ready(st) {
				*waiting = slices.Delete(*waiting, i, i+1)
				c.rt.Commit(st.opt)
				continue next
			}
		}
		return
	}
}
