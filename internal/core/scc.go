// Package core implements the paper's primary contribution: Speculative
// Concurrency Control.
//
// SCC-kS (Sec. 2.1) maintains, for every uncommitted transaction, one
// optimistic shadow that executes as under OCC-BC plus up to k-1
// speculative shadows. A speculative shadow accounts for one detected
// read-write conflict with one other uncommitted transaction: it is a fork
// of the transaction's execution blocked just before the first read of a
// page that transaction wrote, ready to resume — rather than restart —
// should the conflict materialize (the other transaction commits first).
//
// The protocol is expressed as the paper's five rules: Start (OnArrival),
// Read and Write (conflict detection in OnOpDone), Blocking (CanProceed),
// and Commit (OnCommitted). SCC-2S is the k=2 member whose single
// speculative shadow, under the LBFO replacement policy, ends up blocked
// at the earliest detected conflict — the paper's pessimistic shadow.
//
// SCC-DC and SCC-VW (Sec. 3) plug in as deferral policies: finished
// optimistic shadows wait for a value-cognizant Termination Rule instead
// of committing immediately; see defer.go.
//
// The optimistic baselines of the evaluation run on the same runtime:
// OCC-BC is SCC-kS with k = 1 (NewOCCBC), and WAIT-50 is OCC-BC with
// Haritsa's 50 % wait rule as a third deferral policy (NewWait50).
package core

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/rtdbs"
)

// Policy selects which detected conflicts the limited speculative shadows
// cover once the k-1 budget is exhausted.
type Policy int

const (
	// LBFO (Latest-Blocked-First-Out, the paper's policy) replaces the
	// shadow with the latest block point when a new conflict has an
	// earlier one, so the shadows cover the l earliest conflicts.
	LBFO Policy = iota
	// FIFO keeps the first k-1 detected conflicts regardless of block
	// points (an ablation baseline).
	FIFO
	// Priority replaces the shadow covering the lowest-priority (EDF)
	// conflicting transaction when the new conflict's transaction has
	// higher priority: under EDF the tighter-deadline conflicter is the
	// more probable earlier committer, so its serialization order is the
	// one most worth covering (the paper's Sec. 2.1 suggestion that
	// "deadlines and priorities of the conflicting transactions can be
	// utilized so as to account for the most probable serialization
	// orders").
	Priority
)

// spec is one speculative shadow: a fork blocked at blockAt, speculating
// that transaction waitFor commits before us.
type spec struct {
	sh      *rtdbs.Shadow
	st      *txnState
	waitFor model.TxnID
	blockAt int
}

// txnState is the protocol state of one active transaction.
type txnState struct {
	t     *model.Txn
	opt   *rtdbs.Shadow
	specs map[model.TxnID]*spec
	// finished marks an optimistic shadow awaiting a deferred commit
	// (SCC-DC / SCC-VW / WAIT-50).
	finished bool
}

// sortedSpecs returns the transaction's speculative shadows ordered by the
// transaction they wait for (deterministic iteration).
func (st *txnState) sortedSpecs() []*spec {
	out := make([]*spec, 0, len(st.specs))
	for _, sp := range st.specs {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].waitFor < out[j].waitFor })
	return out
}

// SCC is the SCC-kS concurrency control manager, optionally extended with
// a value-cognizant commit deferral (SCC-DC, SCC-VW).
type SCC struct {
	rt     *rtdbs.Runtime
	k      int
	kFunc  func(*model.Txn) int // per-transaction budget override (SCC-AK)
	policy Policy
	defr   deferral
	name   string

	txns map[model.TxnID]*txnState
	// readers/writers index the pages read/written by current optimistic
	// shadows of uncommitted transactions.
	readers   map[model.PageID]map[model.TxnID]struct{}
	writers   map[model.PageID]map[model.TxnID]struct{}
	regReads  map[model.TxnID][]model.PageID
	regWrites map[model.TxnID][]model.PageID

	// SelfCheck enables protocol invariant verification after every hook;
	// a violation panics. Used by tests.
	SelfCheck bool
}

// NewKS returns an SCC-kS manager allowing at most k shadows per
// transaction (one optimistic + k-1 speculative). k must be >= 1; k = 1
// degenerates to OCC-BC with restarts (NewOCCBC).
func NewKS(k int, policy Policy) *SCC {
	if k < 1 {
		panic("core: k must be >= 1")
	}
	name := fmt.Sprintf("SCC-%dS", k)
	switch policy {
	case FIFO:
		name += "-FIFO"
	case Priority:
		name += "-PRIO"
	}
	return &SCC{
		k: k, policy: policy, name: name,
		txns:      make(map[model.TxnID]*txnState),
		readers:   make(map[model.PageID]map[model.TxnID]struct{}),
		writers:   make(map[model.PageID]map[model.TxnID]struct{}),
		regReads:  make(map[model.TxnID][]model.PageID),
		regWrites: make(map[model.TxnID][]model.PageID),
	}
}

// NewTwoShadow returns SCC-2S (Sec. 2.2): one optimistic plus one
// pessimistic shadow blocked at the earliest detected conflict.
func NewTwoShadow() *SCC {
	c := NewKS(2, LBFO)
	c.name = "SCC-2S"
	return c
}

// NewCB returns Conflict-Based SCC (SCC-CB, Sec. 2): the shadow budget is
// effectively unbounded, so every detected conflict gets its own
// speculative shadow — at most one per conflicting transaction, the
// paper's "no more than n shadows per transaction" bound.
func NewCB() *SCC {
	c := NewKS(1<<30, LBFO)
	c.name = "SCC-CB"
	return c
}

// NewOCCBC returns OCC-BC, broadcast-commit OCC with forward validation
// [Mena82, Robi82], the variant Haritsa showed superior for firm-deadline
// RTDBS: SCC-kS with k = 1. Transactions run free; a finished one
// commits at once, and every running transaction that read a page it
// wrote restarts right then rather than at its own validation.
func NewOCCBC() *SCC {
	c := NewKS(1, LBFO)
	c.name = "OCC-BC"
	return c
}

// Name implements rtdbs.CCM.
func (c *SCC) Name() string { return c.name }

// Attach implements rtdbs.CCM.
func (c *SCC) Attach(rt *rtdbs.Runtime) {
	c.rt = rt
	if c.defr != nil {
		c.defr.attach(c)
	}
}

// budget returns the shadow budget of one transaction: the fixed k, or the
// adaptive per-transaction budget when configured.
func (c *SCC) budget(t *model.Txn) int {
	if c.kFunc != nil {
		if k := c.kFunc(t); k >= 1 {
			return k
		}
		return 1
	}
	return c.k
}

// NewAdaptive returns SCC with a per-transaction shadow budget: kFunc maps
// each transaction to its k, realizing Sec. 2.1's rationing of redundancy
// by urgency and criticalness ("the value of k for a particular
// transaction reflects the amount of speculation that this transaction is
// allowed to perform").
func NewAdaptive(kFunc func(*model.Txn) int, policy Policy) *SCC {
	c := NewKS(2, policy)
	c.kFunc = kFunc
	c.name = "SCC-AK"
	return c
}

// ValueRationedK returns a budget function that splits a shadow pool by
// transaction class worth: transactions at or above the value threshold
// get kHigh shadows, the rest kLow.
func ValueRationedK(threshold float64, kHigh, kLow int) func(*model.Txn) int {
	return func(t *model.Txn) int {
		if t.Class.Value >= threshold {
			return kHigh
		}
		return kLow
	}
}

// Start Rule: create the optimistic shadow.
func (c *SCC) OnArrival(t *model.Txn) {
	st := &txnState{t: t, specs: make(map[model.TxnID]*spec)}
	c.txns[t.ID] = st
	st.opt = c.rt.Spawn(t, 0, nil)
	c.rt.Kick(st.opt)
}

// Blocking Rule: a speculative shadow proceeds only up to its block point.
// It also never runs ahead of its transaction's optimistic shadow: the
// fork REPLAYS operations the optimistic execution has already performed
// (Fig. 4's re-execution); letting it race ahead would let it observe
// page versions the optimistic shadow never saw, which the Commit Rule's
// exposure analysis (computed over the optimistic log) could then miss.
func (c *SCC) CanProceed(sh *rtdbs.Shadow) bool {
	if sp, ok := sh.PD.(*spec); ok {
		return sh.NextOp < sp.blockAt && sh.NextOp < sp.st.opt.NextOp
	}
	return true
}

// OnOpDone performs conflict detection (Read and Write rules). Only the
// current optimistic shadow of a transaction drives detection: speculative
// shadows execute prefixes whose conflicts were already detected (or are
// re-detected after a promotion, when the promoted shadow re-executes).
func (c *SCC) OnOpDone(sh *rtdbs.Shadow) {
	st := c.txns[sh.Txn.ID]
	if st == nil || st.opt != sh {
		return
	}
	r := sh.Txn.ID
	op := sh.Txn.Ops[sh.NextOp-1]
	idx := sh.NextOp - 1
	if op.Write {
		c.registerWrite(r, op.Page)
		// Write Rule: a write-after-read conflict develops for every
		// uncommitted transaction whose optimistic shadow read this page.
		for _, rid := range sortedIDs(c.readers[op.Page]) {
			if rid == r {
				continue
			}
			rst := c.txns[rid]
			if rst == nil {
				continue
			}
			if i := rst.opt.Log.FirstReadIndex(op.Page); i >= 0 {
				c.newConflict(rst, r, i, false)
			}
		}
	} else {
		c.registerRead(r, op.Page)
		// Read Rule: a read-after-write conflict develops with every
		// uncommitted transaction that wrote this page.
		for _, wid := range sortedIDs(c.writers[op.Page]) {
			if wid == r {
				continue
			}
			if c.txns[wid] != nil {
				c.newConflict(st, wid, idx, true)
			}
		}
	}
	// The optimistic shadow advanced: parked speculative shadows may now
	// replay one more operation.
	for _, sp := range st.sortedSpecs() {
		c.rt.Kick(sp.sh)
	}
	c.selfCheck()
}

// newConflict updates the speculative shadow set of st for a detected
// conflict with u whose first conflicting read is at op index i. fromRead
// marks Read Rule detections, where the conflicting read is the operation
// that just completed and the optimistic shadow's pre-read state is still
// available as a zero-cost fork point.
func (c *SCC) newConflict(st *txnState, u model.TxnID, i int, fromRead bool) {
	if sp := st.specs[u]; sp != nil {
		if sp.blockAt <= i {
			return // an earlier block point already covers this conflict
		}
		// The new conflict precedes the shadow's assumption (Fig. 5):
		// replace it with one blocked before the earlier read.
		c.abortSpec(st, sp)
		c.createSpec(st, u, i, fromRead)
		return
	}
	k := c.budget(st.t)
	if len(st.specs) < k-1 {
		c.createSpec(st, u, i, fromRead)
		return
	}
	if c.policy == FIFO || k <= 1 {
		return // budget exhausted; handled suboptimally at commit time
	}
	if c.policy == Priority {
		// Replace the shadow covering the lowest-priority conflicting
		// transaction if the new conflicter outranks it.
		uTxn := c.txns[u]
		if uTxn == nil {
			return
		}
		var lowest *spec
		for _, sp := range st.sortedSpecs() {
			wst := c.txns[sp.waitFor]
			if wst == nil {
				continue
			}
			if lowest == nil || c.txns[lowest.waitFor].t.HigherPriority(wst.t) {
				lowest = sp
			}
		}
		if lowest != nil && uTxn.t.HigherPriority(c.txns[lowest.waitFor].t) {
			c.abortSpec(st, lowest)
			c.createSpec(st, u, i, fromRead)
		}
		return
	}
	// LBFO (Fig. 6): replace the shadow with the latest block point if the
	// new conflict blocks earlier.
	var latest *spec
	for _, sp := range st.sortedSpecs() {
		if latest == nil || sp.blockAt > latest.blockAt {
			latest = sp
		}
	}
	if latest != nil && latest.blockAt > i {
		c.abortSpec(st, latest)
		c.createSpec(st, u, i, fromRead)
	}
}

// createSpec forks a speculative shadow for the conflict (u, block point i)
// following the paper's donor rules: a read-after-write conflict detected
// at the optimistic shadow's current read forks its state just before that
// read at zero cost; otherwise (Fig. 4) the fork comes from the latest
// speculative shadow that has not yet read past i and must re-execute up
// to the block point; with no donor it starts from scratch.
func (c *SCC) createSpec(st *txnState, u model.TxnID, i int, fromRead bool) {
	var sh *rtdbs.Shadow
	if fromRead && st.opt.NextOp == i+1 && !st.finished {
		sh = c.rt.ForkPrefix(st.opt, i)
	} else {
		var donor *spec
		for _, sp := range st.sortedSpecs() {
			if sp.sh.NextOp <= i && (donor == nil || sp.sh.NextOp > donor.sh.NextOp) {
				donor = sp
			}
		}
		if donor != nil {
			sh = c.rt.Fork(donor.sh)
		} else {
			sh = c.rt.Spawn(st.t, 0, nil)
		}
	}
	sp := &spec{sh: sh, st: st, waitFor: u, blockAt: i}
	sh.PD = sp
	st.specs[u] = sp
	if c.SelfCheck && sh.NextOp > st.opt.NextOp {
		panic(fmt.Sprintf("core: createSpec txn %d waitFor %d: new spec NextOp %d > opt NextOp %d (i=%d, opt sid %d)",
			st.t.ID, u, sh.NextOp, st.opt.NextOp, i, st.opt.SID))
	}
	c.rt.Metrics.ShadowForks++
	// The fork may need to run up to its block point (or is parked there);
	// schedule it.
	c.rt.Kick(sh)
}

func (c *SCC) abortSpec(st *txnState, sp *spec) {
	c.rt.AbortShadow(sp.sh)
	delete(st.specs, sp.waitFor)
	c.rt.Metrics.ShadowAborts++
}

// OnFinish: without a deferral policy the optimistic shadow validates and
// commits immediately (forward validation always succeeds).
func (c *SCC) OnFinish(sh *rtdbs.Shadow) {
	st := c.txns[sh.Txn.ID]
	if st == nil || st.opt != sh {
		panic(fmt.Sprintf("core: non-optimistic shadow %d of txn %d finished", sh.SID, sh.Txn.ID))
	}
	if c.defr != nil {
		if !st.finished {
			st.finished = true
			c.defr.onFinish(st)
		}
		return
	}
	c.rt.Commit(sh)
}

// Commit Rule (OnCommitted): for every transaction conflicting with the
// committer, abort its exposed shadows and adopt the best valid
// speculative shadow — resuming from its block point — or restart from
// scratch if none survives.
func (c *SCC) OnCommitted(t *model.Txn, committed *rtdbs.Shadow) {
	u := t.ID
	c.unregister(u)
	delete(c.txns, u)
	ws := committed.Log.WritePages()

	for _, rid := range c.rt.ActiveIDs() {
		st := c.txns[rid]
		if st == nil {
			continue
		}
		f := st.opt.Log.FirstReadOfAny(ws)
		if f < 0 {
			// No materialized conflict. A shadow speculating on u's
			// commit is now pointless: the optimistic shadow already
			// embodies the serialization order u -> r.
			if sp := st.specs[u]; sp != nil {
				c.abortSpec(st, sp)
			}
			continue
		}
		c.adoptOrRestart(st, u, ws, f)
	}
	if c.defr != nil {
		c.defr.onCommitted(u)
	}
	c.selfCheck()
}

// adoptOrRestart replaces st's invalidated optimistic shadow after the
// commit of u, whose write set ws was first read by the optimistic shadow
// at op index f.
func (c *SCC) adoptOrRestart(st *txnState, u model.TxnID, ws []model.PageID, f int) {
	// A shadow is valid iff its executed prefix read none of ws. f is the
	// first read of any ws page in the optimistic log, every live shadow
	// executes the same op list, and the optimistic shadow has the
	// furthest progress — so validity is exactly NextOp <= f.
	var best *spec
	for _, sp := range st.sortedSpecs() {
		if sp.sh.NextOp > f {
			continue
		}
		if best == nil ||
			sp.sh.NextOp > best.sh.NextOp ||
			sp.sh.NextOp == best.sh.NextOp && sp.waitFor == u {
			best = sp
		}
	}
	wasFinished := st.finished
	st.finished = false
	if c.defr != nil && wasFinished {
		c.defr.cancel(st)
	}

	if best == nil {
		// Commit Rule, degenerate case: no valid shadow (the conflict was
		// unaccounted and everything is exposed) — restart from scratch.
		for len(st.specs) > 0 {
			c.abortSpec(st, st.sortedSpecs()[0])
		}
		c.unregister(st.t.ID)
		st.opt = c.rt.Restart(st.t)
		return
	}

	// Promotion (Commit Rule cases 1 and 2): the best valid shadow
	// becomes the new optimistic shadow and resumes from its block point.
	c.rt.Metrics.Promotions++
	delete(st.specs, best.waitFor)
	best.sh.PD = nil
	c.rt.AbortShadow(st.opt)
	st.opt = best.sh

	// Shadows that read past f exposed themselves to ws; abort them. A
	// surviving shadow waiting for the committed u is obsolete as well.
	// Survivors may hold an in-flight operation issued while the old
	// (further-along) optimistic shadow was current; park them so they
	// re-gate against the promoted shadow's progress.
	for _, sp := range st.sortedSpecs() {
		if sp.sh.NextOp > f || sp.waitFor == u {
			c.abortSpec(st, sp)
			continue
		}
		c.rt.Park(sp.sh)
		c.rt.Kick(sp.sh)
	}

	// Reindex from the new optimistic log and re-run conflict detection
	// over its inherited prefix: conflicts past the promoted shadow's
	// progress evaporated with the old optimistic shadow; conflicts within
	// the prefix may need (re-)covering.
	c.reindex(st)
	c.rebuildConflicts(st)
	c.rt.Kick(st.opt)
	if c.SelfCheck {
		for _, sp := range st.sortedSpecs() {
			if sp.sh.NextOp > st.opt.NextOp {
				panic(fmt.Sprintf("core: post-promotion txn %d: spec for %d NextOp %d > opt NextOp %d (f=%d, best sid %d)",
					st.t.ID, sp.waitFor, sp.sh.NextOp, st.opt.NextOp, f, st.opt.SID))
			}
		}
	}
}

// registerRead/registerWrite/unregister maintain the page access indexes.
func (c *SCC) registerRead(id model.TxnID, p model.PageID) {
	m := c.readers[p]
	if m == nil {
		m = make(map[model.TxnID]struct{})
		c.readers[p] = m
	}
	if _, ok := m[id]; !ok {
		m[id] = struct{}{}
		c.regReads[id] = append(c.regReads[id], p)
	}
}

func (c *SCC) registerWrite(id model.TxnID, p model.PageID) {
	m := c.writers[p]
	if m == nil {
		m = make(map[model.TxnID]struct{})
		c.writers[p] = m
	}
	if _, ok := m[id]; !ok {
		m[id] = struct{}{}
		c.regWrites[id] = append(c.regWrites[id], p)
	}
}

func (c *SCC) unregister(id model.TxnID) {
	for _, p := range c.regReads[id] {
		delete(c.readers[p], id)
	}
	for _, p := range c.regWrites[id] {
		delete(c.writers[p], id)
	}
	delete(c.regReads, id)
	delete(c.regWrites, id)
}

// reindex rebuilds the page indexes for st from its (new) optimistic log.
func (c *SCC) reindex(st *txnState) {
	id := st.t.ID
	c.unregister(id)
	for _, obs := range st.opt.Log.Reads() {
		c.registerRead(id, obs.Page)
	}
	for _, p := range st.opt.Log.WritePages() {
		c.registerWrite(id, p)
	}
}

// rebuildConflicts re-detects conflicts covered by the new optimistic
// shadow's inherited prefix (both directions), re-forking speculative
// shadows where the budget allows.
func (c *SCC) rebuildConflicts(st *txnState) {
	r := st.t.ID
	// Reads in our prefix against others' writes.
	for _, obs := range st.opt.Log.Reads() {
		for _, wid := range sortedIDs(c.writers[obs.Page]) {
			if wid == r || c.txns[wid] == nil {
				continue
			}
			if i := st.opt.Log.FirstReadIndex(obs.Page); i >= 0 {
				c.newConflict(st, wid, i, false)
			}
		}
	}
}

func sortedIDs(m map[model.TxnID]struct{}) []model.TxnID {
	ids := make([]model.TxnID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// selfCheck verifies the protocol invariants (used under SelfCheck).
func (c *SCC) selfCheck() {
	if !c.SelfCheck {
		return
	}
	if err := c.CheckInvariants(); err != nil {
		panic(err)
	}
}

// CheckInvariants validates the structural invariants of the shadow sets:
// at most k-1 speculative shadows per transaction, live shadows only, the
// optimistic shadow is always furthest along, speculative shadows never
// run past their block point, and no speculative shadow has read a page
// written by the transaction it waits for.
func (c *SCC) CheckInvariants() error {
	for _, id := range c.rt.ActiveIDs() {
		st := c.txns[id]
		if st == nil {
			return fmt.Errorf("core: active txn %d has no protocol state", id)
		}
		if st.opt == nil || st.opt.Aborted() {
			return fmt.Errorf("core: txn %d optimistic shadow dead", id)
		}
		if k := c.budget(st.t); len(st.specs) > k-1 {
			return fmt.Errorf("core: txn %d has %d speculative shadows, budget %d", id, len(st.specs), k-1)
		}
		for _, sp := range st.sortedSpecs() {
			if sp.sh.Aborted() {
				return fmt.Errorf("core: txn %d keeps aborted spec shadow (waitFor %d)", id, sp.waitFor)
			}
			if sp.sh.NextOp > sp.blockAt {
				return fmt.Errorf("core: txn %d spec for %d ran past block point (%d > %d)",
					id, sp.waitFor, sp.sh.NextOp, sp.blockAt)
			}
			if sp.sh.NextOp > st.opt.NextOp {
				return fmt.Errorf("core: txn %d spec for %d ahead of optimistic (%d > %d; spec sid %d start %d blockAt %d; opt sid %d start %d finished %v)",
					id, sp.waitFor, sp.sh.NextOp, st.opt.NextOp, sp.sh.SID, sp.sh.StartOp, sp.blockAt, st.opt.SID, st.opt.StartOp, st.opt.Finished)
			}
			if wst := c.txns[sp.waitFor]; wst != nil {
				if i := sp.sh.Log.FirstReadOfAny(wst.opt.Log.WritePages()); i >= 0 {
					return fmt.Errorf("core: txn %d spec for %d read page written by %d at index %d",
						id, sp.waitFor, sp.waitFor, i)
				}
			} else {
				return fmt.Errorf("core: txn %d spec waits for inactive txn %d", id, sp.waitFor)
			}
		}
	}
	return nil
}
