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
	"cmp"
	"fmt"
	"slices"

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
	t   *model.Txn
	opt *rtdbs.Shadow
	// specs are the speculative shadows, ordered by the transaction they
	// wait for; waiters are the transactions with a speculative shadow
	// waiting for this one.
	specs   []*spec
	waiters []*txnState
	// finished marks an optimistic shadow awaiting a deferred commit
	// (SCC-DC / SCC-VW / WAIT-50).
	finished bool
}

// spec returns st's speculative shadow waiting for u, or nil.
func (st *txnState) spec(u model.TxnID) *spec {
	if i, ok := find(st.specs, u); ok {
		return st.specs[i]
	}
	return nil
}

// holder is one transaction in a page's reader or writer list; at is the
// op index of its first read of the page (readers only).
type holder struct {
	id model.TxnID
	at int
}

// keyed is an element of a list kept in ascending TxnID order. Every set
// the protocols walk is such a list, so the simulator breaks its ties by
// TxnID without sorting.
type keyed interface{ key() model.TxnID }

func (h holder) key() model.TxnID     { return h.id }
func (sp *spec) key() model.TxnID     { return sp.waitFor }
func (st *txnState) key() model.TxnID { return st.t.ID }

func find[E keyed](s []E, id model.TxnID) (int, bool) {
	return slices.BinarySearchFunc(s, id, func(e E, id model.TxnID) int { return cmp.Compare(e.key(), id) })
}

// insert adds e to s unless s already holds its key.
func insert[E keyed](s []E, e E) []E {
	i, ok := find(s, e.key())
	if ok {
		return s
	}
	return slices.Insert(s, i, e)
}

func remove[E keyed](s []E, id model.TxnID) []E {
	if i, ok := find(s, id); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
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
	// readers and writers are the conflict index: for every page, the
	// uncommitted transactions whose optimistic shadow read or wrote it.
	// It holds exactly the pages of each optimistic shadow's log, and is
	// indexed by PageID: OnOpDone grows it to every page an optimistic
	// shadow executes, and every shadow's log holds only such pages.
	readers, writers [][]holder
	// sweeping is set while a deferral's commit sweep runs (see sweep).
	sweeping bool

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
		txns: make(map[model.TxnID]*txnState),
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
	st := &txnState{t: t}
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
	for int(op.Page) >= len(c.readers) {
		c.readers, c.writers = append(c.readers, nil), append(c.writers, nil)
	}
	if op.Write {
		c.writers[op.Page] = insert(c.writers[op.Page], holder{id: r})
		// Write Rule: a write-after-read conflict develops for every
		// uncommitted transaction whose optimistic shadow read this page,
		// blocked before its first read of it.
		for _, h := range c.readers[op.Page] {
			if h.id != r {
				c.newConflict(c.txns[h.id], r, h.at, false)
			}
		}
	} else {
		c.readers[op.Page] = insert(c.readers[op.Page], holder{r, idx})
		// Read Rule: a read-after-write conflict develops with every
		// uncommitted transaction that wrote this page.
		for _, h := range c.writers[op.Page] {
			if h.id != r {
				c.newConflict(st, h.id, idx, true)
			}
		}
	}
	// The optimistic shadow advanced: parked speculative shadows may now
	// replay one more operation.
	for _, sp := range st.specs {
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
	if sp := st.spec(u); sp != nil {
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
		for _, sp := range st.specs {
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
	for _, sp := range st.specs {
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
		for _, sp := range st.specs {
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
	st.specs = insert(st.specs, sp)
	c.txns[u].waiters = insert(c.txns[u].waiters, st)
	c.rt.Metrics.ShadowForks++
	// The fork may need to run up to its block point (or is parked there);
	// schedule it.
	c.rt.Kick(sh)
}

func (c *SCC) abortSpec(st *txnState, sp *spec) {
	c.rt.AbortShadow(sp.sh)
	c.dropSpec(st, sp)
	c.rt.Metrics.ShadowAborts++
}

// dropSpec removes sp from st's speculative shadows and st from the
// waiters of the transaction sp waits for.
func (c *SCC) dropSpec(st *txnState, sp *spec) {
	st.specs = remove(st.specs, sp.waitFor)
	if w := c.txns[sp.waitFor]; w != nil {
		w.waiters = remove(w.waiters, st.t.ID)
	}
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
	ust := c.txns[u]
	c.unindex(u, committed.Log)
	for len(ust.specs) > 0 {
		c.dropSpec(ust, ust.specs[0])
	}
	delete(c.txns, u)
	ws := committed.Log.WritePages()

	// The transactions the commit touches are those that read a page u
	// wrote and those speculating on u's commit. Adoption and restart
	// change the index, so walk a copy.
	ids := c.appendReaders(nil, ws, u)
	for _, w := range ust.waiters {
		ids = append(ids, w.t.ID)
	}
	for _, rid := range distinct(ids) {
		st := c.txns[rid]
		if st == nil {
			continue
		}
		f := st.opt.Log.FirstReadOfAny(ws)
		if f < 0 {
			// No materialized conflict. A shadow speculating on u's
			// commit is now pointless: the optimistic shadow already
			// embodies the serialization order u -> r.
			if sp := st.spec(u); sp != nil {
				c.abortSpec(st, sp)
			}
			continue
		}
		c.adoptOrRestart(st, u, f)
	}
	if c.defr != nil {
		c.defr.onCommitted(u)
	}
	c.selfCheck()
}

// adoptOrRestart replaces st's invalidated optimistic shadow after the
// commit of u, whose write set the optimistic shadow first read at op
// index f.
func (c *SCC) adoptOrRestart(st *txnState, u model.TxnID, f int) {
	// A shadow is valid iff its executed prefix read none of u's writes.
	// f is the first such read in the optimistic log, every live shadow
	// executes the same op list, and the optimistic shadow has the
	// furthest progress — so validity is exactly NextOp <= f.
	var best *spec
	for _, sp := range st.specs {
		if sp.sh.NextOp > f {
			continue
		}
		if best == nil ||
			sp.sh.NextOp > best.sh.NextOp ||
			sp.sh.NextOp == best.sh.NextOp && sp.waitFor == u {
			best = sp
		}
	}
	if st.finished {
		st.finished = false
		c.defr.cancel(st)
	}

	if best == nil {
		// Commit Rule, degenerate case: no valid shadow (the conflict was
		// unaccounted and everything is exposed) — restart from scratch.
		for len(st.specs) > 0 {
			c.abortSpec(st, st.specs[0])
		}
		c.unindex(st.t.ID, st.opt.Log)
		st.opt = c.rt.Restart(st.t)
		return
	}

	// Promotion (Commit Rule cases 1 and 2): the best valid shadow
	// becomes the new optimistic shadow and resumes from its block point.
	c.rt.Metrics.Promotions++
	c.dropSpec(st, best)
	best.sh.PD = nil
	old := st.opt
	c.rt.AbortShadow(old)
	st.opt = best.sh

	// Shadows that read past f exposed themselves to ws; abort them. A
	// surviving shadow waiting for the committed u is obsolete as well.
	// Survivors may hold an in-flight operation issued while the old
	// (further-along) optimistic shadow was current; park them so they
	// re-gate against the promoted shadow's progress.
	for i := 0; i < len(st.specs); {
		sp := st.specs[i]
		if sp.sh.NextOp > f || sp.waitFor == u {
			c.abortSpec(st, sp)
			continue
		}
		c.rt.Park(sp.sh)
		c.rt.Kick(sp.sh)
		i++
	}

	// Reindex from the new optimistic log and re-run conflict detection
	// over its inherited prefix: conflicts past the promoted shadow's
	// progress evaporated with the old optimistic shadow; conflicts within
	// the prefix may need (re-)covering.
	c.reindex(st, old)
	c.rebuildConflicts(st)
	c.rt.Kick(st.opt)
}

// unindex removes the pages log read and wrote from id's index entries.
func (c *SCC) unindex(id model.TxnID, log *model.AccessLog) {
	for _, obs := range log.Reads() {
		c.readers[obs.Page] = remove(c.readers[obs.Page], id)
	}
	for _, p := range log.WritePages() {
		c.writers[p] = remove(c.writers[p], id)
	}
}

// reindex moves st's index entries from the replaced optimistic shadow
// old to its new one.
func (c *SCC) reindex(st *txnState, old *rtdbs.Shadow) {
	id := st.t.ID
	c.unindex(id, old.Log)
	for _, obs := range st.opt.Log.Reads() {
		c.readers[obs.Page] = insert(c.readers[obs.Page], holder{id, obs.OpIndex})
	}
	for _, p := range st.opt.Log.WritePages() {
		c.writers[p] = insert(c.writers[p], holder{id: id})
	}
}

// appendReaders appends to dst every transaction other than self that
// read one of pages, in page order; distinct orders and dedupes them.
func (c *SCC) appendReaders(dst []model.TxnID, pages []model.PageID, self model.TxnID) []model.TxnID {
	for _, p := range pages {
		for _, h := range c.readers[p] {
			if h.id != self {
				dst = append(dst, h.id)
			}
		}
	}
	return dst
}

func distinct(ids []model.TxnID) []model.TxnID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// rebuildConflicts re-detects conflicts covered by the new optimistic
// shadow's inherited prefix (both directions), re-forking speculative
// shadows where the budget allows. A page read again finds its conflicts
// already settled at its first read, which blocks earlier.
func (c *SCC) rebuildConflicts(st *txnState) {
	r := st.t.ID
	for _, obs := range st.opt.Log.Reads() {
		for _, h := range c.writers[obs.Page] {
			if h.id != r {
				c.newConflict(st, h.id, obs.OpIndex, false)
			}
		}
	}
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
// written by the transaction it waits for. It also checks the conflict
// index against the optimistic logs, the waiter lists against the
// speculative shadows, and every list's TxnID order.
func (c *SCC) CheckInvariants() error {
	entries := 0 // index entries the optimistic logs call for
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
		for _, obs := range st.opt.Log.Reads() {
			if st.opt.Log.FirstReadIndex(obs.Page) == obs.OpIndex {
				entries++
			}
		}
		entries += len(st.opt.Log.WritePages())
		for i, sp := range st.specs {
			if i > 0 && st.specs[i-1].waitFor >= sp.waitFor {
				return fmt.Errorf("core: txn %d speculative shadows out of order at %d", id, sp.waitFor)
			}
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
			wst := c.txns[sp.waitFor]
			if wst == nil {
				return fmt.Errorf("core: txn %d spec waits for inactive txn %d", id, sp.waitFor)
			}
			if i := sp.sh.Log.FirstReadOfAny(wst.opt.Log.WritePages()); i >= 0 {
				return fmt.Errorf("core: txn %d spec for %d read page written by %d at index %d",
					id, sp.waitFor, sp.waitFor, i)
			}
			if _, ok := find(wst.waiters, id); !ok {
				return fmt.Errorf("core: txn %d missing from the waiters of %d", id, sp.waitFor)
			}
		}
		for i, w := range st.waiters {
			if i > 0 && st.waiters[i-1].t.ID >= w.t.ID || c.txns[w.t.ID] != w || w.spec(id) == nil {
				return fmt.Errorf("core: txn %d lists waiter %d out of order, inactive or not waiting", id, w.t.ID)
			}
		}
	}
	for write, ix := range [][][]holder{c.readers, c.writers} {
		for pi, list := range ix {
			p := model.PageID(pi)
			for i, h := range list {
				if c.rt.State(h.id) == nil || i > 0 && list[i-1].id >= h.id {
					return fmt.Errorf("core: page %d lists txn %d inactive or out of order", p, h.id)
				}
				log := c.txns[h.id].opt.Log
				if write == 0 && log.FirstReadIndex(p) != h.at {
					return fmt.Errorf("core: page %d lists reader %d at op %d, its optimistic shadow first read it at %d",
						p, h.id, h.at, log.FirstReadIndex(p))
				}
				if write == 1 && !slices.Contains(log.WritePages(), p) {
					return fmt.Errorf("core: page %d lists writer %d, whose optimistic shadow did not write it", p, h.id)
				}
				entries--
			}
		}
	}
	if entries != 0 {
		return fmt.Errorf("core: the conflict index misses %d pages of the optimistic logs", entries)
	}
	return nil
}
