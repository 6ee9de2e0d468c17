// Package rtdbs implements the paper's logical system model (Fig. 12): a
// transaction pool fed by Poisson arrivals, a transaction manager that
// executes page accesses, a resource manager with infinite resources (each
// access takes its service time with no queueing), a pluggable concurrency
// control manager (CCM), and a sink collecting statistics.
//
// The unit of execution is the Shadow: a (possibly speculative) run of a
// transaction's operation list. PCC and OCC protocols use exactly one
// shadow per transaction; SCC protocols fork, block and promote several.
// The runtime provides the mechanics (spawn, fork-with-prefix, block,
// abort, commit-with-validation); protocols supply the policy through the
// CCM interface.
package rtdbs

import (
	"fmt"
	"slices"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CCM is a concurrency control manager. The runtime invokes it at every
// scheduling decision point; the CCM drives shadows through the runtime's
// primitives (Spawn, AbortShadow, Commit, Kick).
type CCM interface {
	// Name identifies the protocol in reports.
	Name() string
	// Attach hands the CCM its runtime before the simulation starts.
	Attach(rt *Runtime)
	// OnArrival admits a transaction; the CCM must spawn its initial
	// shadow(s).
	OnArrival(t *model.Txn)
	// CanProceed is consulted before each operation is scheduled. False
	// parks the shadow; the CCM must Kick it when conditions change.
	CanProceed(sh *Shadow) bool
	// OnOpDone fires after an operation's access has been recorded in the
	// shadow's log. Conflict detection lives here.
	OnOpDone(sh *Shadow)
	// OnFinish fires when a shadow has executed its whole operation list.
	// The CCM decides whether to Commit now or defer.
	OnFinish(sh *Shadow)
	// OnCommitted fires after a transaction's writes are installed and it
	// left the active set; sh is the shadow that committed (its log holds
	// the installed write set). Broadcast-commit handling (restarts,
	// promotions) lives here.
	OnCommitted(t *model.Txn, sh *Shadow)
}

// Shadow is one executing copy of a transaction.
type Shadow struct {
	Txn *model.Txn
	SID int // unique per runtime, for deterministic ordering and traces
	// StartOp is the operation index this shadow began executing from
	// (inherited prefix accesses before StartOp cost it nothing).
	StartOp int
	// NextOp is the next operation index to execute; ops in [StartOp,
	// NextOp) were executed by this shadow itself.
	NextOp int
	// Log records the shadow's accesses, including any inherited prefix.
	Log *model.AccessLog
	// Blocked is set while CanProceed holds the shadow parked.
	Blocked bool
	// Queued is set while the shadow waits for a resource server.
	Queued bool

	holdsServer bool
	// Finished is set once every op has executed.
	Finished bool
	// PD is protocol-private data.
	PD any

	aborted bool
	pending *sim.Event
	done    func() // opDone(sh), made once at Spawn
}

// Aborted reports whether the shadow has been aborted.
func (s *Shadow) Aborted() bool { return s.aborted }

// OwnExecTime returns the execution time this shadow itself consumed.
func (s *Shadow) OwnExecTime() float64 {
	return float64(s.NextOp-s.StartOp) * s.Txn.OpTime
}

// EstExecutedTime returns the class-mean-scaled execution time embodied in
// the shadow (inherited prefix included): the tau of SCC-DC's finish
// probabilities, which works from class statistics, not actual op times.
func (s *Shadow) EstExecutedTime() float64 {
	return float64(s.NextOp) * s.Txn.Class.MeanOpTime
}

// TxnState tracks one active transaction and its live shadows.
type TxnState struct {
	Txn     *model.Txn
	Shadows []*Shadow
}

// Config configures one simulation run.
type Config struct {
	Workload workload.Config
	// Target is the number of measured commits to collect.
	Target int
	// Warmup commits are excluded from metrics (history still records
	// them so serializability checking covers the whole run).
	Warmup int
	// CheckReads validates, at every commit, that each read observed the
	// currently committed version. A failure panics: it is a protocol
	// implementation bug, never a workload condition.
	CheckReads bool
	// RecordHistory keeps per-commit footprints for the offline
	// serializability checker (memory-proportional to commits).
	RecordHistory bool
	// MaxSteps aborts runaway simulations (0 = default 200M events).
	MaxSteps int64
	// MaxActive stops the run if the live transaction population exceeds
	// this bound, marking the result truncated (0 = default 20000).
	MaxActive int
	// Servers, when positive, bounds the number of operations in service
	// simultaneously (a finite resource pool; each op occupies one server
	// for its service time, excess ops queue FCFS). Zero is the paper's
	// infinite-resources assumption. Shadows consume servers like any
	// execution, so speculation stops being free — the ablation behind
	// the paper's Sec. 1 argument that SCC targets resource-rich systems.
	Servers int
}

// Result is the outcome of a run.
type Result struct {
	Metrics   *stats.Metrics
	History   *history.Recorder
	Truncated bool // stopped on MaxSteps/MaxActive before Target commits
	SimTime   sim.Time
	Protocol  string
}

// Runtime is the simulated RTDBS.
type Runtime struct {
	K       *sim.Kernel
	Metrics *stats.Metrics
	// Trace, when set, receives a line for every runtime event (`sccsim
	// -fig`); each site checks it first, so untraced runs box nothing.
	Trace func(at sim.Time, format string, args ...any)

	cfg       Config
	gen       *workload.Generator
	ccm       CCM
	version   map[model.PageID]model.TxnID
	active    map[model.TxnID]*TxnState
	ids       []model.TxnID // active's keys, ascending
	rec       *history.Recorder
	commitSeq int
	nextSID   int
	truncated bool

	// finite resource pool (nil under infinite resources)
	rmFree  int
	rmQueue []*Shadow
	rmOn    bool
}

// New builds a runtime for one run.
func New(cfg Config, ccm CCM) *Runtime {
	if cfg.Target <= 0 {
		panic("rtdbs: Target must be positive")
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000_000
	}
	if cfg.MaxActive == 0 {
		cfg.MaxActive = 20000
	}
	rt := &Runtime{
		K:       sim.New(),
		Metrics: &stats.Metrics{},
		cfg:     cfg,
		gen:     workload.NewGenerator(cfg.Workload),
		ccm:     ccm,
		version: make(map[model.PageID]model.TxnID),
		active:  make(map[model.TxnID]*TxnState),
	}
	if cfg.RecordHistory {
		rt.rec = &history.Recorder{}
	}
	if cfg.Servers > 0 {
		rt.rmOn = true
		rt.rmFree = cfg.Servers
	}
	ccm.Attach(rt)
	return rt
}

// Run executes the simulation to completion and returns its result.
func Run(cfg Config, ccm CCM) Result {
	rt := New(cfg, ccm)
	rt.scheduleArrival()
	rt.K.Run()
	return Result{
		Metrics:   rt.Metrics,
		History:   rt.rec,
		Truncated: rt.truncated,
		SimTime:   rt.K.Now(),
		Protocol:  ccm.Name(),
	}
}

func (rt *Runtime) scheduleArrival() {
	t := rt.gen.Next()
	rt.K.At(t.Arrival, func() {
		if rt.K.Steps() > rt.cfg.MaxSteps || len(rt.active) > rt.cfg.MaxActive {
			rt.stopTruncated()
			return
		}
		rt.enter(t)
		rt.scheduleArrival()
	})
}

// stopTruncated ends a saturated run. Transactions still active past
// their deadlines are certain to commit late; folding them into the missed
// counts (with their tardiness-so-far as a lower bound) keeps the missed
// ratio of a saturated point honest instead of sampling only the commits
// of the startup transient.
func (rt *Runtime) stopTruncated() {
	rt.truncated = true
	now := rt.K.Now()
	m := rt.Metrics
	for _, id := range rt.ids {
		t := rt.active[id].Txn
		if now > t.Deadline {
			m.Committed++
			m.Missed++
			m.TardinessSum += float64(now - t.Deadline)
			m.ValueSum += t.Value(now)
			m.MaxValueSum += t.Class.Value
		}
	}
	rt.K.Stop()
}

// Admit inserts a hand-built transaction into the active set and hands it
// to the CCM, bypassing the workload generator. Tests use it to replay the
// paper's illustrative schedules; the regular arrival process does the
// same thing internally.
func (rt *Runtime) Admit(t *model.Txn) {
	if _, dup := rt.active[t.ID]; dup {
		panic(fmt.Sprintf("rtdbs: Admit of duplicate txn %d", t.ID))
	}
	rt.enter(t)
}

// enter adds t to the active set and hands it to the CCM.
func (rt *Runtime) enter(t *model.Txn) {
	rt.active[t.ID] = &TxnState{Txn: t}
	i, _ := slices.BinarySearch(rt.ids, t.ID)
	rt.ids = slices.Insert(rt.ids, i, t.ID)
	rt.ccm.OnArrival(t)
}

// History returns the commit recorder (nil unless RecordHistory was set).
func (rt *Runtime) History() *history.Recorder { return rt.rec }

// State returns the active-transaction state for id, or nil.
func (rt *Runtime) State(id model.TxnID) *TxnState { return rt.active[id] }

// ActiveIDs returns the IDs of active transactions in ascending order, the
// deterministic iteration order CCMs must use. The slice is the runtime's
// own and changes as transactions arrive and commit, and a Kick, Restart
// or Commit can end in a commit inside the caller's own loop. So a loop
// that may call them walks a copy; only side-effect-free readers walk it
// directly.
func (rt *Runtime) ActiveIDs() []model.TxnID { return rt.ids }

// Spawn creates a shadow for t starting at op index startOp with the given
// inherited access log (nil for an empty log). The shadow is created
// parked so the CCM can attach protocol data (e.g. a block point) first;
// the caller must Kick it to start execution.
func (rt *Runtime) Spawn(t *model.Txn, startOp int, log *model.AccessLog) *Shadow {
	st := rt.active[t.ID]
	if st == nil {
		panic(fmt.Sprintf("rtdbs: Spawn for inactive txn %d", t.ID))
	}
	if log == nil {
		log = model.NewAccessLog()
	}
	sh := &Shadow{Txn: t, SID: rt.nextSID, StartOp: startOp, NextOp: startOp, Log: log}
	sh.done = func() { rt.opDone(sh) }
	rt.nextSID++
	st.Shadows = append(st.Shadows, sh)
	if rt.Trace != nil {
		rt.Trace(rt.K.Now(), "spawn   txn %d shadow %d from op %d", t.ID, sh.SID, startOp)
	}
	return sh
}

// Fork clones donor from its current progress: the new shadow inherits the
// donor's access log as a zero-cost prefix and will execute from
// donor.NextOp onward. The donor keeps running.
func (rt *Runtime) Fork(donor *Shadow) *Shadow {
	return rt.Spawn(donor.Txn, donor.NextOp, donor.Log.Prefix(donor.NextOp))
}

// ForkPrefix clones donor's state as of operation index upto <= NextOp,
// i.e. the process image just before op upto was consumed. This implements
// the Read Rule's "forked off T_o_r" at the conflicting read.
func (rt *Runtime) ForkPrefix(donor *Shadow, upto int) *Shadow {
	if upto > donor.NextOp {
		panic(fmt.Sprintf("rtdbs: ForkPrefix beyond donor progress (%d > %d)", upto, donor.NextOp))
	}
	return rt.Spawn(donor.Txn, upto, donor.Log.Prefix(upto))
}

// Kick re-evaluates a parked shadow (after a lock grant, a promotion, or
// any CCM state change that may unblock it).
func (rt *Runtime) Kick(sh *Shadow) { rt.maybeRun(sh) }

// Park cancels sh's in-flight operation, if any. The operation is not
// recorded; a later Kick re-executes it from scratch. CCMs use this when a
// scheduling decision (e.g. a shadow promotion) retracts the conditions
// under which the operation was issued.
func (rt *Runtime) Park(sh *Shadow) {
	if sh.pending != nil {
		rt.K.Cancel(sh.pending)
		sh.pending = nil
		rt.releaseServer(sh)
	}
}

func (rt *Runtime) maybeRun(sh *Shadow) {
	if sh.aborted || sh.Finished || sh.pending != nil {
		return
	}
	if sh.NextOp >= len(sh.Txn.Ops) {
		sh.Finished = true
		sh.Blocked = false
		rt.ccm.OnFinish(sh)
		return
	}
	if !rt.ccm.CanProceed(sh) {
		if !sh.Blocked {
			sh.Blocked = true
			rt.Metrics.BlockedWaits++
			if rt.Trace != nil {
				rt.Trace(rt.K.Now(), "block   txn %d shadow %d before op %d", sh.Txn.ID, sh.SID, sh.NextOp)
			}
		}
		return
	}
	sh.Blocked = false
	if rt.rmOn && !sh.holdsServer {
		if rt.rmFree == 0 {
			if !sh.Queued {
				sh.Queued = true
				rt.rmQueue = append(rt.rmQueue, sh)
			}
			return
		}
		rt.rmFree--
		sh.holdsServer = true
	}
	sh.Queued = false
	sh.pending = rt.K.After(sim.Time(sh.Txn.OpTime), sh.done)
}

// releaseServer returns sh's server (if held) to the pool and dispatches
// queued shadows until the pool or the queue drains.
func (rt *Runtime) releaseServer(sh *Shadow) {
	if !rt.rmOn || !sh.holdsServer {
		return
	}
	sh.holdsServer = false
	rt.rmFree++
	for rt.rmFree > 0 && len(rt.rmQueue) > 0 {
		head := rt.rmQueue[0]
		rt.rmQueue = rt.rmQueue[1:]
		if head.aborted || !head.Queued {
			continue
		}
		head.Queued = false
		free := rt.rmFree
		rt.maybeRun(head)
		if rt.rmFree == free {
			// The shadow did not take the server (blocked by the CCM);
			// keep dispatching.
			continue
		}
	}
}

func (rt *Runtime) opDone(sh *Shadow) {
	sh.pending = nil
	rt.releaseServer(sh)
	if sh.aborted {
		return
	}
	op := sh.Txn.Ops[sh.NextOp]
	if op.Write {
		sh.Log.AddWrite(op.Page, sh.NextOp)
	} else {
		sh.Log.AddRead(op.Page, sh.NextOp, rt.version[op.Page])
	}
	if rt.Trace != nil && op.Write {
		rt.Trace(rt.K.Now(), "write   txn %d shadow %d op %d page %d", sh.Txn.ID, sh.SID, sh.NextOp, op.Page)
	} else if rt.Trace != nil {
		rt.Trace(rt.K.Now(), "read    txn %d shadow %d op %d page %d (version %d)", sh.Txn.ID, sh.SID, sh.NextOp, op.Page, rt.version[op.Page])
	}
	sh.NextOp++
	rt.ccm.OnOpDone(sh)
	if sh.aborted {
		return
	}
	if rt.K.Steps() > rt.cfg.MaxSteps {
		rt.stopTruncated()
		return
	}
	rt.maybeRun(sh)
}

// AbortShadow stops sh and accounts its own executed time as wasted work.
// Aborting an already-aborted shadow is a no-op.
func (rt *Runtime) AbortShadow(sh *Shadow) {
	if sh.aborted {
		return
	}
	sh.aborted = true
	rt.K.Cancel(sh.pending)
	sh.pending = nil
	rt.releaseServer(sh)
	if rt.Trace != nil {
		rt.Trace(rt.K.Now(), "abort   txn %d shadow %d at op %d", sh.Txn.ID, sh.SID, sh.NextOp)
	}
	rt.Metrics.WastedTime += sh.OwnExecTime()
	if st := rt.active[sh.Txn.ID]; st != nil {
		for i, s := range st.Shadows {
			if s == sh {
				st.Shadows = append(st.Shadows[:i], st.Shadows[i+1:]...)
				break
			}
		}
	}
}

// Restart aborts every shadow of t and spawns a fresh one from scratch,
// bumping the restart counters. It returns the new shadow.
func (rt *Runtime) Restart(t *model.Txn) *Shadow {
	st := rt.active[t.ID]
	if st == nil {
		panic(fmt.Sprintf("rtdbs: Restart for inactive txn %d", t.ID))
	}
	for len(st.Shadows) > 0 {
		rt.AbortShadow(st.Shadows[0])
	}
	rt.Metrics.Restarts++
	if rt.Trace != nil {
		rt.Trace(rt.K.Now(), "restart txn %d (from scratch)", t.ID)
	}
	sh := rt.Spawn(t, 0, nil)
	rt.maybeRun(sh)
	return sh
}

// Commit validates sh's reads, installs its writes, finalizes statistics,
// removes the transaction from the active set (aborting sibling shadows),
// and broadcasts OnCommitted.
func (rt *Runtime) Commit(sh *Shadow) {
	t := sh.Txn
	st := rt.active[t.ID]
	switch {
	case st == nil:
		panic(fmt.Sprintf("rtdbs: Commit of inactive txn %d", t.ID))
	case sh.aborted:
		panic(fmt.Sprintf("rtdbs: Commit of aborted shadow %d of txn %d", sh.SID, t.ID))
	case !sh.Finished:
		panic(fmt.Sprintf("rtdbs: Commit of unfinished shadow %d of txn %d", sh.SID, t.ID))
	}
	now := rt.K.Now()

	if rt.cfg.CheckReads {
		for _, obs := range sh.Log.Reads() {
			if got := rt.version[obs.Page]; got != obs.Version {
				panic(fmt.Sprintf("rtdbs: %s: txn %d commits having read page %d version %d, committed version is %d",
					rt.ccm.Name(), t.ID, obs.Page, obs.Version, got))
			}
		}
	}
	for _, p := range sh.Log.WritePages() {
		rt.version[p] = t.ID
	}
	rt.commitSeq++
	if rt.rec != nil {
		rt.rec.Add(history.CommitRecord{ID: t.ID, Seq: rt.commitSeq, Commit: float64(now),
			Reads: slices.Clone(sh.Log.Reads()), Writes: slices.Clone(sh.Log.WritePages())})
	}

	// Sibling shadows are obsolete (Commit Rule: "all other shadows of
	// T_r become obsolete and are aborted").
	sh.aborted = true // guard against reuse; not wasted work
	rt.K.Cancel(sh.pending)
	sh.pending = nil
	rt.releaseServer(sh)
	for len(st.Shadows) > 0 {
		other := st.Shadows[0]
		if other == sh {
			st.Shadows = st.Shadows[1:]
			continue
		}
		rt.AbortShadow(other)
	}
	delete(rt.active, t.ID)
	i, _ := slices.BinarySearch(rt.ids, t.ID)
	rt.ids = slices.Delete(rt.ids, i, i+1)

	if rt.commitSeq > rt.cfg.Warmup {
		m := rt.Metrics
		m.Committed++
		m.UsefulTime += sh.OwnExecTime()
		if now > t.Deadline {
			m.Missed++
			m.TardinessSum += float64(now - t.Deadline)
		}
		m.ValueSum += t.Value(now)
		m.MaxValueSum += t.Class.Value
	}

	if rt.Trace != nil {
		rt.Trace(now, "commit  txn %d via shadow %d (tardiness %.2f)", t.ID, sh.SID, max(0, float64(now-t.Deadline)))
	}
	rt.ccm.OnCommitted(t, sh)

	if rt.commitSeq >= rt.cfg.Warmup+rt.cfg.Target {
		rt.K.Stop()
	}
}
