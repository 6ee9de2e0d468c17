// Interactive transaction sessions: the server side of the TXN wire
// verbs. A session is an open transaction whose operations arrive one
// client round trip at a time — the unit of the API is the transaction,
// not the verb — and whose SCC machinery stays live between round
// trips: a single-shard session binds an open engine transaction whose
// optimistic and speculative shadows park, fork, and get promoted while
// the client thinks (the paper's Sec. 2 mechanism, finally reachable
// over the wire). Sessions are value-cognizant end to end: BEGIN
// carries a Def. 2 value function, enters the admission queue like any
// transaction, and each session's own timer sheds it the moment its
// value function crosses zero, or once its idle cap passes (txn_reaped
// in STATS) — parked speculative state for worthless work is pure
// capacity theft.
//
// Execution modes. A fresh session is idle. Its first operation binds
// it to the owning shard's engine as a live interactive transaction
// (sessLive): a pooled goroutine runs the engine's closure protocol,
// but the "closure" replays the session's append-only op log and then
// parks waiting for more ops, so one logical transaction spans many
// round trips. The engine may run that closure several times
// concurrently (optimistic shadow + speculative shadow + restarts);
// each execution keeps its own cursor into the shared log, and the
// first execution to produce op i's result delivers it to the client —
// so the delivered results are always a prefix of the log. They are
// *speculative* until COMMIT, whose reply carries the committed
// execution's write results (exactly UPD's reply shape).
//
// An operation that routes off the bound shard aborts the live
// transaction and falls the session back to deferred mode
// (sessDeferred): ops are answered speculatively by applyOp on an
// overlay of private writes over committed state, and COMMIT replays the
// whole op log through
// the same admitted executor one-shot UPDs use — cross-shard
// validation, value-cognizant retry readmission, and all. Replica
// sessions (read-only, lag-gated at BEGIN) always run deferred.
// docs/PROTOCOL.md states the state machine normatively;
// docs/ARCHITECTURE.md places sessions in the system.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/server/opts"
	"repro/internal/shard"
)

// txnMaxIdle reaps a session that has seen no operation for this long
// even while its value function is still positive — a dead client's
// leaked session must not pin an admission slot and speculative engine
// state forever. Zero-crossing reaping runs regardless.
const txnMaxIdle = 30 * time.Second

// never is the reap delay of a session with neither deadline: its timer
// is armed but does not fire.
const never = time.Duration(math.MaxInt64)

type sessMode int

const (
	sessIdle     sessMode = iota // no operations yet
	sessLive                     // live engine transaction on the bound shard
	sessDeferred                 // speculative overlay; execution deferred to COMMIT
)

type sessFin int

const (
	finNone   sessFin = iota
	finCommit         // COMMIT received; executions finish and validate
	finAbort          // client ABORT or server shutdown
	finReap           // the session's timer shed it
)

// session is one interactive transaction.
type session struct {
	id uint64
	// token is the session's capability: a random value minted at BEGIN
	// and returned as part of the wire id ("<id>-<token>"). Every later
	// verb must present it — a numeric id alone (guessed, or left over
	// from another client's session) does not resolve, so one connection
	// cannot drive another's transaction by enumerating ids.
	token string
	srv   *Server
	req   request // the ledger entry BEGIN opened; COMMIT, ABORT or the reap timer finishes it
	val   float64 // value function at the admission grant: the engine-facing deferment value

	mu     sync.Mutex
	cond   *sync.Cond
	mode   sessMode
	fin    sessFin
	ops    []op      // append-only op log, replayed by every execution
	res    []int64   // speculative results of ops[:len(res)], each delivered once
	over   overlay   // deferred mode's read-your-writes view
	lastOp time.Time // BEGIN or latest op arrival, for the idle cap
	timer  *time.Timer

	// Live-path outcome: set once by runLive, before liveDone closes.
	// liveErr nil is a committed run whose write results are liveRes.
	liveDone chan struct{}
	liveRes  []int64
	liveErr  error
}

// sessionTable owns the server's sessions: id allocation, lookup, and
// bounded tombstones so operations on a reaped session answer SHED
// instead of a confusing "no such txn". Each session reaps itself on
// its own timer.
type sessionTable struct {
	srv     *Server
	maxIdle time.Duration // txnMaxIdle unless a test overrides it; negative = no idle cap

	mu       sync.Mutex
	sessions map[uint64]*session
	nextID   uint64
	reaped   map[uint64]struct{}
	reapRing []uint64 // tombstone eviction order (oldest first)
}

// maxTombstones bounds the reaped-session tombstone set; past it the
// oldest tombstones fall back to the generic no-such-txn error.
const maxTombstones = 4096

func newSessionTable(srv *Server, maxIdle time.Duration) *sessionTable {
	if maxIdle == 0 {
		maxIdle = txnMaxIdle
	}
	return &sessionTable{
		srv:      srv,
		maxIdle:  maxIdle,
		sessions: make(map[uint64]*session),
		reaped:   make(map[uint64]struct{}),
	}
}

// add registers a new session whose BEGIN already holds an admission
// slot, and arms its reap timer. The timer is armed under ss.mu, so a
// crossing that is already due cannot fire before ss.timer is set.
func (st *sessionTable) add(req request) *session {
	ss := &session{
		srv:    st.srv,
		req:    req,
		val:    req.f.At(st.srv.adm.now()),
		lastOp: time.Now(),
	}
	ss.cond = sync.NewCond(&ss.mu)
	ss.token = newSessionToken()
	st.mu.Lock()
	st.nextID++
	ss.id = st.nextID
	st.sessions[ss.id] = ss
	st.mu.Unlock()
	ss.mu.Lock()
	ss.timer = time.AfterFunc(ss.reapInLocked(), ss.reapCheck)
	ss.mu.Unlock()
	return ss
}

// get looks a session up; reaped reports a tombstoned (value-shed) id.
func (st *sessionTable) get(id uint64) (ss *session, reaped bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.reaped[id]; ok {
		return nil, true
	}
	return st.sessions[id], false
}

// remove drops a finished session, optionally leaving a tombstone.
func (st *sessionTable) remove(id uint64, tombstone bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.sessions, id)
	if !tombstone {
		return
	}
	st.reaped[id] = struct{}{}
	st.reapRing = append(st.reapRing, id)
	for len(st.reapRing) > maxTombstones {
		delete(st.reaped, st.reapRing[0])
		st.reapRing = st.reapRing[1:]
	}
}

// active returns the number of open sessions.
func (st *sessionTable) active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

func (st *sessionTable) snapshot() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*session, 0, len(st.sessions))
	for _, ss := range st.sessions {
		out = append(out, ss)
	}
	return out
}

// reapInLocked returns how long until the session is reaped: the earlier
// of its value function's zero crossing (Sec. 3's shed horizon, on the
// admission clock) and its idle deadline; zero or less when one has
// passed, never when it has neither. Caller holds ss.mu.
func (ss *session) reapInLocked() time.Duration {
	d := never
	if ns := (ss.req.f.ZeroCrossing() - ss.srv.adm.now()) * float64(time.Second); ns < float64(never) {
		d = time.Duration(ns)
	}
	if idle := ss.srv.sessions.maxIdle; idle > 0 {
		d = min(d, idle-time.Since(ss.lastOp))
	}
	return d
}

// reapCheck is the session's timer. Ops only move lastOp, so a timer
// armed for an idle deadline may find it renewed: it re-arms for the
// new deadline. Otherwise it claims the reap verdict and tears the
// session down here, on the timer's own goroutine — unwinding a live
// engine transaction can block on a conflicting transaction's
// resolution.
func (ss *session) reapCheck() {
	ss.mu.Lock()
	if ss.fin != finNone {
		ss.mu.Unlock()
		return
	}
	if d := ss.reapInLocked(); d > 0 {
		ss.timer.Reset(d)
		ss.mu.Unlock()
		return
	}
	ss.fin = finReap
	ss.cond.Broadcast()
	ld := ss.liveDone
	ss.mu.Unlock()
	if ld != nil {
		<-ld // let the engine transaction unwind first
	}
	ss.end(true, nil, errTxnReaped)
}

// close aborts every remaining session and stops its timer, waiting for
// live engine transactions to unwind so the store can close under a
// quiesced engine. Signaling and waiting are separate phases: a session
// mid-commit can be parked in the engine's value deferment on ANOTHER
// session's resolution, so waiting for it before the other session has
// been aborted would deadlock the teardown.
func (st *sessionTable) close() {
	sessions := st.snapshot()
	for _, ss := range sessions {
		ss.mu.Lock()
		if ss.fin == finNone {
			ss.fin = finAbort
			ss.cond.Broadcast()
		}
		ss.timer.Stop()
		ss.mu.Unlock()
	}
	for _, ss := range sessions {
		ss.mu.Lock()
		ld := ss.liveDone
		ss.mu.Unlock()
		if ld != nil {
			<-ld
		}
		st.remove(ss.id, false)
	}
}

// runLive is the session's engine run, on a goroutine of the server's
// pool (Server.runs): it binds the session to firstKey's shard as one
// engine transaction whose closure is the session's op-log replay loop
// (liveFn), and records the outcome. A declared-key violation is not an
// outcome but a mode change: the op log has outgrown the bound shard, so
// the session falls back to deferred cross-shard execution and re-serves
// the log speculatively.
func (ss *session) runLive(firstKey string) {
	res, err := ss.srv.store.UpdateTracedResult(ss.val, []string{firstKey}, nil, ss.req.tr, nil, ss.liveFn)
	ss.mu.Lock()
	if errors.Is(err, shard.ErrKeyNotDeclared) {
		ss.deferLocked()
	} else {
		ss.liveRes, _ = res.([]int64)
		ss.liveErr = err
	}
	ss.cond.Broadcast()
	ss.mu.Unlock()
	close(ss.liveDone)
}

// liveFn is one execution of the session's transaction. The engine may
// run it several times concurrently (optimistic + speculative shadows,
// restarts); each execution replays the op log from the start with its
// own cursor, parks when it outruns the log, and finishes only when the
// client's verdict arrives. A speculative shadow re-running this
// closure naturally parks at its conflict gate inside tx.Get — the
// paper's Blocking Rule, here suspended across client round trips.
func (ss *session) liveFn(tx shard.Tx) error {
	var results []int64
	for i := 0; ; i++ {
		ss.mu.Lock()
		for len(ss.ops) <= i && ss.fin == finNone {
			ss.cond.Wait()
		}
		if len(ss.ops) <= i {
			// The log is exhausted and a verdict is in: commit stashes
			// this execution's results (the committed execution's stash
			// is what COMMIT replies with); anything else stops it.
			fin := ss.fin
			ss.mu.Unlock()
			if fin == finCommit {
				tx.Stash(results)
				return nil
			}
			return errTxnAborted
		}
		o := ss.ops[i]
		ss.mu.Unlock()
		n, err := applyOp(tx, o)
		if err != nil {
			return err
		}
		if o.write {
			results = append(results, n)
		}
		ss.mu.Lock()
		// Executions replay the log in order, so the first to reach op
		// i finds exactly i results delivered.
		if len(ss.res) == i {
			ss.res = append(ss.res, n)
			ss.cond.Broadcast()
		}
		ss.mu.Unlock()
	}
}

// overlay is deferred mode's speculative view as a shard.Tx, so applyOp
// defines its ops: committed state under the session's private writes.
type overlay struct {
	store  *shard.Store
	writes map[string][]byte
}

func (o overlay) Get(key string) ([]byte, error) {
	if v, ok := o.writes[key]; ok {
		return v, nil
	}
	v, _ := o.store.Get(key)
	return v, nil
}

func (o overlay) Set(key string, v []byte) error {
	o.writes[key] = v
	return nil
}

func (overlay) Stash(any) {}

// deferLocked moves the session to deferred mode: a fresh overlay
// replays the whole op log, answering the ops no live execution did.
// Results the client already saw keep their values (speculative then,
// and still). Caller holds ss.mu.
func (ss *session) deferLocked() {
	ss.mode = sessDeferred
	ss.over = overlay{store: ss.srv.store, writes: make(map[string][]byte)}
	for i, o := range ss.ops {
		n, _ := applyOp(ss.over, o) // an overlay never fails
		if i == len(ss.res) {
			ss.res = append(ss.res, n)
		}
	}
}

// txnBegin admits and registers a new session. The value function is
// fixed here; on a replica the lag gate prices the whole session before
// the admission queue sees it. wait is BEGIN's wait hook.
func (c *conn) txnBegin(o opts.T, wait func()) string {
	// The slot estimate for an interactive transaction is a guess (the
	// op list does not exist yet); 2 ops is the workload's short-txn
	// shape. The estimate only orders the wait, it reserves nothing.
	s := c.s
	r, refused := c.begin(o, 2, false, true, wait)
	if refused != "" {
		return refused
	}
	// The enqueue and admit stamps reach the flight ring now, not at a
	// verdict that may be a long think time away.
	r.tr.Flush()
	ss := s.sessions.add(r)
	return "OK " + ss.wireID()
}

// wireID renders the session's composite wire id: the numeric table key
// joined to the capability token. Space-free, so it rides the BEGIN
// reply's single-token body; '-' never appears in the numeric part, so
// the split-off is unambiguous.
func (ss *session) wireID() string {
	return strconv.FormatUint(ss.id, 10) + "-" + ss.token
}

// newSessionToken mints a session capability: 8 bytes from crypto/rand,
// hex-encoded. Unguessable is the point; 64 bits is plenty for ids that
// live seconds and die with the session table.
func newSessionToken() string {
	b := make([]byte, 8)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// txnOp appends one R/W operation to the session and answers with its
// (speculative) result. In live mode the result comes from whichever
// engine execution reaches the op first — which can mean waiting for a
// parked speculative shadow to be released by a conflicting
// transaction's resolution, the Blocking Rule surfacing as client
// latency; wait, when non-nil, is called before that wait, outside ss.mu.
// In deferred mode the result is computed inline from the overlay view.
func (s *Server) txnOp(ss *session, o op, wait func()) string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if late := ss.verdictLocked(); late != "" {
		return late
	}
	if o.write {
		// The entry fence of the one-shot verbs: same redirect, so clients
		// re-run the transaction against the current primary.
		if reply := s.refuseWrite(ss.req.id); reply != "" {
			return reply
		}
	}
	if ss.liveErr != nil {
		return "ERR " + ss.liveErr.Error()
	}
	if ss.mode == sessIdle && s.replGate() != nil {
		// Replica sessions never bind a live engine transaction: they are
		// read-only and validate at COMMIT against the replicated state.
		ss.deferLocked()
	}
	i := len(ss.ops)
	ss.ops = append(ss.ops, o)
	ss.lastOp = time.Now()
	switch ss.mode {
	case sessDeferred:
		n, _ := applyOp(ss.over, o)
		ss.res = append(ss.res, n)
		return "OK " + strconv.FormatInt(n, 10)
	case sessIdle:
		ss.mode = sessLive
		ss.liveDone = make(chan struct{})
		s.runs.Go(func() { ss.runLive(o.key) })
	}
	ss.cond.Broadcast()
	for len(ss.res) <= i && ss.liveErr == nil && ss.fin == finNone {
		if wait != nil {
			ss.mu.Unlock()
			wait()
			wait = nil
			ss.mu.Lock()
			continue
		}
		ss.cond.Wait()
	}
	switch {
	case len(ss.res) > i:
		return "OK " + strconv.FormatInt(ss.res[i], 10)
	case ss.liveErr != nil:
		return "ERR " + ss.liveErr.Error()
	default:
		return ss.verdictLocked()
	}
}

// verdictLocked answers a verb that arrives after the session's verdict
// was claimed; "" while the session is still open. Caller holds ss.mu.
func (ss *session) verdictLocked() string {
	switch ss.fin {
	case finNone:
		return ""
	case finReap:
		return "SHED"
	}
	return "ERR txn " + strconv.FormatUint(ss.id, 10) + " is finishing"
}

// claim takes the session's one verdict for fin — COMMIT, ABORT and the
// reap timer race for it; the winner owes the request its finish —
// hands it to the parked executions, and waits for a live engine
// transaction to return, calling wait first when it would block. A late
// caller gets the reply to send instead.
func (ss *session) claim(fin sessFin, wait func()) (late string) {
	ss.mu.Lock()
	if late = ss.verdictLocked(); late != "" {
		ss.mu.Unlock()
		return late
	}
	ss.fin = fin
	ss.cond.Broadcast()
	ld := ss.liveDone
	ss.mu.Unlock()
	if ld != nil {
		engine.Await(ld, wait)
	}
	return ""
}

// txnCommit finishes the session with a commit verdict and replies in
// UPD's shape: OK plus the committed execution's write results in op
// order. Live sessions hand the verdict to the parked executions and
// await the engine's outcome; deferred sessions replay their op log
// through the same admitted executor one-shot verbs use. wait is COMMIT's
// wait hook.
func (s *Server) txnCommit(ss *session, wait func()) string {
	if late := ss.claim(finCommit, wait); late != "" {
		return late
	}
	ss.mu.Lock()
	mode, ops, res, err := ss.mode, ss.ops, ss.liveRes, ss.liveErr // a live run has returned by now
	ss.mu.Unlock()

	switch mode {
	case sessIdle:
		// An empty transaction commits trivially.
	case sessLive:
		if err == nil {
			// Semi-sync covers interactive commits like one-shot ones. The
			// slot is freed without refining the service-time estimate:
			// the engine work was interleaved with client think time.
			s.awaitReplicaAcks(ops, wait)
		}
	case sessDeferred:
		// The deferred replay is pure engine service time (no think
		// time in it), so unlike the live path it feeds the admission
		// estimate and the service stage like a one-shot.
		res, err = s.execAdmitted(&ss.req, ops, time.Now(), wait)
	}
	return ss.end(false, res, err)
}

// txnAbort finishes the session with an abort verdict.
func (s *Server) txnAbort(ss *session, wait func()) string {
	if late := ss.claim(finAbort, wait); late != "" {
		return late
	}
	ss.end(false, nil, errTxnAborted)
	return "OK"
}

// end is the one way out of a claimed session — COMMIT, ABORT and the
// reap timer all take it: stop the timer, drop the session from the
// table (a reaped one leaves a tombstone), observe its length in
// scc_txn_session_ops, and finish its request, returning the reply.
func (ss *session) end(reaped bool, res []int64, err error) string {
	ss.mu.Lock()
	n := len(ss.ops)
	ss.timer.Stop()
	ss.mu.Unlock()
	ss.srv.sessions.remove(ss.id, reaped)
	ss.srv.met.sessionOps.Observe(int64(n))
	reply := ss.req.finish(res, err)
	if reaped {
		// Counted last: whoever sees txn_reaped move sees the settled
		// ledger and the tombstone behind it.
		ss.srv.met.txnReaped.Inc()
	}
	return reply
}
