// Interactive transaction sessions: the server side of the TXN wire
// verbs. A session is an open transaction whose operations arrive one
// client round trip at a time — the unit of the API is the transaction,
// not the verb — and whose SCC machinery stays live between round
// trips: a single-shard session binds an open engine transaction whose
// optimistic and speculative shadows park, fork, and get promoted while
// the client thinks (the paper's Sec. 2 mechanism, finally reachable
// over the wire). Sessions are value-cognizant end to end: BEGIN
// carries a Def. 2 value function, enters the admission queue like any
// transaction, and a reaper sheds idle sessions whose value function
// has crossed zero (txn_reaped in STATS) — parked speculative state for
// worthless work is pure capacity theft.
//
// Execution modes. A fresh session is idle. Its first operation binds
// it to the owning shard's engine as a live interactive transaction
// (sessLive): a session goroutine runs the engine's closure protocol,
// but the "closure" replays the session's append-only op log and then
// parks waiting for more ops, so one logical transaction spans many
// round trips. The engine may run that closure several times
// concurrently (optimistic shadow + speculative shadow + restarts);
// each execution keeps its own cursor into the shared log, and the
// first execution to produce op i's result delivers it to the client —
// results are therefore *speculative* until COMMIT, whose reply carries
// the committed execution's write results (exactly UPD's reply shape).
//
// An operation that routes off the bound shard aborts the live
// transaction and falls the session back to deferred mode
// (sessDeferred): reads are served speculatively from committed state
// plus a private overlay, and COMMIT replays the whole op log through
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
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server/opts"
	"repro/internal/shard"
)

const (
	// reapEvery is the reaper's scan interval: it notices a session whose
	// value function crossed zero, or whose idle cap expired, at most this
	// long after the fact.
	reapEvery = 25 * time.Millisecond
	// txnMaxIdle reaps a session that has seen no operation for this long
	// even while its value function is still positive — a dead client's
	// leaked session must not pin an admission slot and speculative
	// engine state forever. Zero-crossing reaping runs regardless.
	txnMaxIdle = 30 * time.Second
)

type sessMode int

const (
	sessIdle     sessMode = iota // no operations yet
	sessLive     sessMode = iota // live engine transaction on the bound shard
	sessDeferred                 // speculative overlay; execution deferred to COMMIT
	sessFailed                   // live transaction died with a terminal error
)

type sessFin int

const (
	finNone   sessFin = iota
	finCommit         // COMMIT received; executions finish and validate
	finAbort          // client ABORT or server shutdown
	finReap           // value-cognizant reaper shed the session
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
	req   request // the ledger entry BEGIN opened; COMMIT, ABORT or the reaper finishes it
	val   float64 // value function at the admission grant: the engine-facing deferment value

	mu        sync.Mutex
	cond      *sync.Cond
	mode      sessMode
	fin       sessFin
	ops       []op             // append-only op log, replayed by every execution
	res       []int64          // speculative per-op results
	delivered []bool           // res[i] has been produced (first execution wins)
	overlay   map[string]int64 // deferred-mode read-your-writes view
	lastOp    time.Time        // BEGIN or latest op arrival, for idle reaping
	failErr   error            // terminal live-path error (mode == sessFailed)

	// Live-path rendezvous: liveDone is closed when the session
	// goroutine's engine call returned; on a committed transaction
	// liveRes holds the committed execution's write results.
	liveDone      chan struct{}
	liveRes       []int64
	liveCommitted bool
}

// sessionTable owns the server's sessions: id allocation, lookup, the
// value-cognizant reaper, and bounded tombstones so operations on a
// reaped session answer SHED instead of a confusing "no such txn".
type sessionTable struct {
	srv     *Server
	maxIdle time.Duration // txnMaxIdle unless a test overrides it; negative = no idle cap

	mu       sync.Mutex
	sessions map[uint64]*session
	nextID   uint64
	reaped   map[uint64]struct{}
	reapRing []uint64 // tombstone eviction order (oldest first)

	wake chan struct{} // signaled when the table goes non-empty
	stop chan struct{}
	done chan struct{}
}

// maxTombstones bounds the reaped-session tombstone set; past it the
// oldest tombstones fall back to the generic no-such-txn error.
const maxTombstones = 4096

func newSessionTable(srv *Server, maxIdle time.Duration) *sessionTable {
	if maxIdle == 0 {
		maxIdle = txnMaxIdle
	}
	st := &sessionTable{
		srv:      srv,
		maxIdle:  maxIdle,
		sessions: make(map[uint64]*session),
		reaped:   make(map[uint64]struct{}),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go st.reapLoop()
	return st
}

// add registers a new session whose BEGIN already holds an admission slot.
func (st *sessionTable) add(req request) *session {
	ss := &session{
		srv:     st.srv,
		req:     req,
		val:     req.f.At(st.srv.adm.now()),
		overlay: make(map[string]int64),
		lastOp:  time.Now(),
	}
	ss.cond = sync.NewCond(&ss.mu)
	ss.token = newSessionToken()
	st.mu.Lock()
	st.nextID++
	ss.id = st.nextID
	st.sessions[ss.id] = ss
	first := len(st.sessions) == 1
	st.mu.Unlock()
	if first {
		select {
		case st.wake <- struct{}{}:
		default:
		}
	}
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

// reapLoop sheds sessions whose value functions have crossed zero —
// Sec. 3's zero-crossing rule applied to parked interactive state — and
// sessions idle past the configured cap. The actual teardown is
// asynchronous: unwinding a live engine transaction can block on a
// conflicting transaction's resolution, and one wedged session must not
// stall the sweep.
func (st *sessionTable) reapLoop() {
	defer close(st.done)
	timer := time.NewTimer(reapEvery)
	defer timer.Stop()
	for {
		// Park entirely while no sessions exist: an idle (or
		// one-shot-only) server must not pay a periodic wakeup for a
		// feature it is not using.
		if st.active() == 0 {
			select {
			case <-st.stop:
				return
			case <-st.wake:
			}
		}
		timer.Reset(reapEvery)
		select {
		case <-st.stop:
			return
		case <-timer.C:
		}
		now := st.srv.adm.now()
		for _, ss := range st.snapshot() {
			ss.mu.Lock()
			expired := ss.fin == finNone && ss.req.f.At(now) <= 0
			idle := ss.fin == finNone && st.maxIdle > 0 && time.Since(ss.lastOp) > st.maxIdle
			if !expired && !idle {
				ss.mu.Unlock()
				continue
			}
			ss.fin = finReap
			ss.cond.Broadcast()
			ld := ss.liveDone
			ss.mu.Unlock()
			go func(ss *session, ld chan struct{}) {
				if ld != nil {
					<-ld // let the engine transaction unwind first
				}
				ss.end(true, nil, errTxnReaped)
			}(ss, ld)
		}
	}
}

// close stops the reaper and aborts every remaining session, waiting for
// live engine transactions to unwind so the store can close under a
// quiesced engine. Signaling and waiting are separate phases: a session
// mid-commit can be parked in the engine's value deferment on ANOTHER
// session's resolution, so waiting for it before the other session has
// been aborted would deadlock the teardown.
func (st *sessionTable) close() {
	close(st.stop)
	<-st.done
	sessions := st.snapshot()
	for _, ss := range sessions {
		ss.mu.Lock()
		if ss.fin == finNone {
			ss.fin = finAbort
			ss.cond.Broadcast()
		}
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

// runLive is the session goroutine: it binds the session to firstKey's
// shard as one engine transaction whose closure is the session's op-log
// replay loop (liveFn), and records the outcome. A declared-key
// violation is not an error but a mode change: the op log has outgrown
// the bound shard, so the session falls back to deferred cross-shard
// execution and re-serves the log speculatively.
func (ss *session) runLive(firstKey string) {
	res, err := ss.srv.store.UpdateTracedResult(ss.val, []string{firstKey}, nil, ss.req.tr, nil, ss.liveFn)
	ss.mu.Lock()
	switch {
	case err == nil:
		ss.liveRes, _ = res.([]int64)
		ss.liveCommitted = true
	case errors.Is(err, shard.ErrKeyNotDeclared):
		ss.req.tr.Event(obs.StageDeferred)
		ss.mode = sessDeferred
		ss.replaySpecLocked()
	case errors.Is(err, errTxnAborted):
		// Client abort, reap, or shutdown: nothing to record.
	default:
		ss.mode = sessFailed
		ss.failErr = err
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
		ss.deliverLive(i, n)
	}
}

// deliverLive publishes op i's result if no execution beat this one to it.
func (ss *session) deliverLive(i int, n int64) {
	ss.mu.Lock()
	if !ss.delivered[i] {
		ss.delivered[i] = true
		ss.res[i] = n
		ss.cond.Broadcast()
	}
	ss.mu.Unlock()
}

// applySpecLocked applies op i to the deferred-mode speculative view
// (committed state + private overlay) and returns its result, delivering
// it if still undelivered. Caller holds ss.mu.
func (ss *session) applySpecLocked(i int) int64 {
	o := ss.ops[i]
	cur := func(key string) int64 {
		if v, ok := ss.overlay[key]; ok {
			return v
		}
		v, _ := ss.srv.store.Get(key)
		return parseNum(v)
	}
	var n int64
	switch {
	case !o.write:
		n = cur(o.key)
	case o.set:
		n = o.delta
		ss.overlay[o.key] = n
	default:
		n = cur(o.key) + o.delta
		ss.overlay[o.key] = n
	}
	if !ss.delivered[i] {
		ss.delivered[i] = true
		ss.res[i] = n
	}
	return n
}

// replaySpecLocked rebuilds the speculative overlay from the whole op
// log after a fall-back to deferred mode. Results the client already saw
// keep their delivered values (they were speculative then and remain
// so); undelivered ops get overlay-derived results. Caller holds ss.mu.
func (ss *session) replaySpecLocked() {
	ss.overlay = make(map[string]int64)
	for i := range ss.ops {
		ss.applySpecLocked(i)
	}
	ss.cond.Broadcast()
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
	s.met.txnBegun.Inc()
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
	if ss.mode == sessFailed {
		return "ERR " + ss.failErr.Error()
	}
	i := len(ss.ops)
	ss.ops = append(ss.ops, o)
	ss.res = append(ss.res, 0)
	ss.delivered = append(ss.delivered, false)
	ss.lastOp = time.Now()
	if ss.mode == sessIdle {
		if s.replGate() != nil {
			// Replica sessions never bind a live engine transaction:
			// they are read-only and validate at COMMIT against the
			// replicated state.
			ss.mode = sessDeferred
		} else {
			ss.mode = sessLive
			ss.liveDone = make(chan struct{})
			go ss.runLive(o.key)
		}
	}
	if ss.mode == sessDeferred {
		return "OK " + strconv.FormatInt(ss.applySpecLocked(i), 10)
	}
	ss.cond.Broadcast()
	for !ss.delivered[i] && ss.mode == sessLive && ss.fin == finNone {
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
	case ss.delivered[i]:
		return "OK " + strconv.FormatInt(ss.res[i], 10)
	case ss.mode == sessFailed:
		return "ERR " + ss.failErr.Error()
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
// reaper race for it; the winner owes the request its finish — hands it
// to the parked executions, and waits for a live engine transaction to
// return, calling wait first when it would block. A late caller gets the
// reply to send instead.
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
	mode := ss.mode // by now a live run has committed, rebound to deferred, or failed
	ops, committed, res, failErr := ss.ops, ss.liveCommitted, ss.liveRes, ss.failErr
	ss.mu.Unlock()

	var err error
	switch {
	case committed:
		// Semi-sync covers interactive commits like one-shot ones. The
		// slot is freed without refining the service-time estimate: the
		// engine work was interleaved with client think time.
		s.awaitReplicaAcks(ops, wait)
	case mode == sessIdle:
		// An empty transaction commits trivially.
	case mode == sessDeferred:
		// The deferred replay is pure engine service time (no think
		// time in it), so unlike the live path it feeds the admission
		// estimate and the service stage like a one-shot.
		res, err = s.execAdmitted(&ss.req, ops, time.Now(), wait)
	case mode == sessFailed:
		err = failErr
	default:
		err = errors.New("txn aborted")
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
// reaper all take it: drop the session from the table (a reaped one
// leaves a tombstone), observe its length in scc_txn_session_ops, and
// finish its request, returning the reply.
func (ss *session) end(reaped bool, res []int64, err error) string {
	ss.mu.Lock()
	n := len(ss.ops)
	ss.mu.Unlock()
	ss.srv.sessions.remove(ss.id, reaped)
	ss.srv.met.sessionOps.Observe(int64(n))
	return ss.req.finish(res, err)
}
