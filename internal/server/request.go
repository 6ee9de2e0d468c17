// The request ledger. Every unit of client work that carries a value
// function — a one-shot ADD/UPD or an interactive TXN session — is
// one request: begin admits it (or refuses it), finish delivers its
// verdict, and between the two calls lies either one execAdmitted call
// (one-shot verbs) or a session's round trips. The value-conservation
// ledger (metrics.go), the lifecycle trace, the flight-recorder stamps
// and the admission slot are booked here and nowhere else, so the
// invariant submitted == realized + sum(lost) cannot drift between
// verbs: each request adds v0 to submitted exactly once in begin and
// settles exactly v0 — realized plus one loss reason — in refuse or
// finish.
package server

import (
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/server/opts"
	"repro/internal/value"
)

// request is one admitted (or refused) unit of client work.
type request struct {
	s       *Server
	id      uint64     // flight-recorder tag
	f       value.Fn   // Def. 2 value function, anchored at submit
	v0      float64    // f at submit, floored at zero: the ledger entry
	tr      *obs.Trace // lifecycle trace; nil unless trace=1 or flight-sampled
	admitAt time.Time  // admission grant, where a one-shot's service time starts
	session bool       // interactive TXN session (reply and decay labels differ)

	// The admission slot, held from begin's grant until finish releases
	// it — unless a cross-shard retry surrendered it at readmission
	// (shed). service over numOps is the sample the release feeds
	// admission's per-op estimate; zero means none, because a live
	// session's engine work is interleaved with client think time.
	shed    bool
	service time.Duration
	numOps  int
}

// Verdicts that are not engine errors: a client's TXN ABORT, and a
// session's timer shedding it at its zero crossing or idle cap.
// errTxnAborted doubles as the session closure's "stop executing"
// sentinel (session.go).
var (
	errTxnAborted = errors.New("server: txn session aborted")
	errTxnReaped  = errors.New("server: txn session reaped")
)

// begin opens the ledger entry for a request arriving now, under the
// next id of the connection c it came in on, and takes it through the
// door: the refusals that never wait (a write off a primary, a read a
// lagging replica cannot serve in time), then the admission queue, which
// calls wait, when non-nil, before the request blocks in it. A non-empty
// reply means the request was refused — its value is already booked as
// lost — and must be answered with that reply; otherwise the caller
// holds an admission slot until finish.
func (c *conn) begin(o opts.T, numOps int, write, session bool, wait func()) (request, string) {
	// trace=1 requests always record their lifecycle into the flight
	// recorder's server ring; untraced requests record a deterministic
	// 1-in-flightSample slice (by the connection's request count:
	// flightSample divides 1<<connIDBits, so the id's connection bits
	// drop out) so the black box always holds recent full lifecycles at
	// near-zero per-request cost. The rest carry a nil trace — every
	// stamp is a no-op branch. The trace= reply token stays opt-in
	// (retain only when asked).
	s := c.s
	r := request{s: s, id: c.ids.Add(1), f: s.adm.FnOf(o), session: session}
	if o.Trace || r.id%flightSample == 0 {
		r.tr = obs.NewRecordedTrace(time.Now(), s.flight.Server(), r.id, o.Trace)
	}
	if o.Trace {
		s.met.traces.Inc()
	}
	// Floored at zero: a request past its zero-crossing has no value left
	// to account, not negative value.
	r.v0 = max(r.f.At(s.adm.now()), 0)
	s.met.submitted.Add(r.v0)
	if write {
		if reply := s.refuseWrite(r.id); reply != "" {
			return r, r.refuse(obs.LossError, reply)
		}
	}
	if gate := s.replGate(); gate != nil {
		// Read replica: a read-only transaction is shed when its value
		// function would cross zero before the replica's estimated
		// catch-up — a stale read it could never deliver while it still
		// carries value.
		if err := gate.Admit(r.f, s.adm.now()); err != nil {
			s.flight.Admission().Record(flight.EvReplShed, r.id, -1, 0)
			return r, r.refuse(obs.LossReplicaLag, "SHED")
		}
	}
	// The enqueue stamp is the submit instant — the trace's own start,
	// no clock read needed.
	r.tr.EventOff(obs.StageEnqueue, 0)
	admitStart := time.Now()
	if err := s.adm.acquire(r.f, numOps, wait); err != nil {
		return r, r.refuse(obs.LossAdmissionShed, "SHED")
	}
	r.admitAt = time.Now()
	s.met.admitWait.Observe(int64(r.admitAt.Sub(admitStart)))
	r.tr.EventAt(obs.StageAdmit, r.admitAt)
	return r, ""
}

// refuse settles a request that never got a slot: its whole submitted
// value is lost to reason.
func (r *request) refuse(reason, reply string) string {
	r.s.met.lostValue(reason, r.v0)
	r.tr.Flush()
	return reply
}

// finish delivers an admitted request's verdict, exactly once: it frees
// the slot, settles the ledger entry, stamps a commit and renders the
// reply. A commit (err == nil) realizes the value function's value now
// and books the decay since submit; every other verdict realizes
// nothing, so the whole submitted value goes to the one reason
// lossReason reads off err — booking only the residual would leak the
// decayed part out of the conservation invariant.
func (r *request) finish(results []int64, err error) string {
	s := r.s
	if !r.shed {
		s.adm.Release(r.service, r.numOps)
	}
	var reply string
	if err == nil {
		vEnd := max(r.f.At(s.adm.now()), 0)
		s.met.realized.Add(vEnd)
		decay := obs.LossExecution
		if r.session {
			decay = obs.LossSession
		}
		s.met.lostValue(decay, r.v0-vEnd)
		r.tr.Event(obs.StageCommit)
		reply = okResults(results)
		if r.tr.Retained() {
			reply += " trace=" + r.tr.String()
		}
	} else {
		reason := lossReason(err)
		s.met.lostValue(reason, r.v0)
		switch {
		case reason == obs.LossCrossShed:
			s.met.crossShed.Inc()
			reply = "SHED"
		case r.session && reason == obs.LossConflictAbort:
			// Retryable conflicts are marked distinctly so session
			// clients can re-run the transaction, mirroring
			// Store.Update's internal retry.
			reply = "ERR conflict: " + err.Error()
		default:
			reply = "ERR " + err.Error()
		}
	}
	r.tr.Flush()
	return reply
}

// lossReason maps a failed verdict's error to its lost-value reason: a
// shed at cross-shard readmission, a client abort, a reap, an exhausted
// conflict-retry budget, a failed WAL sync (the verdict was converted
// to ERR because the batch never became durable), or anything else (bad
// keys, closed store, a fenced commit).
func lossReason(err error) string {
	var ae *engine.AttemptsError
	var se *engine.SyncError
	switch {
	case errors.Is(err, ErrShed):
		return obs.LossCrossShed
	case errors.Is(err, errTxnAborted):
		return obs.LossClientAbort
	case errors.Is(err, errTxnReaped):
		return obs.LossReap
	case errors.As(err, &ae):
		return obs.LossConflictAbort
	case errors.As(err, &se):
		return obs.LossWALError
	}
	return obs.LossError
}
