// Interactive transactions over the TXN wire verbs. A Txn is one
// server-side session: operations issued through it execute inside an
// open transaction on the server — with the engine's SCC speculation
// live between round trips — and take effect atomically at Commit.
// Mux.Do wraps the begin/run/commit cycle in a retry loop that mirrors
// engine.Store.Update, so embedded-engine and network callers share one
// API shape:
//
//	err := m.Do(client.TxOpts{Value: 5, Deadline: time.Second}, func(tx *client.Txn) error {
//	        bal, err := tx.Get("acct")
//	        if err != nil {
//	                return err
//	        }
//	        if bal < 10 {
//	                return errors.New("insufficient")
//	        }
//	        _, err = tx.Add("acct", -10)
//	        return err
//	})
//
// Mid-transaction read results are SPECULATIVE: under SCC the committed
// execution may have observed fresher values than the ones delivered
// while the transaction was open (a promoted shadow re-reads). Writes
// are deltas or absolute sets, so replays are value-safe; Commit's
// returned results are the committed execution's. Like Store.Update
// closures, a Do function may run several times and must not rely on
// side effects of a run that did not commit.
package client

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrConflict is returned by Txn.Commit (and retried by Do) when the
// server gave up on the transaction under contention — its attempt
// budget was exhausted. The transaction did not commit; re-running it is
// the correct response.
var ErrConflict = errors.New("client: transaction conflict")

// ErrTxnFinished is returned by operations on a Txn after Commit or
// Abort was called on it.
var ErrTxnFinished = errors.New("client: transaction already finished")

// Txn is an open interactive transaction session. A Txn is not safe for
// concurrent use; pipelining across transactions comes from running many
// Txns over one Mux, not from racing one Txn.
type Txn struct {
	m     *Mux
	id    string
	fin   bool
	trace string
}

// Trace returns the lifecycle trace the commit reply carried ("" unless
// the session was begun with TxOpts.Trace and committed): "stage:ns"
// pairs, comma-separated, offsets from BEGIN.
func (t *Txn) Trace() string { return t.trace }

// Begin opens an interactive transaction session carrying opts' value
// function: it competes in the server's admission queue like any
// transaction and is reaped server-side once its value crosses zero.
// Many Txns may run concurrently over one Mux: their TXN ops pipeline
// on the shared connection.
func (m *Mux) Begin(opts TxOpts) (*Txn, error) {
	resp, err := m.call(func(b []byte) []byte { return opts.Append(append(b, "TXN BEGIN"...)) })
	if err != nil {
		return nil, err
	}
	body, err := parse(resp)
	if err != nil {
		return nil, err
	}
	if body == "" || strings.ContainsRune(body, ' ') {
		return nil, fmt.Errorf("client: malformed TXN BEGIN reply %q", resp)
	}
	return &Txn{m: m, id: body}, nil
}

// op issues one session verb on key, "TXN <verb> <id> <key>" followed by
// *delta when it is non-nil, and parses the single-integer reply.
func (t *Txn) op(verb, key string, delta *int64) (int64, error) {
	if t.fin {
		return 0, ErrTxnFinished
	}
	if err := checkKey(key); err != nil {
		return 0, err
	}
	return intReply(t.m.call(func(b []byte) []byte {
		b = append(append(append(append(b, "TXN "...), verb...), ' '), t.id...)
		b = append(append(b, ' '), key...)
		if delta != nil {
			b = strconv.AppendInt(append(b, ' '), *delta, 10)
		}
		return b
	}))
}

// Get reads key inside the transaction. Missing keys read as 0. The
// result is speculative until Commit (see the package comment).
func (t *Txn) Get(key string) (int64, error) {
	return t.op("R", key, nil)
}

// Add read-modify-writes key by delta and returns the (speculative) new
// value; the committed value is in Commit's results.
func (t *Txn) Add(key string, delta int64) (int64, error) {
	return t.op("W", key, &delta)
}

// Commit finishes the transaction and returns the committed execution's
// write results, in op order. A contention give-up surfaces as
// ErrConflict (wrapped); the transaction did not commit and may be
// retried from Begin — which is exactly what Do automates.
func (t *Txn) Commit() ([]int64, error) {
	if t.fin {
		return nil, ErrTxnFinished
	}
	t.fin = true
	resp, err := t.m.do("TXN COMMIT " + t.id)
	if err != nil {
		return nil, err
	}
	if msg, ok := strings.CutPrefix(resp, "ERR conflict: "); ok {
		return nil, fmt.Errorf("%w: %s", ErrConflict, msg)
	}
	body, err := parse(resp)
	if err != nil {
		return nil, err
	}
	body, t.trace = cutTrace(body)
	return parseInts(nil, body)
}

// Abort discards the transaction.
func (t *Txn) Abort() error {
	if t.fin {
		return ErrTxnFinished
	}
	t.fin = true
	resp, err := t.m.do("TXN ABORT " + t.id)
	if err != nil {
		return err
	}
	_, err = parse(resp)
	return err
}

// maxDoAttempts bounds Do's begin/run/commit retries on ErrConflict.
const maxDoAttempts = 4

// Do runs fn inside an interactive transaction and commits it, retrying
// the whole cycle on contention give-ups — the network mirror of
// engine.Store.Update. fn may therefore run several times: like an
// engine closure it must tolerate re-execution and must not rely on the
// side effects of a run that did not commit. A non-conflict error from
// fn aborts the transaction and is returned as-is; ErrShed is terminal
// (the work's value is gone — retrying cannot restore it).
func (m *Mux) Do(opts TxOpts, fn func(*Txn) error) error {
	var last error
	for attempt := 0; attempt < maxDoAttempts; attempt++ {
		tx, err := m.Begin(opts)
		if err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			if !tx.fin {
				tx.Abort() // best effort; the reap timer covers a failed abort
			}
			if errors.Is(err, ErrConflict) {
				last = err
				continue
			}
			return err
		}
		if tx.fin {
			// fn committed or aborted explicitly; its verdict stands.
			return nil
		}
		if _, err := tx.Commit(); err != nil {
			if errors.Is(err, ErrConflict) {
				last = err
				continue
			}
			return err
		}
		return nil
	}
	return last
}
