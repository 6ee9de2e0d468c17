// Package loadgen is the repo's one closed-loop load driver for a live
// sccserve: cmd/sccload (flags in, summary out) and internal/scenario
// (one in-process topology per matrix cell) are thin configurations of
// it, so both report the same client-side account and run the same
// audits.
//
// Each client drives one TCP connection. It draws transactions from an
// internal/workload generator (the paper's Sec. 4 transaction model —
// access lists, write probabilities, deadlines, value functions) and
// renders each as one wire transaction: reads become read dependencies,
// writes become balanced ± deltas so the keyspace total is conserved,
// plus a +1 on a per-client ledger counter. Three worker shapes issue
// them: one blocking round trip at a time through the redirect-following
// Pool, Mux.Batch bursts that keep Pipeline transactions in flight, or
// interactive TXN sessions (BEGIN, one round trip per op preceded by the
// workload's think time, COMMIT) — the shape the one-shot verbs cannot
// express: open transactions holding speculative state across client
// latency. Every transaction's latency, deadline, and value are
// accounted on its own request/response pair in all three.
//
// Two invariants make every run a correctness check, not just a
// stopwatch: AuditConservation (the balanced deltas must sum to zero; a
// torn cross-shard commit breaks it) and AuditLedger (each client's
// counters must cover its acknowledged commits; a lost update breaks
// it). Both read only the run's id-namespaced keys, so they can run from
// a later process against a restarted or promoted server.
package loadgen

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// Config describes one run.
type Config struct {
	// Pool is the cluster under load. Pipelined and interactive shapes
	// dial its believed primary once; blocking round trips follow its
	// redirects.
	Pool    *Pool
	Clients int
	// Ops or Duration bounds the run (set exactly one): every client
	// issues Ops transactions, or keeps issuing until Duration elapsed.
	Ops      int
	Duration time.Duration
	// Pipeline is the number of transactions a client keeps in flight:
	// 0 is one blocking round trip at a time, n > 0 is Mux.Batch bursts
	// of n — or, with Interactive, n concurrent TXN sessions (at least
	// one) multiplexed over the client's connection.
	Pipeline    int
	Interactive bool
	// Workload builds one transaction stream's generator configuration
	// from the stream's seed; its Think is the interactive think time.
	Workload func(seed int64) workload.Config
	// Opts maps a generated transaction to its wire options — the value
	// function admission orders by and Result.Book re-evaluates.
	Opts func(t *model.Txn) client.TxOpts
	// Pages is the page span the workload writes and AuditConservation
	// sums; 0 renders counter-only transactions (one key, one shard —
	// the single-shard fast path and group commit).
	Pages int
	Seed  int64
	RunID int64
	// TraceEvery asks for a server-side lifecycle trace (trace=1) on
	// every nth transaction, counted across all clients so the sample
	// spreads over the whole run (0 = off).
	TraceEvery int
}

// run is the state shared by every stream of one Run.
type run struct {
	Config
	deadline time.Time // zero for Ops-bounded runs
	traceSeq atomic.Int64
}

// Run drives the configured load to completion and returns its summary.
// The error reports a client that could not connect; the Result still
// accounts whatever the other clients did.
func Run(cfg Config) (*Result, error) {
	r := &run{Config: cfg}
	start := time.Now()
	if cfg.Duration > 0 {
		r.deadline = start.Add(cfg.Duration)
	}
	accounts := make([]*Result, cfg.Clients)
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	for w := range cfg.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			accounts[w], errs[w] = r.client(w)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := NewResult()
	res.RunID = cfg.RunID
	res.Acked = Acked{RunID: cfg.RunID, Slots: max(1, cfg.Pipeline), Counts: make([]int64, cfg.Clients)}
	for w, a := range accounts {
		res.Acked.Counts[w] = a.Committed
		res.Merge(a)
	}
	res.Finish(elapsed)
	res.Redirects, res.Reconnects = cfg.Pool.redirects.Load(), cfg.Pool.reconns.Load()
	return res, errors.Join(errs...)
}

// client runs client w's connection in the configured shape and returns
// its account.
func (r *run) client(w int) (*Result, error) {
	var m *client.Mux
	if r.Interactive || r.Pipeline > 0 {
		var err error
		if m, err = client.DialMux(r.Pool.Primary()); err != nil {
			return NewResult(), fmt.Errorf("loadgen: client %d: %w", w, err)
		}
		defer m.Close()
	}
	// Concurrent sessions each get their own stream (generator, counter
	// slot, share of Ops), so only the connection is shared; the
	// one-shot shapes are a single stream.
	streams := make([]*stream, 1)
	if r.Interactive {
		streams = make([]*stream, max(1, r.Pipeline))
	}
	var wg sync.WaitGroup
	for slot := range streams {
		quota := r.Ops / len(streams)
		if slot < r.Ops%len(streams) {
			quota++
		}
		s := r.stream(w, slot, quota)
		streams[slot] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch {
			case r.Interactive:
				s.loop(1, s.session(m))
			case m != nil:
				s.loop(r.Pipeline, m.Batch)
			default:
				fc := &failoverClient{pool: r.Pool}
				defer fc.close()
				s.loop(1, s.roundTrip(fc))
			}
		}()
	}
	wg.Wait()
	for _, s := range streams[1:] {
		streams[0].account.Merge(s.account)
	}
	return streams[0].account, nil
}

// stream is one sequential issuer of transactions.
type stream struct {
	*run
	w, slot int
	gen     *workload.Generator
	left    int // transactions still to issue (Ops-bounded runs)
	account *Result
}

func (r *run) stream(w, slot, quota int) *stream {
	seed := r.Seed + int64(w)*7919 + int64(slot)*104_729
	return &stream{run: r, w: w, slot: slot, left: quota, account: NewResult(),
		gen: workload.NewGenerator(r.Workload(seed))}
}

// take claims up to n transactions from the stream's share of the run;
// 0 means the stream is done.
func (s *stream) take(n int) int {
	if s.deadline.IsZero() {
		n = min(n, s.left)
		s.left -= n
	} else if !time.Now().Before(s.deadline) {
		n = 0
	}
	return n
}

// next draws one transaction and renders it onto the given counter
// slot (one per in-flight transaction of the client).
func (s *stream) next(slot int) client.UpdateReq {
	t := s.gen.Next()
	o := s.Opts(t)
	o.Trace = s.TraceEvery > 0 && (s.traceSeq.Add(1)-1)%int64(s.TraceEvery) == 0
	return client.UpdateReq{Ops: Render(t, s.RunID, s.Pages > 0, s.w, slot), Opts: o}
}

// loop is the closed loop all three shapes share: claim a burst of the
// stream's share, render it, issue it, book each outcome. issue returns
// one outcome per transaction it sent, in order. A transport failure
// among them (or fewer outcomes than requests) means the stream's
// connection is gone past the issuer's own recovery, so the stream ends
// rather than book outcomes for transactions that never left the client.
func (s *stream) loop(burst int, issue func([]client.UpdateReq) []client.UpdateResult) {
	reqs := make([]client.UpdateReq, 0, burst)
	for n := s.take(burst); n > 0; n = s.take(burst) {
		reqs = reqs[:0]
		for range n {
			reqs = append(reqs, s.next(s.slot+len(reqs)))
		}
		outs := issue(reqs)
		gone := len(outs) < len(reqs)
		for i, out := range outs {
			s.account.Book(reqs[i].Opts, out.Err, out.Elapsed, out.Trace)
			gone = gone || (out.Err != nil && transient(out.Err))
		}
		if gone {
			return
		}
	}
}

// roundTrip issues one blocking UPD through the redirect-following
// pool: a Batch of one per attempt, timed from the first attempt so
// Elapsed spans every redirect and re-dial. (Mux.Batch of Pipeline
// entries is the pipelined issuer: a burst in one write, each entry's
// Elapsed stamped at its own RES arrival.)
func (s *stream) roundTrip(fc *failoverClient) func([]client.UpdateReq) []client.UpdateResult {
	return func(reqs []client.UpdateReq) (outs []client.UpdateResult) {
		for i := range reqs {
			var out client.UpdateResult
			t0 := time.Now()
			sent, err := fc.do(s.deadline, func(m *client.Mux) error {
				out = m.Batch(reqs[i : i+1])[0]
				return out.Err
			})
			if !sent {
				break
			}
			out.Err, out.Elapsed = err, time.Since(t0)
			outs = append(outs, out)
		}
		return outs
	}
}

// session issues one interactive TXN session (see the package comment).
// Sessions whose value functions cross zero mid-think are reaped
// server-side and count as shed.
func (s *stream) session(m *client.Mux) func([]client.UpdateReq) []client.UpdateResult {
	return func(reqs []client.UpdateReq) (outs []client.UpdateResult) {
		for _, r := range reqs {
			var out client.UpdateResult
			t0 := time.Now()
			out.Err = m.Do(r.Opts, func(t *client.Txn) error {
				for _, op := range r.Ops {
					if th := s.gen.NextThink(); th > 0 {
						time.Sleep(time.Duration(th * float64(time.Second)))
					}
					var err error
					if op.Write {
						_, err = t.Add(op.Key, op.Delta)
					} else {
						_, err = t.Get(op.Key)
					}
					if err != nil {
						return err
					}
				}
				_, err := t.Commit()
				out.Trace = t.Trace()
				return err
			})
			out.Elapsed = time.Since(t0)
			outs = append(outs, out)
		}
		return outs
	}
}
