// Package server fronts a sharded SCC engine (internal/shard) with a TCP
// line protocol and a value-cognizant admission queue. Requests carry the
// paper's Def. 2 value functions; when the engine is saturated, waiters
// are dispatched by Def. 7 expected value and shed past their
// zero-crossing, and cross-shard retries re-enter the same queue. The
// protocol is line-oriented (PING/GET/ADD/UPD/SUM/STATS), optionally
// wrapped in pipelined REQ/RES framing with concurrent dispatch per
// connection, and extended with REPL/ACK commit-log subscriptions for
// replication: a primary streams its node's commit order, one log of
// whole transactions (internal/repl), to replicas, which apply it
// through the engine's ApplyLocked path and serve lag-gated snapshot
// reads.
//
// The normative wire specification — verb grammar, error-reply rules,
// oversized-line handling, framing interleaving, and the replication
// stream — lives in docs/PROTOCOL.md; docs/ARCHITECTURE.md maps this
// package's place in the system.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/obs/flight"
	"repro/internal/repl"
	"repro/internal/server/opts"
	"repro/internal/shard"
)

// Config configures a Server.
type Config struct {
	// Shards is the partition count of the backing store (default 16).
	Shards int
	// Mode selects the per-shard concurrency control protocol.
	Mode engine.Mode
	// Admission configures the value-cognizant admission queue.
	Admission AdmissionConfig
	// GroupCommit coalesces per-shard commit latch acquisitions across
	// concurrent connections.
	GroupCommit engine.GroupCommit
	// ReplicaOf, when set, makes the server a read replica of the primary
	// at this address (docs/PROTOCOL.md, "Replication"): Open bootstraps
	// the store from the primary's SNAP snapshot — or, on a durable
	// replica, resumes from <Durable.Dir>/replica.resume — and keeps
	// streaming the primary's commit order into it; writes are rejected
	// and valued reads are lag-gated (replLagBudget).
	ReplicaOf string
	// Repl configures replication roles (docs/PROTOCOL.md, "Replication").
	Repl ReplOptions
	// Cluster makes the server a member of a failover cluster (cluster.go).
	Cluster ClusterConfig
	// Durable enables crash durability (internal/durable) when Dir is
	// set: the node WAL fed at the commit boundary, checkpoints, and
	// recovery of the data directory at startup — construction then goes
	// through Open, which can fail on unreadable or corrupt directories.
	Durable durable.Options

	// In-package tests override two production constants through these;
	// zero keeps the constant. lagBudget replaces replLagBudget; txnIdle
	// replaces txnMaxIdle, and a negative txnIdle disables the idle cap.
	lagBudget time.Duration
	txnIdle   time.Duration
}

const (
	// pipelineDepth caps a connection's unanswered REQ-framed requests,
	// and so its followers; past it the reader stalls — TCP
	// backpressure, not an error.
	pipelineDepth = 128
	// flightSample: one in this many untraced requests records its
	// lifecycle stamps into the flight recorder (begin, request.go).
	// Dense enough that the ring always holds recent full lifecycles,
	// sparse enough that the median request pays nothing for it.
	flightSample = 8
	// replLagBudget is the estimated catch-up time a replica tolerates
	// before lag-based value shedding: past it, a read-only transaction
	// whose value function would cross zero before the replica catches up
	// is shed (repl_shed in STATS) — the paper's Def. 2 zero-crossing rule
	// priced on replication lag (repl.LagGate).
	replLagBudget = 50 * time.Millisecond
)

// ReplOptions tunes a server's replication roles. Primary and
// Config.ReplicaOf may both be set: a primary-and-replica server relays
// its applied stream downstream (chained replication).
type ReplOptions struct {
	// Primary keeps the node's commit log in memory and serves REPL/ACK
	// subscriptions from replicas.
	Primary bool
	// SyncAcks makes a primary semi-synchronous: each committed write
	// waits (bounded by SyncTimeout) for at least one replica to
	// acknowledge the log's head position before the OK is sent, so an
	// acknowledged commit survives the primary's death once any replica
	// runs. On a feed that has never had a subscriber the wait degrades
	// to asynchronous immediately (a lone primary must not stall); once
	// one has subscribed, a vanished subscriber waits out SyncTimeout
	// instead — a dying replica connection must not instantly open an
	// unreplicated-ack window. A timeout degrades — the commit is still
	// acknowledged, and repl_sync_degraded counts the lapse.
	SyncAcks bool
	// SyncTimeout bounds each SyncAcks wait (default 5s).
	SyncTimeout time.Duration
}

// Server serves a sharded store over TCP.
type Server struct {
	store  *shard.Store
	adm    *Admission
	epochs *engine.Epochs // the store's global commit-epoch counter
	// feedP/gateP hold the replication roles behind atomic pointers
	// because promotion swaps them at runtime: a clustered replica
	// starts with a gate and no feed, and promotion publishes a feed and
	// retires the gate while requests are in flight. Read through
	// Feed()/replGate(); never cache across a blocking wait.
	feedP       atomic.Pointer[repl.Feed]    // non-nil on replication primaries
	gateP       atomic.Pointer[repl.LagGate] // non-nil on read replicas
	cluster     *cluster.State               // non-nil on cluster members
	syncAcks    bool
	procs       int32        // GOMAXPROCS at Open: with fewer connections, readers hand off before running
	served      atomic.Int32 // len(conns), read without mu
	syncTimeout time.Duration
	durable     *durable.Manager // non-nil with a data directory
	met         *serverMetrics   // telemetry registry (metrics.go), always non-nil
	flight      *flight.Recorder // always-on black-box event journal, always non-nil
	sessions    *sessionTable    // interactive transaction sessions (session.go)
	runs        engine.Pool      // the goroutines live sessions run their engine transactions on
	lines       *conn            // dispatchLine's connection, sequence 0
	dataDir     string           // Durable.Dir: the replica resume file and flight dumps
	lease       time.Duration    // Cluster.Lease, for the monitor Serve starts

	// repMu guards rep, the replica's live replication stream, which the
	// failover monitor swaps: promotion consumes it, a follow re-points it.
	repMu sync.Mutex
	rep   *repl.Replica

	// mu guards connection lifecycle only; per-request counters use
	// their own synchronization so requests never serialize on it.
	mu      sync.Mutex
	lis     net.Listener
	conns   map[net.Conn]struct{}
	connSeq uint64        // the last accepted connection's sequence (conn.ids)
	node    *cluster.Node // the failover monitor once Serve started it
	closed  bool

	wg sync.WaitGroup
}

// New returns a server over a fresh sharded store. It cannot fail for
// an in-memory primary; a Config with durability or ReplicaOf can, so
// it must go through Open — New panics on it to make the misuse loud.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic("server.New with durability or a primary to replicate must be server.Open: " + err.Error())
	}
	return s
}

// Open builds a server over a fresh sharded store, recovering it from
// cfg.Durable.Dir first when durability is enabled. The wiring order is
// what makes recovery clean: the store opens with no commit logs, the
// durability manager replays checkpoint + WAL suffix through ApplyLocked
// (nothing re-logs), and only then is each shard's commit-log sink
// installed — with the replication feed's log base reset to the
// recovered position, so a replica subscribed above the base streams
// seamlessly across a primary restart. A cluster member's state exists
// before the server does, so a primary boots with its commit fence
// armed; a replica's stream starts last, into the finished server.
func Open(cfg Config) (*Server, error) {
	if cfg.Cluster.Self == "" && len(cfg.Cluster.Peers) > 0 {
		return nil, errors.New("server: Cluster.Peers needs Cluster.Self (this node's advertised address)")
	}
	if cfg.Shards <= 0 {
		// Resolve the shard count here with shard.Open's own default, so
		// the replication feed is sized to the store it logs.
		cfg.Shards = shard.DefaultShards
	}
	met := newServerMetrics()
	// The flight recorder exists before any subsystem so every layer —
	// durability recovery included — records into it from its first
	// event. It is always on: each ring is a fixed-size pointer-free
	// buffer whose writers pay one atomic add and one uncontended mutex
	// hold, cheap enough to leave running under benchmark load.
	fl := flight.New(cfg.Shards, 0)
	// One global commit-epoch counter spans the store, the replication
	// feed, and durable recovery: every commit-log record everywhere is
	// stamped from it, so a cross-shard commit's records carry one epoch
	// on every shard they touch — the identity replicas and recovery use
	// to treat them as an atomic set.
	epochs := &engine.Epochs{}
	store := shard.Open(shard.Config{
		Shards: cfg.Shards,
		Epochs: epochs,
		Engine: engine.Config{Mode: cfg.Mode, GroupCommit: cfg.GroupCommit},
	})
	var feed *repl.Feed
	if cfg.Repl.Primary {
		feed = repl.NewFeed(cfg.Shards, epochs)
	}
	var man *durable.Manager
	if cfg.Durable.Dir != "" {
		cfg.Durable.Flight = fl
		var err error
		man, err = durable.Open(cfg.Durable, store, feed)
		if err != nil {
			store.Close()
			return nil, err
		}
	} else if feed != nil {
		for i := 0; i < cfg.Shards; i++ {
			store.Shard(i).SetCommitLog(feed.Sink(i))
		}
	}
	if cfg.Repl.SyncTimeout <= 0 {
		cfg.Repl.SyncTimeout = 5 * time.Second
	}
	if cfg.lagBudget <= 0 {
		cfg.lagBudget = replLagBudget
	}
	srv := &Server{
		store:       store,
		adm:         NewAdmission(cfg.Admission),
		epochs:      epochs,
		syncAcks:    cfg.Repl.SyncAcks,
		syncTimeout: cfg.Repl.SyncTimeout,
		durable:     man,
		met:         met,
		flight:      fl,
		conns:       make(map[net.Conn]struct{}),
		dataDir:     cfg.Durable.Dir,
		lease:       cfg.Cluster.Lease,
		procs:       int32(runtime.GOMAXPROCS(0)),
	}
	srv.lines = &conn{s: srv}
	srv.feedP.Store(feed)
	if cfg.ReplicaOf != "" {
		srv.gateP.Store(repl.NewLagGate(cfg.lagBudget, 0))
	}
	if cfg.Cluster.Self != "" {
		srv.cluster = cluster.NewState(cfg.Cluster.Self, cfg.Cluster.Peers, cfg.ReplicaOf)
		if srv.cluster.IsPrimary() {
			srv.installFence(srv.cluster.Epoch())
		}
	}
	srv.sessions = newSessionTable(srv, cfg.txnIdle)
	srv.registerStats()
	if cfg.ReplicaOf != "" {
		if err := srv.startReplica(cfg.ReplicaOf); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// Feed exposes the primary's replication feed: non-nil when the server
// was opened with Repl.Primary or has since been promoted.
func (s *Server) Feed() *repl.Feed { return s.feedP.Load() }

// replGate returns the replica lag gate, nil once the node is promoted
// (or was never a replica).
func (s *Server) replGate() *repl.LagGate { return s.gateP.Load() }

// Durable exposes the durability manager (nil without a data directory).
func (s *Server) Durable() *durable.Manager { return s.durable }

// Store exposes the backing sharded store (stats inspection, seeding).
func (s *Server) Store() *shard.Store { return s.store }

// Admission exposes the admission queue.
func (s *Server) Admission() *Admission { return s.adm }

// Flight exposes the always-on flight recorder (operator binaries dump
// it on fault signals and serve /debug/events).
func (s *Server) Flight() *flight.Recorder { return s.flight }

// Serve accepts connections on lis until Close. Each connection is served
// by its own goroutine, requests on it strictly in order. A cluster
// member's failover monitor starts first, between listen and serve:
// early connections queue in the accept backlog while its synchronous
// boot probe runs, so a restarted old primary discovers a higher fencing
// epoch — and fences itself — before it serves a single write.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("server: closed")
	}
	s.lis = lis
	var node *cluster.Node
	if s.cluster != nil && s.node == nil {
		node = s.newNode()
		s.node = node
	}
	s.mu.Unlock()
	if node != nil {
		node.Start()
	}
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.served.Store(int32(len(s.conns)))
		s.connSeq++
		c := &conn{s: s, nc: nc, out: make(chan string, 4*pipelineDepth), stop: make(chan struct{}), promote: make(chan struct{}), inflight: make(chan struct{}, pipelineDepth)}
		c.ids.Store(s.connSeq << connIDBits)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// Close stops accepting, closes every connection, stops the failover
// monitor (so no promotion, follow or demotion races teardown), then the
// replication stream and the feed's semi-sync waits, and closes the
// store.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.lis != nil {
		s.lis.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	node := s.node
	s.mu.Unlock()
	if node != nil {
		node.Close()
	}
	if r := s.Replica(); r != nil {
		r.Close()
	}
	if f := s.Feed(); f != nil {
		// The subscribers' connections are closed, so no ack is coming:
		// wake the handlers parked in a semi-sync wait now rather than
		// after SyncTimeout.
		f.Close()
	}
	// Teardown order matters for liveness: connection handlers can be
	// parked inside a session operation (waiting on a shadow gated by
	// another session) or queued in admission behind slots that open
	// sessions hold — waiting for the handlers first would deadlock.
	// Closing admission sheds every queued waiter; aborting the sessions
	// (their timers stopped) unwinds their live engine transactions and
	// wakes parked operation handlers; only then are the handlers
	// awaited, the session runs' pool and the store closed under a
	// quiesced engine — each Close returns once its pooled goroutines
	// have exited.
	s.adm.Close()
	s.sessions.close()
	s.wg.Wait()
	s.runs.Close()
	s.store.Close()
	if s.durable != nil {
		// After the store drains: the final WAL sync in Close covers
		// every acknowledged commit.
		s.durable.Close()
	}
}

// conn is one client connection: the state its request goroutines, its
// writer goroutine and its replication feeders share, and the block its
// valued requests draw flight-recorder ids from.
type conn struct {
	s  *Server
	nc net.Conn
	// out carries every response to the writer goroutine (write).
	out  chan string
	dead atomic.Bool   // set by the writer once the socket failed
	stop chan struct{} // closed when the reader ends: feeders stop
	// promote hands the reader role to an idle follower (handOff); the
	// last reader closes it, which dismisses the followers.
	promote chan struct{}
	// inflight holds a token per unanswered REQ-framed request.
	inflight chan struct{}
	// workers counts the pooled followers and the replication feeders,
	// awaited before out closes.
	workers sync.WaitGroup
	// The reader role's state, touched only by the goroutine holding the
	// role: the line scanner, the followers started so far, the lazily
	// created ack-tracking subscription, and whether the last line
	// overran the scanner.
	scan    *bufio.Scanner
	pooled  int
	sub     *repl.Sub
	tooLong bool
	// ids is the last request id handed out (begin): the connection
	// sequence, assigned at accept, above connIDBits, and a count of the
	// connection's valued requests below, so drawing an id writes no
	// word another connection writes.
	ids atomic.Uint64
}

// connIDBits is the width of a request id's per-connection count: 2^40
// requests per connection and 2^24 connections per process before
// either half wraps.
const connIDBits = 40

func (s *Server) serveConn(c *conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c.nc)
		s.served.Store(int32(len(s.conns)))
		s.mu.Unlock()
		c.nc.Close()
		if c.sub != nil {
			c.sub.Close()
		}
	}()
	wdone := make(chan struct{})
	go c.write(wdone)

	c.scan = bufio.NewScanner(c.nc)
	c.scan.Buffer(make([]byte, 0, 64*1024), 1<<20)
	c.follow()
	c.workers.Wait()
	if c.tooLong {
		// The connection cannot be resynced mid-line, but the client
		// deserves a diagnostic before the close instead of a bare EOF.
		c.out <- "ERR request line exceeds 1MB"
	}
	close(c.out)
	<-wdone
}

// follower is one goroutine of a connection's request pool, run
// leader/followers style (Schmidt et al., PLoP 2000). The follower
// holding the reader role runs each line itself: bare ones in order with
// no wait hook, REQ-framed ones with handOff as their hook. At a
// request's first wait the reader promotes another follower to read the
// connection, finishes the request as a worker and rejoins the pool: a
// request that never waits never changes goroutine, and no line waits
// behind one that does. With fewer connections than processors the
// reader hands off before each REQ-framed request, so one connection's
// pipelined requests can use the idle processors.
//
// Followers are pooled, at most pipelineDepth, because dispatch call
// chains run deep: a goroutine per hand-off paid stack growth on every
// request (runtime.newstack dominated hot profiles). A hand-off runs
// inside a wait and never waits for a follower: the reader takes an
// inflight token before each REQ-framed request, so a full pool has one
// idle or on its way back.
type follower struct {
	c       *conn
	reading bool     // f holds the reader role
	hook    func()   // f.handOff, bound once
	fields  []string // the line f read last, split; reused for the next
}

// follow runs one follower until the connection ends: it reads while it
// holds the reader role, as it does from the start, and waits to be
// promoted while it does not.
func (c *conn) follow() {
	f := &follower{c: c, reading: true}
	f.hook = f.handOff
	for f.read() {
		if _, ok := <-c.promote; !ok {
			return
		}
		f.reading = true
	}
}

// read serves lines while f holds the reader role. It reports false once
// the connection has no more: then it has stopped the feeders and
// dismissed the followers.
func (f *follower) read() bool {
	c := f.c
	for f.reading {
		if !c.scan.Scan() || c.dead.Load() {
			c.tooLong = errors.Is(c.scan.Err(), bufio.ErrTooLong)
			close(c.stop)
			close(c.promote)
			return false
		}
		f.fields = splitFields(f.fields, c.scan.Text())
		fields := f.fields
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "REQ":
			switch {
			case len(fields) < 2:
				c.out <- "ERR usage: REQ <id> <verb> [args...]"
			case len(fields) == 2:
				c.out <- "RES " + fields[1] + " ERR missing verb"
			default:
				c.inflight <- struct{}{}
				if c.s.served.Load() < c.s.procs {
					f.handOff()
				}
				reply := c.dispatch(fields[2:], f.hook)
				if f.reading && strings.EqualFold(fields[2], "UPD") {
					c.s.met.requestsInline.Inc()
				}
				c.out <- "RES " + fields[1] + " " + reply
				<-c.inflight
			}
		case "REPL", "ACK":
			// Replication verbs are connection-stateful (they turn the
			// connection into a push stream), so they are handled here,
			// not in dispatch.
			c.handleRepl(strings.ToUpper(fields[0]), fields[1:])
		case "SNAP":
			// SNAP's reply spans several lines (header + SNAPKV batches),
			// so like REPL it needs bare framing; a joiner issues its
			// SNAPs before subscribing, keeping the stream unambiguous.
			c.handleSnap(fields[1:])
		default:
			c.out <- c.dispatch(fields, nil)
		}
	}
	return true
}

// handOff is a REQ-framed request's wait hook. While f holds the reader
// role it passes the role to an idle follower, starting one while the
// pool is below pipelineDepth, and f goes on as a worker; later calls do
// nothing.
func (f *follower) handOff() {
	if !f.reading {
		return
	}
	f.reading = false
	c := f.c
	select {
	case c.promote <- struct{}{}:
		return
	default:
	}
	if c.pooled == pipelineDepth {
		c.promote <- struct{}{}
		return
	}
	c.pooled++
	c.workers.Add(1)
	go func() {
		defer c.workers.Done()
		c.follow()
	}()
}

// write is the connection's writer goroutine; it closes done once out
// is closed and drained. All responses funnel through it (it is what
// keeps workers off a dead or slow socket, and what REPL and SNAP push
// through). Its flush rule is the Mux's: on finding the channel empty
// it owes a flush, yields the processor once, drains whatever was
// produced meanwhile, then flushes. "Drain what is queued, then flush"
// alone almost never batches: a channel send parks the woken writer in
// the sender's runnext slot, so it runs — and finds the channel empty
// again — before the sibling workers that were already runnable. The
// yield puts the writer behind them; every verdict they produce shares
// the one write(2), and a lone response pays an empty yield and flushes
// at once. On a write error the writer keeps draining (discarding) so
// workers never block on a dead connection.
func (c *conn) write(done chan<- struct{}) {
	defer close(done)
	met := c.s.met
	w := bufio.NewWriter(c.nc)
	dead := false
	// A connection that cannot carry responses must not keep executing
	// requests: the dead flag stops the reader loop even for lines
	// already sitting in its scanner buffer, and closing the connection
	// unblocks a reader parked in a Read syscall.
	die := func() {
		dead = true
		c.dead.Store(true)
		c.nc.Close()
	}
	poll := func() (string, bool) {
		select {
		case line, ok := <-c.out:
			return line, ok
		default:
			return "", false
		}
	}
	for line := range c.out {
		lines, yielded := int64(0), false
		for more := true; more; {
			if !dead {
				lines++
				if _, err := w.WriteString(line); err != nil {
					die()
				} else if err := w.WriteByte('\n'); err != nil {
					die()
				}
			}
			if line, more = poll(); !more && !yielded {
				yielded = true
				runtime.Gosched()
				line, more = poll()
			}
		}
		if !dead {
			met.wireResponses.Add(lines)
			if w.Flush() != nil {
				die()
			} else {
				met.wireFlushes.Inc()
			}
		}
	}
}

// handleRepl serves the connection-stateful replication verbs. REPL
// subscribes the connection to the node's commit log: the reply carries
// the log's head position, then a feeder goroutine pushes every part from
// the requested position as LOG lines through the connection's response
// writer (interleaving freely with other responses — LOG lines are push
// traffic, not replies). ACK records the replica's applied position for
// the primary's lag accounting, trim floor and semi-sync wait. Feeders
// stop when the connection's reader loop ends (stop) and are awaited like
// REQ workers.
func (c *conn) handleRepl(verb string, args []string) {
	feed, refused := c.s.replFeed()
	if refused != "" {
		c.out <- refused
		return
	}
	if len(args) != 1 {
		c.out <- "ERR usage: " + verb + " <position>"
		return
	}
	pos, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil || (verb == "REPL" && pos == 0) {
		c.out <- "ERR bad position " + args[0]
		return
	}
	if verb == "ACK" {
		if c.sub == nil {
			c.out <- "ERR ACK before REPL"
			return
		}
		c.sub.Ack(pos)
		c.out <- "OK"
		return
	}
	if c.sub == nil {
		// A fresh subscription pins the trim floor at 0 before the base
		// check, so a base observed below the requested start cannot
		// advance past it afterwards.
		c.sub = feed.Subscribe()
	}
	log := feed.Log()
	if base := log.Base(); pos <= base {
		c.out <- fmt.Sprintf("ERR log trimmed through %d; SNAP to bootstrap, then REPL above it", base)
		return
	}
	c.sub.Ack(pos - 1)
	c.out <- "OK " + strconv.FormatUint(log.Head(), 10)
	c.workers.Add(1)
	go func() {
		defer c.workers.Done()
		for {
			recs, wake, err := log.From(pos, 256)
			if err != nil {
				// Trimmed past a streaming subscriber — possible only if it
				// never acked while the retention window slid by. The
				// stream cannot resync; tell it to re-bootstrap.
				c.out <- fmt.Sprintf("ERR log trimmed through %d; SNAP to bootstrap, then REPL above it", log.Base())
				return
			}
			if len(recs) == 0 {
				select {
				case <-wake:
					continue
				case <-c.stop:
					return
				}
			}
			for _, rec := range recs {
				select {
				case c.out <- repl.EncodeLog(rec.Shard, rec):
				case <-c.stop:
					return
				}
				pos = rec.Index + 1
			}
		}
	}()
}

// snapBatch is how many key:value pairs one SNAPKV line carries — small
// enough that a line stays far under the 1MB request bound for the
// integer values this protocol stores, large enough to amortize framing.
const snapBatch = 256

// handleSnap serves SNAP: an atomic snapshot of the whole store paired
// with the commit-log position it corresponds to. Every shard is latched,
// in ascending order, for the copy — appends happen under the same
// latches, so the cut falls at a record boundary and the position is
// exact — then released before any line is written. Reply:
// "OK <position> <epoch> <npairs>" followed by ceil(npairs/256) SNAPKV
// lines. A joining replica installs the pairs, then subscribes with
// REPL <position+1> — never touching parts at or below the snapshot
// position, trimmed or not.
//
// On a durable primary the feed can trail the installed state by the
// current commit batch (records ship only after their WAL sync), so the
// cut's position comes from the durability manager, which numbers records
// as they are written, and the reply waits for the sync that ships them.
func (c *conn) handleSnap(args []string) {
	s := c.s
	feed, refused := s.replFeed()
	if refused != "" {
		c.out <- refused
		return
	}
	if len(args) != 0 {
		c.out <- "ERR usage: SNAP"
		return
	}
	if c.sub == nil {
		c.sub = feed.Subscribe()
	}
	n := s.store.NumShards()
	var pairs []string
	for i := 0; i < n; i++ {
		s.store.Shard(i).LockCommit()
	}
	pos, epoch := feed.Log().Head(), feed.Log().LastEpoch()
	if s.durable != nil {
		pos, epoch = s.durable.Position()
	}
	// Pin the trim floor at the snapshot position before the latches
	// drop: the joiner is about to REPL from pos+1, and nothing may trim
	// past pos in the SNAP-to-REPL window. The floor is released when the
	// connection (and with it the Sub) goes away.
	c.sub.Ack(pos)
	for i := 0; i < n; i++ {
		s.store.Shard(i).RangeLocked(func(k string, v []byte) bool {
			pairs = append(pairs, k+":"+string(v))
			return true
		})
	}
	for i := 0; i < n; i++ {
		s.store.Shard(i).UnlockCommit()
	}
	// Nothing leaves the server before it is durable: the captured state
	// can include commits whose WAL sync is still pending, so force the
	// sync now — after it, every record the snapshot reflects is on
	// stable storage and shipped. A failed sync ships nothing: a joiner
	// must not bootstrap from commits this server cannot recover.
	if err := s.store.Shard(0).SyncCommitLog(); err != nil {
		c.out <- "ERR " + err.Error()
		return
	}
	c.out <- fmt.Sprintf("OK %d %d %d", pos, epoch, len(pairs))
	for len(pairs) > 0 {
		k := min(snapBatch, len(pairs))
		c.out <- "SNAPKV " + strings.Join(pairs[:k], " ")
		pairs = pairs[k:]
	}
}

// op is one parsed transactional operation, shared by the one-shot
// verbs (ADD/UPD) and interactive TXN sessions: a read dependency
// (write false), a read-modify-write adding delta (write true), or a
// blind overwrite to delta (write and set — `TXN W ... =<val>`, which
// skips the read entirely: an empty read set always validates).
type op struct {
	key   string
	delta int64
	write bool
	set   bool
}

// splitFields splits s around runs of white space exactly as
// strings.Fields does, into dst's backing array: a reader reuses one
// slice for every line. Lines are ASCII in practice, so it scans bytes
// and leaves any line with a byte at or above 0x80 to strings.Fields,
// whose Unicode spaces (U+0085, U+00A0, ...) split tokens too.
func splitFields(dst []string, s string) []string {
	dst, start := dst[:0], -1
	for i := 0; i <= len(s); i++ {
		switch {
		case i < len(s) && s[i] >= utf8.RuneSelf:
			return append(dst[:0], strings.Fields(s)...)
		case i == len(s) || s[i] == ' ' || s[i]-'\t' <= '\r'-'\t':
			if start >= 0 {
				dst, start = append(dst, s[start:i]), -1
			}
		case start < 0:
			start = i
		}
	}
	return dst
}

// dispatchLine parses and serves one raw request line on the server's
// own connection (lines). It is the single-string entry point the
// fuzzer drives; follower.read splits fields itself.
func (s *Server) dispatchLine(line string) string {
	fields := splitFields(nil, line)
	if len(fields) == 0 {
		return "ERR empty request"
	}
	return s.lines.dispatch(fields, nil)
}

// dispatch serves one request line; wait is its wait hook (handOff), nil
// where the request may block its goroutine.
func (c *conn) dispatch(fields []string, wait func()) string {
	verb := strings.ToUpper(fields[0])
	h := c.s.met.verbSeconds(verb)
	var start time.Time
	if h != nil {
		start = time.Now()
	}
	resp := c.dispatchVerb(verb, fields[1:], wait)
	c.s.met.requests.Inc()
	if h != nil {
		h.Observe(int64(time.Since(start)))
	}
	return resp
}

func (c *conn) dispatchVerb(verb string, args []string, wait func()) string {
	s := c.s
	switch verb {
	case "PING":
		return "OK pong"
	case "GET":
		if len(args) != 1 {
			return "ERR usage: GET <key>"
		}
		if !validKey(args[0]) {
			return "ERR bad key " + args[0]
		}
		v, ok := s.store.Get(args[0])
		if !ok {
			return "NIL"
		}
		return "OK " + string(v)
	case "ADD":
		if len(args) != 2 {
			return "ERR usage: ADD <key> <delta>"
		}
		if !validKey(args[0]) {
			return "ERR bad key " + args[0]
		}
		n, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return "ERR bad number"
		}
		return c.runUpdate(opts.T{}, []op{{key: args[0], delta: n, write: true}}, wait)
	case "UPD":
		return c.handleUPD(args, wait)
	case "TXN":
		return c.handleTXN(args, wait)
	case "SUM":
		if len(args) == 0 {
			return "ERR usage: SUM <key>..."
		}
		for _, k := range args {
			if !validKey(k) {
				return "ERR bad key " + k
			}
		}
		var total int64
		err := s.store.View(args, func(tx shard.Tx) error {
			for _, k := range args {
				v, err := tx.Get(k)
				if err != nil {
					return err
				}
				total += parseNum(v)
			}
			return nil
		})
		if err != nil {
			return "ERR " + err.Error()
		}
		return "OK " + strconv.FormatInt(total, 10)
	case "STATS":
		return s.statsLine()
	case "HEAD":
		// The feed's epoch watermark and head position, cheap enough to
		// poll: replicas use it out-of-band to keep their lag estimate
		// honest even while the replication stream itself is
		// backpressured, and cluster lease probes read the watermark for
		// caught-up-ness without a REPL subscription.
		feed, refused := s.replFeed()
		if refused != "" {
			return refused
		}
		return fmt.Sprintf("OK %d %d", feed.Log().LastEpoch(), feed.Log().Head())
	case "TOPO":
		// Topology discovery: role, fencing epoch, best-known primary,
		// and catch-up position as one k=v line (cluster.TopoReply).
		return s.handleTopo()
	case "REPL", "ACK", "SNAP":
		// Bare REPL/ACK/SNAP are intercepted by follower.read; reaching
		// dispatch means REQ framing (or the fuzzer), where a push stream
		// or multi-line reply cannot be correlated.
		return "ERR " + verb + " requires bare framing on a dedicated connection"
	default:
		return "ERR unknown verb " + verb
	}
}

// handleUPD parses a UPD's options and ops and runs it.
func (c *conn) handleUPD(args []string, wait func()) string {
	var o opts.T
	ops := make([]op, 0, len(args))
	for _, a := range args {
		if isOpt, err := o.ParseToken(a); isOpt {
			if err != nil {
				return "ERR " + err.Error()
			}
			continue
		}
		switch {
		case strings.HasPrefix(a, "r:"):
			key := a[2:]
			if key == "" {
				return "ERR empty key"
			}
			if !validKey(key) {
				return "ERR bad key " + key
			}
			ops = append(ops, op{key: key})
		case strings.HasPrefix(a, "w:"):
			rest := a[2:]
			i := strings.LastIndexByte(rest, ':')
			if i <= 0 {
				return "ERR bad op " + a
			}
			if !validKey(rest[:i]) {
				return "ERR bad key " + rest[:i]
			}
			n, err := strconv.ParseInt(rest[i+1:], 10, 64)
			if err != nil {
				return "ERR bad delta in " + a
			}
			ops = append(ops, op{key: rest[:i], delta: n, write: true})
		default:
			return "ERR bad token " + a
		}
	}
	if len(ops) == 0 {
		return "ERR no ops"
	}
	return c.runUpdate(o, ops, wait)
}

// handleTXN routes the interactive-session verbs (session.go). Every
// TXN request is one line with one reply, so sessions work identically
// under bare and REQ framing — and because sessions live in a
// server-global table keyed by id, a session may even be driven from
// several connections (though one at a time is the sane shape).
func (c *conn) handleTXN(args []string, wait func()) string {
	s := c.s
	if len(args) == 0 {
		return "ERR usage: TXN BEGIN|R|W|COMMIT|ABORT ..."
	}
	sub := strings.ToUpper(args[0])
	rest := args[1:]
	if sub == "BEGIN" {
		var o opts.T
		for _, tok := range rest {
			isOpt, err := o.ParseToken(tok)
			if err != nil {
				return "ERR " + err.Error()
			}
			if !isOpt {
				return "ERR bad token " + tok
			}
		}
		return c.txnBegin(o, wait)
	}
	if len(rest) == 0 {
		return "ERR usage: TXN " + sub + " <id> ..."
	}
	// The wire id is "<id>-<token>": the numeric table key plus the
	// capability token BEGIN minted. The split tolerates a missing token
	// so the reaped-tombstone check still answers SHED by numeric prefix,
	// but a live session only resolves when the token matches — and a
	// mismatch is indistinguishable from a session that never existed.
	numStr, token, _ := strings.Cut(rest[0], "-")
	id, err := strconv.ParseUint(numStr, 10, 64)
	if err != nil {
		return "ERR bad txn id " + rest[0]
	}
	ss, reaped := s.sessions.get(id)
	if reaped {
		// The session's timer shed it at its value zero crossing (or
		// idle cap); every later verb on it answers SHED, matching the
		// admission queue's verdict for worthless work.
		return "SHED"
	}
	if ss == nil || ss.token != token {
		return "ERR no such txn " + rest[0]
	}
	switch sub {
	case "R":
		if len(rest) != 2 {
			return "ERR usage: TXN R <id> <key>"
		}
		if !validKey(rest[1]) {
			return "ERR bad key " + rest[1]
		}
		return s.txnOp(ss, op{key: rest[1]}, wait)
	case "W":
		if len(rest) != 3 {
			return "ERR usage: TXN W <id> <key> <delta|=val>"
		}
		if !validKey(rest[1]) {
			return "ERR bad key " + rest[1]
		}
		o := op{key: rest[1], write: true}
		tok := rest[2]
		if strings.HasPrefix(tok, "=") {
			o.set = true
			tok = tok[1:]
		}
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return "ERR bad delta " + rest[2]
		}
		o.delta = n
		return s.txnOp(ss, o, wait)
	case "COMMIT":
		if len(rest) != 1 {
			return "ERR usage: TXN COMMIT <id>"
		}
		return s.txnCommit(ss, wait)
	case "ABORT":
		if len(rest) != 1 {
			return "ERR usage: TXN ABORT <id>"
		}
		return s.txnAbort(ss, wait)
	default:
		return "ERR unknown TXN subverb " + sub
	}
}

// runUpdate admits, executes, and answers one one-shot transactional
// update (ADD/UPD): the request lifecycle (request.go) around one
// call of the admitted executor interactive session commits share.
func (c *conn) runUpdate(o opts.T, ops []op, wait func()) string {
	write := slices.ContainsFunc(ops, func(o op) bool { return o.write })
	r, refused := c.begin(o, len(ops), write, false, wait)
	if refused != "" {
		return refused
	}
	return r.finish(c.s.execAdmitted(&r, ops, r.admitAt, wait))
}

// execAdmitted executes ops as one serializable transaction under r's
// already-held admission slot: the single engine-facing commit path for
// every path that commits client work — one-shot verbs and deferred
// TXN COMMIT alike — timed from start into the service stage. Cross-shard
// validation failures surrender the slot and re-enter the admission
// queue by expected value (Readmit), where a transaction whose value
// function crossed zero is shed (cross_shed). r's trace, when non-nil,
// receives the engine-side lifecycle events (fork, park, promotion,
// install) of the execution, and wait, when non-nil, is called before
// each of its waits: readmission, the engine's and the semi-sync ack's.
func (s *Server) execAdmitted(r *request, ops []op, start time.Time, wait func()) ([]int64, error) {
	keys := make([]string, len(ops))
	for i, o := range ops {
		keys[i] = o.key
	}
	// Queue time spent in readmissions (and replication latency) is not
	// service time: feeding it into the per-op estimate would make
	// admission increasingly pessimistic exactly when the server is loaded.
	var retry struct {
		queued time.Duration
		shed   bool
	}
	f := r.f
	gate := func(int) error {
		t0 := time.Now()
		if err := s.adm.Readmit(f, len(ops), wait); err != nil {
			retry.shed = true
			return err
		}
		retry.queued += time.Since(t0)
		return nil
	}
	// The transaction value the engine's commit deferment sees is the
	// request's current value. The closure may run several times
	// concurrently (engine shadows), so it must not mutate captured state:
	// each execution builds a fresh result slice and stashes it; the
	// committed execution's stash wins.
	res, err := s.store.UpdateTracedResult(f.At(s.adm.now()), keys, gate, r.tr, wait, func(tx shard.Tx) error {
		results := make([]int64, 0, len(ops))
		for _, o := range ops {
			n, err := applyOp(tx, o)
			if err != nil {
				return err
			}
			if o.write {
				results = append(results, n)
			}
		}
		tx.Stash(results)
		return nil
	})
	if err == nil {
		retry.queued += s.awaitReplicaAcks(ops, wait)
	}
	elapsed := time.Since(start)
	r.shed, r.service, r.numOps = retry.shed, elapsed-retry.queued, len(ops)
	results, _ := res.([]int64)
	return results, err
}

// awaitReplicaAcks is the semi-sync wait both commit paths (one-shot and
// deferred commits in execAdmitted, live-session commits in txnCommit)
// run between a successful commit and its OK: when ops wrote, one
// replica must ack the log's head position — which is at or past this
// commit's parts, since its commit boundary has published them — before
// the OK leaves. It returns the time spent: replication latency, not
// engine service, which callers keep out of the admission queue's per-op
// estimate. wait, when non-nil, is called before the wait.
func (s *Server) awaitReplicaAcks(ops []op, wait func()) time.Duration {
	feed := s.Feed()
	if !s.syncAcks || feed == nil || !slices.ContainsFunc(ops, func(o op) bool { return o.write }) {
		return 0
	}
	if wait != nil {
		wait()
	}
	t0 := time.Now()
	if err := feed.WaitAcked(feed.Log().Head(), s.syncTimeout); err != nil {
		// Degrade to async rather than fail a commit that is locally
		// durable: the lapse is counted, the OK stands.
		s.met.syncDegraded.Inc()
	}
	return time.Since(t0)
}

// applyOp executes one operation against a transactional view and
// returns the value it produced: the observed value for reads, the new
// value for writes. Blind writes (set) skip the read — an empty read
// set always validates.
func applyOp(tx shard.Tx, o op) (int64, error) {
	if !o.write {
		v, err := tx.Get(o.key)
		if err != nil {
			return 0, err
		}
		return parseNum(v), nil
	}
	n := o.delta
	if !o.set {
		cur, err := tx.Get(o.key)
		if err != nil {
			return 0, err
		}
		n += parseNum(cur)
	}
	if err := tx.Set(o.key, []byte(strconv.FormatInt(n, 10))); err != nil {
		return 0, err
	}
	return n, nil
}

// okResults renders a committed transaction's reply: OK plus the new
// value of each write op, in op order.
func okResults(results []int64) string {
	var buf [96]byte
	b := append(buf[:0], "OK"...)
	for _, n := range results {
		b = strconv.AppendInt(append(b, ' '), n, 10)
	}
	return string(b)
}

// validKey enforces the protocol's key lexical rule: non-empty and free
// of ':' (tokenization already excludes spaces and newlines). A ':' in a
// key would make w:<key>:<delta> ops and the replication LOG pair
// encoding ambiguous, silently diverging replicas — so it is rejected at
// the door, on every verb.
func validKey(k string) bool {
	return k != "" && !strings.ContainsRune(k, ':')
}

// parseNum decodes an ASCII-decimal value; missing or malformed values
// read as 0 (fresh keys start at zero).
func parseNum(v []byte) int64 {
	if len(v) == 0 {
		return 0
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0
	}
	return n
}
