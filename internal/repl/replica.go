// The replica side of log shipping: dial the primary, subscribe every
// shard with REPL, apply the pushed LOG records through the store's
// ApplyLocked path in index order, and report progress with ACK. Records
// are applied in batches — consecutive records already buffered on the
// connection are grouped per shard and installed under one commit-latch
// hold — so a catching-up replica pays one latch acquisition per batch,
// the same coalescing shape as the primary's group commit.
//
// Cross-shard commits are gated by an apply barrier: a record stamped
// with a multi-shard epoch is held in its shard's pending queue until
// every participant shard's part of the same epoch is next in line (or
// already applied, per the resumed epoch watermark), then all parts are
// installed under one hold of all the participants' latches via
// ApplyReplicatedCross. A reader of the replica therefore never observes
// a cross-shard commit half-applied — it becomes visible on the replica
// all-shards-at-once, exactly as it committed on the primary.

package repl

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/shard"
)

// ReplicaConfig configures a replication client.
type ReplicaConfig struct {
	// Primary is the primary server's address.
	Primary string
	// Store is the local store the stream applies into. It must have the
	// same shard count as the primary (verified at subscribe time).
	Store *shard.Store
	// Gate, when non-nil, is kept current with the stream's head and
	// apply progress so replica reads can be lag-gated.
	Gate *LagGate
	// ResumePath, when non-empty, persists the PRIMARY's per-shard
	// applied log indices to this file after each applied batch and
	// resumes the subscription from them at the next start, skipping the
	// SNAP bootstrap. The local store's own commit-log indices are
	// useless for this — a snapshot installs as one local record, so
	// local and primary numbering diverge — which is exactly the bug that
	// made a durable replica re-SNAP every shard on restart. The file is
	// written non-synced (tmp+rename): a stale offset only re-applies
	// records, which is safe because log records carry absolute values.
	// If the primary has trimmed its log past a resume point, StartReplica
	// falls back to a fresh snapshot bootstrap automatically.
	ResumePath string
	// Metrics, when non-nil, receives apply-path observations. All
	// fields must be populated.
	Metrics *ReplicaMetrics
	// Flight, when non-nil, receives one event per apply batch — the
	// replica half of the cross-node causal timeline: the event carries
	// the batch's newest commit epoch, so a merged flight dump joins it
	// to the primary's events (fsync, WAL error) for the same epoch.
	Flight *flight.Ring
}

// ReplicaMetrics are the replica's instruments, registered by the
// replica server in its obs registry.
type ReplicaMetrics struct {
	// ApplySeconds observes each batch install (latch hold + local
	// commit-log sync).
	ApplySeconds *obs.Histogram
	// ApplyBatch observes records installed per latch hold — the
	// replica-side coalescing win.
	ApplyBatch *obs.Histogram
	// Resumes counts subscriptions resumed from persisted primary
	// offsets; Snapshots counts shard snapshot bootstraps. A restarting
	// durable replica should grow Resumes, not Snapshots.
	Resumes   *obs.Counter
	Snapshots *obs.Counter
}

// Replica is a live replication client. Create one with StartReplica.
type Replica struct {
	conn       net.Conn
	store      *shard.Store
	gate       *LagGate
	w          *bufio.Writer
	resumePath string
	met        *ReplicaMetrics
	flight     *flight.Ring

	mu        sync.Mutex
	applied   []uint64
	lastEpoch []uint64 // per-shard commit-epoch watermark (wire epochs)
	err       error
	closed    bool
	done      chan struct{}

	// Apply-barrier state, touched only by the run goroutine (and the
	// handshake before it starts): per-shard queues of received-but-
	// unapplied records, and the next wire index each shard expects.
	pending [][]Record
	nextIdx []uint64
}

// maxApplyBatch caps the records applied under one latch hold.
const maxApplyBatch = 256

// headInterval is how often a gated replica polls the primary's log heads
// on a separate control connection. The stream alone cannot carry this
// honestly: a backpressured replica reads the stream late by exactly the
// lag being measured, while the poll connection stays idle and current.
const headInterval = 25 * time.Millisecond

// faultApplyDelay stalls the replica's apply loop before each install —
// a chaos hook (SCC_FAULT_APPLY_DELAY_MS) that widens the window in
// which a half-shipped cross-shard commit would be visible on a replica
// without the apply barrier.
var faultApplyDelay = func() time.Duration {
	if v := os.Getenv("SCC_FAULT_APPLY_DELAY_MS"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	return 0
}()

// StartReplica connects to the primary, verifies the shard counts match,
// subscribes every shard — from persisted primary offsets when
// ResumePath holds them, after a SNAP bootstrap otherwise — and waits
// for every subscription to be confirmed (so a non-primary target fails
// here, at startup), then starts the apply loop. A resumed subscription
// the primary refuses (log trimmed past the resume point) falls back to
// a fresh SNAP bootstrap before giving up. The stream runs until Close
// or a connection error; Done/Err report the end.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	r := &Replica{
		store:      cfg.Store,
		gate:       cfg.Gate,
		resumePath: cfg.ResumePath,
		met:        cfg.Metrics,
		flight:     cfg.Flight,
		applied:    make([]uint64, cfg.Store.NumShards()),
		lastEpoch:  make([]uint64, cfg.Store.NumShards()),
		pending:    make([][]Record, cfg.Store.NumShards()),
		nextIdx:    make([]uint64, cfg.Store.NumShards()),
		done:       make(chan struct{}),
	}
	resumed := false
	if cfg.ResumePath != "" {
		if offs, epochs := loadOffsets(cfg.ResumePath, cfg.Store.NumShards()); offs != nil {
			copy(r.applied, offs)
			copy(r.lastEpoch, epochs)
			resumed = true
		}
	}
	br, pre, err := r.connect(cfg.Primary)
	if err != nil && resumed && errors.As(err, new(*refusedError)) {
		// The primary trimmed its log past the resume point. The persisted
		// offsets are durable truth about what was applied, but the
		// primary can no longer serve the suffix — start over from a
		// snapshot on a fresh connection (SNAP must precede REPL).
		slog.Warn("repl: resume refused by primary; falling back to snapshot bootstrap",
			"err", err)
		for i := range r.applied {
			r.applied[i] = 0
			r.lastEpoch[i] = 0
		}
		br, pre, err = r.connect(cfg.Primary)
	}
	if err != nil {
		return nil, err
	}
	for i := range r.nextIdx {
		r.nextIdx[i] = r.applied[i] + 1
	}
	if resumed && r.met != nil {
		r.met.Resumes.Add(int64(cfg.Store.NumShards()))
	}
	go r.run(br, pre)
	if r.gate != nil {
		go r.pollHeads(cfg.Primary)
	}
	return r, nil
}

// connect dials the primary and runs the subscription handshake,
// leaving r.conn/r.w bound to the new connection. On error the
// connection is closed.
func (r *Replica) connect(primary string) (*bufio.Reader, map[int][]Record, error) {
	conn, err := net.Dial("tcp", primary)
	if err != nil {
		return nil, nil, err
	}
	r.conn = conn
	r.w = bufio.NewWriter(conn)
	br := bufio.NewReaderSize(conn, 256*1024)
	pre, err := r.handshake(br)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return br, pre, nil
}

// refusedError marks a subscription the primary rejected with an ERR
// reply — the "log trimmed" case a resumed replica must recover from by
// re-bootstrapping, as opposed to transport failures, which must not
// silently discard persisted progress.
type refusedError struct{ line string }

func (e *refusedError) Error() string { return "repl: primary refused subscription: " + e.line }

// loadOffsets reads persisted per-shard primary indices and commit-epoch
// watermarks ("v2 <idx>@<epoch> ..."); nil means no usable file (absent,
// malformed, v1, or written for another shard count — all treated as "no
// resume", never as an error). The epochs let a resumed replica release
// the apply barrier for a cross-shard commit whose part on some shard
// was already applied before the restart: that shard resubscribes past
// the record, so its part never arrives again, and only the watermark
// proves it was installed.
func loadOffsets(path string, shards int) ([]uint64, []uint64) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil
	}
	fields := strings.Fields(string(b))
	if len(fields) != shards+1 || fields[0] != "v2" {
		return nil, nil
	}
	idxs := make([]uint64, shards)
	epochs := make([]uint64, shards)
	for i, f := range fields[1:] {
		is, es, ok := strings.Cut(f, "@")
		if !ok {
			return nil, nil
		}
		if idxs[i], err = strconv.ParseUint(is, 10, 64); err != nil {
			return nil, nil
		}
		if epochs[i], err = strconv.ParseUint(es, 10, 64); err != nil {
			return nil, nil
		}
	}
	return idxs, epochs
}

// saveOffsets persists the primary's applied indices with an atomic
// tmp+rename, no fsync: losing the newest write costs a re-apply of a
// few records (idempotent — records carry absolute values), while a
// torn file would cost a full re-bootstrap.
func (r *Replica) saveOffsets() {
	if r.resumePath == "" {
		return
	}
	var b strings.Builder
	b.WriteString("v2")
	r.mu.Lock()
	for i, idx := range r.applied {
		fmt.Fprintf(&b, " %d@%d", idx, r.lastEpoch[i])
	}
	r.mu.Unlock()
	b.WriteByte('\n')
	tmp := r.resumePath + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return
	}
	os.Rename(tmp, r.resumePath)
}

// handshake checks the primary's shard count via STATS, SNAP-bootstraps
// every shard nothing has been applied to yet, subscribes every shard
// from just above its installed position, and reads until each
// subscription is confirmed (OK <shard> <head>). LOG pushes of
// already-confirmed shards may interleave with later confirmations; they
// are buffered and returned for the run loop to apply first. Any ERR
// reply — e.g. "not a replication primary", or "log trimmed" for a
// resumed replica whose resume point the primary discarded — fails the
// handshake, so a misdirected replica dies at startup instead of serving
// an empty snapshot.
func (r *Replica) handshake(br *bufio.Reader) (map[int][]Record, error) {
	if _, err := fmt.Fprintf(r.w, "STATS\n"); err != nil {
		return nil, err
	}
	if err := r.w.Flush(); err != nil {
		return nil, err
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("repl: primary handshake: %w", err)
	}
	shards := -1
	for _, f := range strings.Fields(strings.TrimSpace(line)) {
		if v, ok := strings.CutPrefix(f, "shards="); ok {
			shards, err = strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("repl: bad shards= in primary STATS: %q", v)
			}
		}
	}
	if shards < 0 {
		return nil, fmt.Errorf("repl: primary STATS reply carries no shard count: %q", strings.TrimSpace(line))
	}
	if shards != r.store.NumShards() {
		return nil, fmt.Errorf("repl: shard count mismatch: primary has %d, replica has %d", shards, r.store.NumShards())
	}
	if err := r.bootstrap(br); err != nil {
		return nil, err
	}
	for i := 0; i < shards; i++ {
		if _, err := fmt.Fprintf(r.w, "REPL %d %d\n", i, r.appliedIdx(i)+1); err != nil {
			return nil, err
		}
	}
	if err := r.w.Flush(); err != nil {
		return nil, err
	}
	pre := make(map[int][]Record)
	confirmed := 0
	for confirmed < shards {
		raw, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("repl: subscribe: %w", err)
		}
		line := strings.TrimSpace(raw)
		if strings.HasPrefix(line, "ERR") {
			return nil, &refusedError{line: line}
		}
		if fields := strings.Fields(line); len(fields) == 3 && fields[0] == "OK" {
			confirmed++
		}
		if err := r.consume(line, pre); err != nil {
			return nil, err
		}
	}
	// Announce the bootstrapped positions: the primary's lag accounting
	// and trim floors should start from the snapshot indices, not from
	// zero. (ACK is only legal after a REPL created the subscription.)
	acked := false
	for i := 0; i < shards; i++ {
		if a := r.appliedIdx(i); a > 0 {
			if _, err := fmt.Fprintf(r.w, "ACK %d %d\n", i, a); err != nil {
				return nil, err
			}
			acked = true
		}
	}
	if acked {
		if err := r.w.Flush(); err != nil {
			return nil, err
		}
	}
	return pre, nil
}

// bootstrap fetches and installs the SNAP snapshot of every shard with
// nothing applied. Replies are strictly ordered (nothing is subscribed
// yet, so no pushes interleave): per shard, an "OK <shard> <index>
// <epoch> <n>" header, then the n pairs across SNAPKV lines. The
// header's epoch is the shard's commit-epoch watermark at the snapshot
// cut: every commit with epoch <= it (cross-shard ones included) is
// folded into the snapshot, which seeds the apply barrier's
// resumed-epoch escape. The snapshot is installed through the same
// ApplyReplicated path as streamed records — one batch, native commit
// visibility, and (on a durable or chaining replica) one record in the
// local commit log.
func (r *Replica) bootstrap(br *bufio.Reader) error {
	var snap []int
	for i := 0; i < r.store.NumShards(); i++ {
		if r.appliedIdx(i) == 0 {
			snap = append(snap, i)
			if _, err := fmt.Fprintf(r.w, "SNAP %d\n", i); err != nil {
				return err
			}
		}
	}
	if err := r.w.Flush(); err != nil {
		return err
	}
	for _, i := range snap {
		raw, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("repl: snapshot: %w", err)
		}
		fields := strings.Fields(strings.TrimSpace(raw))
		if len(fields) != 5 || fields[0] != "OK" {
			return fmt.Errorf("repl: primary refused snapshot: %s", strings.TrimSpace(raw))
		}
		head, err1 := strconv.ParseUint(fields[2], 10, 64)
		epoch, err3 := strconv.ParseUint(fields[3], 10, 64)
		n, err2 := strconv.Atoi(fields[4])
		if fields[1] != strconv.Itoa(i) || err1 != nil || err2 != nil || err3 != nil || n < 0 {
			return fmt.Errorf("repl: malformed snapshot header %q", strings.TrimSpace(raw))
		}
		writes := make(map[string][]byte, n)
		for got := 0; got < n; {
			raw, err := br.ReadString('\n')
			if err != nil {
				return fmt.Errorf("repl: snapshot body: %w", err)
			}
			kvf := strings.Fields(strings.TrimSpace(raw))
			if len(kvf) < 3 || kvf[0] != "SNAPKV" || kvf[1] != strconv.Itoa(i) {
				return fmt.Errorf("repl: unexpected line in snapshot body: %q", strings.TrimSpace(raw))
			}
			for _, pair := range kvf[2:] {
				k, v, err := ParsePair(pair)
				if err != nil {
					return fmt.Errorf("repl: bad snapshot pair %q", pair)
				}
				writes[k] = v
				got++
			}
		}
		if len(writes) > 0 {
			if err := r.store.ApplyReplicated(i, []map[string][]byte{writes}); err != nil {
				return err
			}
		}
		r.mu.Lock()
		r.applied[i] = head
		r.lastEpoch[i] = epoch
		r.mu.Unlock()
		if r.met != nil {
			r.met.Snapshots.Inc()
		}
		if r.gate != nil {
			r.gate.ObserveApplied(i, head, 0, 0)
		}
	}
	// Record the bootstrap positions immediately: a replica restarted
	// before any stream traffic should still resume, not re-SNAP.
	r.saveOffsets()
	return nil
}

// pollHeads keeps the lag gate's view of the primary's log heads current
// on a dedicated control connection. The replication stream cannot carry
// this signal honestly — a lagging replica reads the stream exactly as
// late as the lag being measured — so heads are polled out-of-band. Poll
// failures are non-fatal: the stream still drives applies, the gate just
// stops learning about new backlog.
func (r *Replica) pollHeads(addr string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	defer conn.Close()
	go func() {
		<-r.done
		conn.Close() // unblock a read parked in the poll loop
	}()
	br := bufio.NewReader(conn)
	t := time.NewTicker(headInterval)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
		}
		if _, err := fmt.Fprintf(conn, "HEAD\n"); err != nil {
			return
		}
		raw, err := br.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(raw))
		// HEAD replies carry the primary's epoch watermark first, then
		// the per-shard heads: "OK <epoch-watermark> <head0> <head1> ..."
		// (docs/PROTOCOL.md, "Replication"). The gate wants the heads;
		// the watermark serves lease/promotion decisions elsewhere.
		if len(fields) < 2 || fields[0] != "OK" {
			continue
		}
		for i, f := range fields[2:] {
			if h, err := strconv.ParseUint(f, 10, 64); err == nil {
				r.gate.ObserveHead(i, h)
			}
		}
	}
}

// run is the apply loop: drain whatever lines the connection has buffered
// (blocking for the first), apply the LOG records per shard under one
// latch hold each, then ACK the new positions. batch starts with the
// records the handshake buffered.
func (r *Replica) run(br *bufio.Reader, batch map[int][]Record) {
	defer close(r.done)
	if err := r.apply(batch); err != nil {
		r.fail(err)
		return
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			r.fail(fmt.Errorf("repl: stream lost: %w", err))
			return
		}
		for {
			if err := r.consume(strings.TrimSpace(line), batch); err != nil {
				r.fail(err)
				return
			}
			if br.Buffered() == 0 || r.batchLen(batch) >= maxApplyBatch {
				break
			}
			line, err = br.ReadString('\n')
			if err != nil {
				r.fail(fmt.Errorf("repl: stream lost: %w", err))
				return
			}
		}
		if err := r.apply(batch); err != nil {
			r.fail(err)
			return
		}
	}
}

func (r *Replica) batchLen(batch map[int][]Record) int {
	n := 0
	for _, recs := range batch {
		n += len(recs)
	}
	return n
}

// consume routes one received line: LOG records accumulate into batch,
// subscription confirmations update the gate's head, bare OKs (ack
// replies) are discarded, anything else is a stream error.
func (r *Replica) consume(line string, batch map[int][]Record) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	switch fields[0] {
	case "LOG":
		shardIdx, rec, err := ParseLog(fields[1:])
		if err != nil {
			return err
		}
		if shardIdx >= r.store.NumShards() {
			return fmt.Errorf("repl: LOG for unknown shard %d", shardIdx)
		}
		if r.gate != nil {
			r.gate.ObserveHead(shardIdx, rec.Index)
		}
		batch[shardIdx] = append(batch[shardIdx], rec)
		return nil
	case "OK":
		if len(fields) == 3 {
			// Subscription confirmation: OK <shard> <head>.
			shardIdx, err1 := strconv.Atoi(fields[1])
			head, err2 := strconv.ParseUint(fields[2], 10, 64)
			if err1 == nil && err2 == nil && r.gate != nil {
				r.gate.ObserveHead(shardIdx, head)
			}
		}
		return nil
	default:
		return fmt.Errorf("repl: unexpected line on replication stream: %q", line)
	}
}

// apply moves the gathered records into the per-shard pending queues
// (verifying index contiguity), then drains every queue as far as the
// apply barrier allows: standalone prefixes install in one latch hold
// per shard, and a cross-shard record at a queue head installs — all
// parts under one multi-latch hold — only once every participant's part
// is also at its head or already applied (resumed epoch watermark).
// Parts of a cross commit whose partners haven't streamed in yet stay
// queued, un-acked and invisible, until they have. New positions are
// acknowledged after the drain.
func (r *Replica) apply(batch map[int][]Record) error {
	for shardIdx, recs := range batch {
		for _, rec := range recs {
			if rec.Index != r.nextIdx[shardIdx] {
				return fmt.Errorf("repl: shard %d log gap: got index %d, want %d",
					shardIdx, rec.Index, r.nextIdx[shardIdx])
			}
			r.pending[shardIdx] = append(r.pending[shardIdx], rec)
			r.nextIdx[shardIdx]++
		}
		delete(batch, shardIdx)
	}
	appliedAny := false
	before := r.Applied()
	for {
		progressed := false
		for shardIdx := range r.pending {
			n, err := r.drainShard(shardIdx)
			if err != nil {
				return err
			}
			if n {
				progressed, appliedAny = true, true
			}
		}
		if !progressed {
			break
		}
	}
	after := r.Applied()
	for shardIdx := range after {
		if after[shardIdx] == before[shardIdx] {
			continue
		}
		if _, err := fmt.Fprintf(r.w, "ACK %d %d\n", shardIdx, after[shardIdx]); err != nil {
			return fmt.Errorf("repl: ack: %w", err)
		}
	}
	// One offsets write per apply round, after the batch's local commit-
	// log sync inside ApplyReplicated: the file can trail durable state
	// (safe re-apply) but never lead it.
	if appliedAny {
		r.saveOffsets()
	}
	return r.w.Flush()
}

// drainShard makes one pass over shardIdx's pending queue: install the
// standalone prefix, then at most one barrier-released cross commit.
// Reports whether anything was applied.
func (r *Replica) drainShard(shardIdx int) (bool, error) {
	q := r.pending[shardIdx]
	n := 0
	for n < len(q) && !q[n].Cross() {
		n++
	}
	applied := false
	if n > 0 {
		writes := make([]map[string][]byte, n)
		for i, rec := range q[:n] {
			writes[i] = rec.Writes
		}
		if err := r.install(func() error {
			return r.store.ApplyReplicated(shardIdx, writes)
		}, n, []int{shardIdx}, []Record{q[n-1]}); err != nil {
			return false, err
		}
		q = q[n:]
		r.pending[shardIdx] = q
		applied = true
	}
	if len(q) == 0 || !r.barrierOpen(q[0]) {
		return applied, nil
	}
	// Every participant's part is in position: gather them (skipping
	// shards whose resumed watermark proves the part is already in) and
	// install the commit all-shards-at-once.
	head := q[0]
	writes := make([]map[string][]byte, 0, len(head.Shards))
	members := make([]int, 0, len(head.Shards))
	heads := make([]Record, 0, len(head.Shards))
	for _, p := range head.Shards {
		if r.epochOf(p) >= head.Epoch {
			continue
		}
		writes = append(writes, r.pending[p][0].Writes)
		members = append(members, p)
		heads = append(heads, r.pending[p][0])
	}
	// When every other participant already holds its part (resumed past
	// it), what's left is one part — which ApplyReplicatedCross installs
	// as an ordinary single-shard commit.
	install := func() error { return r.store.ApplyReplicatedCross(members, writes) }
	if err := r.install(install, len(members), members, heads); err != nil {
		return false, err
	}
	for _, p := range members {
		r.pending[p] = r.pending[p][1:]
	}
	return true, nil
}

// barrierOpen reports whether a cross-shard record at a queue head may
// install: every participant's part of the same epoch must be at its own
// queue head, or that shard's watermark must already cover the epoch
// (its part was applied before a resume). No deadlock hides here:
// per-shard log order matches per-shard epoch order, so a participant
// whose head is a different, older cross epoch can always make progress
// first — this shard's part of that older epoch is necessarily already
// applied.
func (r *Replica) barrierOpen(head Record) bool {
	for _, p := range head.Shards {
		if p < 0 || p >= len(r.pending) {
			return false
		}
		if r.epochOf(p) >= head.Epoch {
			continue
		}
		if len(r.pending[p]) > 0 && r.pending[p][0].Epoch == head.Epoch {
			continue
		}
		return false
	}
	return true
}

// install runs one store install (with the chaos apply-delay stall),
// observes its metrics, and advances applied/epoch bookkeeping for every
// shard whose record it covered.
func (r *Replica) install(fn func() error, nrecs int, shards []int, last []Record) error {
	if faultApplyDelay > 0 {
		time.Sleep(faultApplyDelay)
	}
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	took := time.Since(t0)
	if r.met != nil {
		r.met.ApplySeconds.Observe(int64(took))
		r.met.ApplyBatch.Observe(int64(nrecs))
	}
	// One flight event per batch, stamped with its newest epoch (the
	// epoch is the cross-node join key; txn carries the batch size).
	if len(last) > 0 {
		newest := last[len(last)-1]
		r.flight.Record(flight.EvReplApply, uint64(nrecs), shards[0], newest.Epoch)
	}
	perShard := nrecs
	if len(shards) > 1 {
		perShard = 1 // a cross install lands one record on each shard
	}
	for i, shardIdx := range shards {
		rec := last[i]
		r.mu.Lock()
		r.applied[shardIdx] = rec.Index
		if rec.Epoch > r.lastEpoch[shardIdx] {
			r.lastEpoch[shardIdx] = rec.Epoch
		}
		r.mu.Unlock()
		if r.gate != nil {
			r.gate.ObserveApplied(shardIdx, rec.Index, took, perShard)
		}
	}
	return nil
}

func (r *Replica) epochOf(shard int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastEpoch[shard]
}

func (r *Replica) appliedIdx(shard int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied[shard]
}

// Applied returns the applied log index per shard.
func (r *Replica) Applied() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, len(r.applied))
	copy(out, r.applied)
	return out
}

// Watermarks returns the per-shard commit-epoch watermark: the newest
// wire epoch applied on each shard (seeded by snapshot bootstrap or a
// resume file). Promotion uses it to reset the new primary's log epochs
// and to raise the global epoch counter past everything replicated.
func (r *Replica) Watermarks() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, len(r.lastEpoch))
	copy(out, r.lastEpoch)
	return out
}

func (r *Replica) fail(err error) {
	r.mu.Lock()
	if r.err == nil && !r.closed {
		r.err = err
	}
	r.mu.Unlock()
	r.conn.Close()
}

// Err returns the stream-ending error (nil while the stream is live;
// check after Done is closed).
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Done is closed when the replication stream ends.
func (r *Replica) Done() <-chan struct{} { return r.done }

// Close tears down the stream. The local store keeps serving: a replica
// that loses its primary degrades to a frozen-but-consistent snapshot.
func (r *Replica) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	err := r.conn.Close()
	<-r.done
	return err
}
