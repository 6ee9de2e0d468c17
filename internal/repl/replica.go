// The replica side of log shipping: dial the primary, bootstrap from one
// SNAP (or resume from a persisted position), subscribe once with REPL,
// apply the pushed LOG parts in log order, and report progress with ACK.
// Parts are applied in rounds — every part already buffered on the
// connection — and a round is one shard.Store.ApplyReplicated: one latch
// hold over the shards it touches and one local log sync, the same
// coalescing shape as the primary's group commit.
//
// A round installs whole records only. A cross-shard commit's parts
// arrive at consecutive positions; a record cut by the end of what is
// buffered waits for the next round. No reader sees part of a round, so
// the replica's store equals the primary's after its first p parts at
// every instant, p being a record boundary at or past the position the
// replica acks: a prefix of one order, and a cross-shard commit is
// visible on all of its shards or on none.

package repl

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"slices"
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
	// ResumePath, when non-empty, persists the PRIMARY's position and
	// epoch watermark to this file after each applied round and resumes
	// the subscription from it at the next start, skipping the SNAP
	// bootstrap. The local store's own commit-log indices are useless for
	// this — a snapshot installs as one local record, so local and
	// primary numbering diverge. The file is written non-synced
	// (tmp+rename): a stale position only re-applies records, which is
	// safe because log records carry absolute values. If the primary has
	// trimmed its log past the resume point, StartReplica falls back to a
	// fresh snapshot bootstrap automatically.
	ResumePath string
	// Metrics, when non-nil, receives apply-path observations. All
	// fields must be populated.
	Metrics *ReplicaMetrics
	// Flight, when non-nil, receives one event per round — the replica
	// half of the cross-node causal timeline: the event carries the
	// round's newest commit epoch, so a merged flight dump joins it to
	// the primary's events (fsync, WAL error) for the same epoch.
	Flight *flight.Ring
}

// ReplicaMetrics are the replica's instruments, registered by the
// replica server in its obs registry.
type ReplicaMetrics struct {
	// Resumes counts subscriptions resumed from a persisted position;
	// Snapshots counts snapshot bootstraps. A restarting durable replica
	// should grow Resumes, not Snapshots.
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

	mu     sync.Mutex
	pos    uint64 // primary position applied through: always a record boundary
	epoch  uint64 // newest commit epoch among the applied records
	err    error
	closed bool
	done   chan struct{}

	// Stream state, touched only by the run goroutine (and the handshake
	// before it starts): the parts read and not yet applied, in log
	// order; how many of them belong to a cross-shard record not yet read
	// whole (the tail); and the position the next part must carry.
	batch []Record
	open  int
	next  uint64
}

// maxApplyBatch caps the parts read before a round is applied.
const maxApplyBatch = 256

// headInterval is how often a gated replica polls the primary's log head
// on a separate control connection. The stream alone cannot carry this
// honestly: a backpressured replica reads the stream late by exactly the
// lag being measured, while the poll connection stays idle and current.
const headInterval = 25 * time.Millisecond

// faultApplyDelay stalls the replica's apply loop before each round's
// install — a chaos hook (SCC_FAULT_APPLY_DELAY_MS) that lets a backlog
// build, so readers sample the replica mid catch-up.
var faultApplyDelay = func() time.Duration {
	if v := os.Getenv("SCC_FAULT_APPLY_DELAY_MS"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	return 0
}()

// StartReplica connects to the primary, verifies the shard counts match,
// bootstraps with one SNAP unless ResumePath holds a position, and
// subscribes with one REPL from just above it — a non-primary target
// fails here, at startup — then starts the apply loop. A resumed
// subscription the primary refuses (log trimmed past the resume point)
// falls back to a fresh SNAP bootstrap before giving up. The stream runs
// until Close or a connection error; Done/Err report the end.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	r := &Replica{
		store:      cfg.Store,
		gate:       cfg.Gate,
		resumePath: cfg.ResumePath,
		met:        cfg.Metrics,
		flight:     cfg.Flight,
		done:       make(chan struct{}),
	}
	resumed := false
	if cfg.ResumePath != "" {
		r.pos, r.epoch, resumed = loadOffsets(cfg.ResumePath)
	}
	br, err := r.connect(cfg.Primary)
	if err != nil && resumed && errors.As(err, new(*refusedError)) {
		// The primary trimmed its log past the resume point. The persisted
		// position is durable truth about what was applied, but the
		// primary can no longer serve the suffix — start over from a
		// snapshot on a fresh connection (SNAP must precede REPL).
		slog.Warn("repl: resume refused by primary; falling back to snapshot bootstrap",
			"err", err)
		r.pos, r.epoch, resumed = 0, 0, false
		br, err = r.connect(cfg.Primary)
	}
	if err != nil {
		return nil, err
	}
	r.next = r.pos + 1
	if resumed && r.met != nil {
		r.met.Resumes.Inc()
	}
	go r.run(br)
	if r.gate != nil {
		go r.pollHeads(cfg.Primary)
	}
	return r, nil
}

// connect dials the primary and runs the subscription handshake,
// leaving r.conn/r.w bound to the new connection. On error the
// connection is closed.
func (r *Replica) connect(primary string) (*bufio.Reader, error) {
	conn, err := net.Dial("tcp", primary)
	if err != nil {
		return nil, err
	}
	r.conn = conn
	r.w = bufio.NewWriter(conn)
	br := bufio.NewReaderSize(conn, 256*1024)
	if err := r.handshake(br); err != nil {
		conn.Close()
		return nil, err
	}
	return br, nil
}

// refusedError marks a subscription the primary rejected with an ERR
// reply — the "log trimmed" case a resumed replica must recover from by
// re-bootstrapping, as opposed to transport failures, which must not
// silently discard persisted progress.
type refusedError struct{ line string }

func (e *refusedError) Error() string { return "repl: primary refused subscription: " + e.line }

// loadOffsets reads a persisted primary position and epoch watermark
// ("v3 <pos> <epoch>"). ok is false when there is no usable file:
// absent, malformed, or written by an older build (which kept one
// position per shard) — all treated as "no resume", never as an error.
func loadOffsets(path string) (pos, epoch uint64, ok bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(string(b))
	if len(fields) != 3 || fields[0] != "v3" {
		return 0, 0, false
	}
	pos, err1 := strconv.ParseUint(fields[1], 10, 64)
	epoch, err2 := strconv.ParseUint(fields[2], 10, 64)
	return pos, epoch, err1 == nil && err2 == nil
}

// saveOffsets persists the applied position with an atomic tmp+rename,
// no fsync: losing the newest write costs a re-apply of a few records
// (idempotent — records carry absolute values), while a torn file would
// cost a full re-bootstrap.
func (r *Replica) saveOffsets() {
	if r.resumePath == "" {
		return
	}
	pos, epoch := r.Position()
	tmp := r.resumePath + ".tmp"
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("v3 %d %d\n", pos, epoch)), 0o644); err != nil {
		return
	}
	os.Rename(tmp, r.resumePath)
}

// handshake checks the primary's shard count via STATS, SNAP-bootstraps
// a replica with nothing applied, subscribes with REPL from just above
// its position and reads the confirmation (OK <head>), then acks the
// position it starts from, so the primary's lag accounting and trim
// floor start there rather than at zero. Any ERR reply — e.g. "not a
// replication primary", or "log trimmed" for a resumed replica whose
// resume point the primary discarded — fails the handshake, so a
// misdirected replica dies at startup instead of serving an empty
// snapshot.
func (r *Replica) handshake(br *bufio.Reader) error {
	if _, err := fmt.Fprintf(r.w, "STATS\n"); err != nil {
		return err
	}
	if err := r.w.Flush(); err != nil {
		return err
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("repl: primary handshake: %w", err)
	}
	shards := -1
	for _, f := range strings.Fields(strings.TrimSpace(line)) {
		if v, ok := strings.CutPrefix(f, "shards="); ok {
			shards, err = strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("repl: bad shards= in primary STATS: %q", v)
			}
		}
	}
	if shards < 0 {
		return fmt.Errorf("repl: primary STATS reply carries no shard count: %q", strings.TrimSpace(line))
	}
	if shards != r.store.NumShards() {
		return fmt.Errorf("repl: shard count mismatch: primary has %d, replica has %d", shards, r.store.NumShards())
	}
	pos, _ := r.Position()
	if pos == 0 {
		if err := r.bootstrap(br); err != nil {
			return err
		}
		pos, _ = r.Position()
	}
	if _, err := fmt.Fprintf(r.w, "REPL %d\n", pos+1); err != nil {
		return err
	}
	if err := r.w.Flush(); err != nil {
		return err
	}
	raw, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("repl: subscribe: %w", err)
	}
	fields := strings.Fields(raw)
	if len(fields) > 0 && fields[0] == "ERR" {
		return &refusedError{line: strings.TrimSpace(raw)}
	}
	if len(fields) != 2 || fields[0] != "OK" {
		return fmt.Errorf("repl: unexpected subscription reply %q", strings.TrimSpace(raw))
	}
	head, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return fmt.Errorf("repl: bad head in subscription reply %q", strings.TrimSpace(raw))
	}
	if r.gate != nil {
		r.gate.ObserveHead(head)
	}
	if pos == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(r.w, "ACK %d\n", pos); err != nil {
		return err
	}
	return r.w.Flush()
}

// bootstrap fetches and installs the primary's SNAP snapshot. Nothing is
// subscribed yet, so the reply is not interleaved with pushes: an
// "OK <pos> <epoch> <n>" header — the position and epoch watermark of
// the cut — then the n pairs across SNAPKV lines. The pairs are routed to
// their shards here and installed as one record through ApplyReplicated,
// the call streamed rounds take: all shards at once, and (on a durable or
// chaining replica) one record in the local commit log.
func (r *Replica) bootstrap(br *bufio.Reader) error {
	if _, err := fmt.Fprintf(r.w, "SNAP\n"); err != nil {
		return err
	}
	if err := r.w.Flush(); err != nil {
		return err
	}
	raw, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	fields := strings.Fields(raw)
	if len(fields) != 4 || fields[0] != "OK" {
		return fmt.Errorf("repl: primary refused snapshot: %s", strings.TrimSpace(raw))
	}
	pos, err1 := strconv.ParseUint(fields[1], 10, 64)
	epoch, err2 := strconv.ParseUint(fields[2], 10, 64)
	n, err3 := strconv.Atoi(fields[3])
	if err1 != nil || err2 != nil || err3 != nil || n < 0 {
		return fmt.Errorf("repl: malformed snapshot header %q", strings.TrimSpace(raw))
	}
	byShard := make([]map[string][]byte, r.store.NumShards())
	for got := 0; got < n; {
		raw, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("repl: snapshot body: %w", err)
		}
		kvf := strings.Fields(raw)
		if len(kvf) < 2 || kvf[0] != "SNAPKV" {
			return fmt.Errorf("repl: unexpected line in snapshot body: %q", strings.TrimSpace(raw))
		}
		for _, pair := range kvf[1:] {
			k, v, err := ParsePair(pair)
			if err != nil {
				return fmt.Errorf("repl: bad snapshot pair %q", pair)
			}
			s := r.store.ShardOf(k)
			if byShard[s] == nil {
				byShard[s] = make(map[string][]byte)
			}
			byShard[s][k] = v
			got++
		}
	}
	var rec shard.Replicated
	for s, w := range byShard {
		if w != nil {
			rec.Shards, rec.Writes = append(rec.Shards, s), append(rec.Writes, w)
		}
	}
	if err := r.store.ApplyReplicated([]shard.Replicated{rec}); err != nil {
		return err
	}
	r.mu.Lock()
	r.pos, r.epoch = pos, epoch
	r.mu.Unlock()
	if r.met != nil {
		r.met.Snapshots.Inc()
	}
	if r.gate != nil {
		r.gate.ObserveApplied(pos, 0, 0)
	}
	// Record the bootstrap position immediately: a replica restarted
	// before any stream traffic should still resume, not re-SNAP.
	r.saveOffsets()
	return nil
}

// pollHeads keeps the lag gate's view of the primary's log head current
// on a dedicated control connection. The replication stream cannot carry
// this signal honestly — a lagging replica reads the stream exactly as
// late as the lag being measured — so the head is polled out-of-band.
// Poll failures are non-fatal: the stream still drives applies, the gate
// just stops learning about new backlog.
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
		// HEAD replies carry the primary's epoch watermark, then its head
		// position: "OK <epoch-watermark> <head>" (docs/PROTOCOL.md,
		// "Replication"). The gate wants the head; the watermark serves
		// lease/promotion decisions elsewhere.
		fields := strings.Fields(raw)
		if len(fields) != 3 || fields[0] != "OK" {
			continue
		}
		if h, err := strconv.ParseUint(fields[2], 10, 64); err == nil {
			r.gate.ObserveHead(h)
		}
	}
}

// run is the apply loop: read whatever lines the connection has buffered
// (blocking for the first), then apply the round and ACK the new
// position.
func (r *Replica) run(br *bufio.Reader) {
	defer close(r.done)
	for {
		line, err := br.ReadString('\n')
		for err == nil {
			if err = r.consume(line); err != nil {
				r.fail(err)
				return
			}
			if br.Buffered() == 0 || len(r.batch) >= maxApplyBatch {
				break
			}
			line, err = br.ReadString('\n')
		}
		if err != nil {
			r.fail(fmt.Errorf("repl: stream lost: %w", err))
			return
		}
		if err := r.apply(); err != nil {
			r.fail(err)
			return
		}
	}
}

// consume routes one received line: LOG parts are checked and join the
// round, bare OKs (ack replies) are discarded, anything else is a
// stream error.
func (r *Replica) consume(line string) error {
	fields := strings.Fields(line)
	switch {
	case len(fields) == 0 || fields[0] == "OK":
		return nil
	case fields[0] != "LOG":
		return fmt.Errorf("repl: unexpected line on replication stream: %q", strings.TrimSpace(line))
	}
	_, rec, err := ParseLog(fields[1:])
	if err != nil {
		return err
	}
	return r.take(rec)
}

// take appends one part to the round after checking that it may come
// next: its position follows the last one, its shard exists, and it
// keeps every cross-shard record whole — inside a record only the
// record's next participant may follow (another shard of the record is a
// foreign part), and no other record may start before the open one is
// read whole (it would be cut short).
func (r *Replica) take(rec Record) error {
	if rec.Index != r.next {
		return fmt.Errorf("repl: position gap: got %d, want %d", rec.Index, r.next)
	}
	if rec.Shard >= r.store.NumShards() {
		return fmt.Errorf("repl: LOG for unknown shard %d", rec.Shard)
	}
	if r.open > 0 {
		head := r.batch[len(r.batch)-r.open]
		if rec.Epoch != head.Epoch || !slices.Equal(rec.Shards, head.Shards) {
			return fmt.Errorf("repl: cross-shard record at epoch %d cut short after %d of its %d parts, at position %d",
				head.Epoch, r.open, len(head.Shards), rec.Index)
		}
	}
	if rec.Cross() {
		if want := rec.Shards[r.open]; rec.Shard != want {
			return fmt.Errorf("repl: foreign part at position %d: shard %d where cross-shard record at epoch %d has shard %d",
				rec.Index, rec.Shard, rec.Epoch, want)
		}
		r.open = (r.open + 1) % len(rec.Shards)
	}
	r.next++
	r.batch = append(r.batch, rec)
	if r.gate != nil {
		r.gate.ObserveHead(rec.Index)
	}
	return nil
}

// apply installs every whole record of the round, in log order, as one
// ApplyReplicated: one latch hold over the round's shards and one local
// log sync (after the chaos apply-delay stall, when set). The parts of a
// record not yet read whole stay for the next round. The new position is
// acknowledged, and persisted, after the install: an ack covers only
// applied records, and on a durable replica only locally synced ones.
func (r *Replica) apply() error {
	n := len(r.batch) - r.open
	if n == 0 {
		return nil
	}
	recs := r.batch[:n]
	// A record's parts arrive in ascending shard order and end with its
	// last participant's, so its Shards and Writes are sub-slices of the
	// round's, capped because a commit log retains them.
	shards, writes := make([]int, n), make([]map[string][]byte, n)
	var round []shard.Replicated
	epoch, start := uint64(0), 0
	for i, rec := range recs {
		shards[i], writes[i] = rec.Shard, rec.Writes
		epoch = max(epoch, rec.Epoch)
		if !rec.Cross() || rec.Shard == rec.Shards[len(rec.Shards)-1] {
			round = append(round, shard.Replicated{Shards: shards[start : i+1 : i+1], Writes: writes[start : i+1 : i+1]})
			start = i + 1
		}
	}
	if faultApplyDelay > 0 {
		time.Sleep(faultApplyDelay)
	}
	t0 := time.Now()
	if err := r.store.ApplyReplicated(round); err != nil {
		return err
	}
	took := time.Since(t0)
	r.flight.Record(flight.EvReplApply, uint64(n), recs[0].Shard, epoch)
	pos := recs[n-1].Index
	r.batch = append(r.batch[:0], r.batch[n:]...)
	r.mu.Lock()
	r.pos, r.epoch = pos, max(r.epoch, epoch)
	r.mu.Unlock()
	if r.gate != nil {
		r.gate.ObserveApplied(pos, took, n)
	}
	r.saveOffsets()
	if _, err := fmt.Fprintf(r.w, "ACK %d\n", pos); err != nil {
		return fmt.Errorf("repl: ack: %w", err)
	}
	return r.w.Flush()
}

// Position returns the primary position the replica has applied through
// — always a record boundary of the primary's commit order — and its
// epoch watermark, the newest commit epoch among the applied records
// (seeded by the snapshot or the resume file). Elections rank replicas
// by them, and promotion rebases the new primary's feed on them.
func (r *Replica) Position() (pos, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pos, r.epoch
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
