// Package flight is the always-on flight recorder: fixed-size ring
// buffers of recent lifecycle and durability events, cheap enough to
// leave running in production (ring slots are pointer-free so the
// buffers are GC-noscan, and the serving layer batches a request's
// lifecycle stamps into one ring write). When something goes
// wrong — a sticky WAL failure, a demotion, an operator SIGQUIT — the
// rings are dumped as a textual post-mortem artifact, the black-box
// record of what the process did just before the fault.
//
// Every event carries a node-wide monotonic sequence number (one shared
// counter across all rings, so a dump merges into a single total order)
// and the global commit epoch when one is in hand (0 otherwise). The
// epoch is what joins events causally ACROSS nodes: a commit's
// lifecycle stamps, WAL error and replica-apply events all carry the
// same epoch, so dumps from a primary and its replicas merge into one
// causal timeline (see MergeTimeline and `sccload -events-merge`).
//
// The recorder keeps one ring per shard (durability events: WAL fsync
// and WAL errors) plus three named rings: "server" (per-request
// lifecycle stamps via obs.Trace), "admission" (replica reads shed by
// the lag gate), and "repl" (replica apply batches). Rings are
// independently mutex-guarded — writers to different rings never
// contend, and a dump racing a writer is safe — and bounded: an idle
// ring costs its fixed buffer, a hot one overwrites its oldest events.
package flight

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event names recorded directly by the durability and replication
// layers (lifecycle stages arriving via obs.Trace use the obs.Stage*
// names). docs/PROTOCOL.md lists every name normatively; the
// conformance test in internal/server keeps the two in sync.
const (
	// EvFsync is an fsync of the node log run by a shard's sync; the
	// epoch is the shard's high-water commit epoch covered by it.
	EvFsync = "wal_fsync"
	// EvFsyncError is a failed WAL fsync, recorded with the shard's
	// epoch watermark.
	EvFsyncError = "wal_fsync_error"
	// EvWalError is a failed WAL append (non-fsync failure); the epoch
	// is the commit whose record could not be written.
	EvWalError = "wal_error"
	// EvReplApply is one replica apply round; the epoch is the newest
	// epoch installed by the round, the shard its first part's shard.
	EvReplApply = "repl_apply"
	// EvReplShed is a replica read shed by the lag gate.
	EvReplShed = "repl_shed"
	// EvPromote is a replica promoting itself to primary; the epoch is
	// the fencing epoch the promotion minted.
	EvPromote = "promote"
	// EvDemote is a primary fencing itself after discovering a higher
	// fencing epoch (a newer primary exists); the epoch is the deposing
	// epoch. The server dumps the flight ring on this event, like
	// the walfail path.
	EvDemote = "demote"
	// EvFenceReject is traffic refused because it reached a node that is
	// not the primary under the current fencing epoch: a write on a
	// demoted or fenced node, or a commit whose verdict was failed by the
	// fence because the node was deposed mid-flight.
	EvFenceReject = "fence_reject"
)

// DefaultSize is the per-ring capacity used when New is given size <= 0.
// The server ring holds 4x this (it carries every request's lifecycle
// stamps; the others see one event per batch-scale operation).
const DefaultSize = 1024

// Event is one recorded occurrence.
type Event struct {
	Seq   uint64 // node-wide monotonic sequence (shared across rings)
	At    int64  // wall clock, unix nanoseconds
	Ring  string // ring name: "server", "admission", "repl", "shardN"
	Name  string // event name (obs stage or Ev* constant)
	Txn   uint64 // serving-layer request/session id; 0 when not request-scoped
	Shard int    // owning shard; -1 when not shard-scoped
	Epoch uint64 // global commit epoch; 0 = standalone or not yet known
}

// packed is the in-ring event representation: same fields as Event but
// pointer-free (the name interned to a code, the ring name implied by
// the owning ring). A recorder's rings hold tens of thousands of slots;
// pointer-free buffers live in noscan spans the GC never walks, which
// is what keeps an always-on multi-megabyte black box free even at
// benchmark heap sizes.
type packed struct {
	seq   uint64
	at    int64
	txn   uint64
	epoch uint64
	name  uint32
	shard int32
}

// names is the closed event vocabulary, and a name's packed code is its
// index: the Ev* constants plus the obs.Stage* lifecycle names (spelled
// out — obs imports this package, not the reverse; the conformance test
// in internal/server keeps the spellings honest). A name outside it
// records as unknown, which nameOf renders "?".
var names = [...]string{
	EvFsync, EvFsyncError, EvWalError, EvReplApply, EvReplShed,
	EvPromote, EvDemote, EvFenceReject,
	"enqueue", "admit", "fork", "park", "resume", "promotion",
	"restart", "defer", "install", "commit",
}

var nameCodes = func() map[string]uint32 {
	m := make(map[string]uint32, len(names))
	for i, n := range names {
		m[n] = uint32(i)
	}
	return m
}()

func nameCode(name string) uint32 {
	if c, ok := nameCodes[name]; ok {
		return c
	}
	return uint32(len(names))
}

func nameOf(code uint32) string {
	if int(code) >= len(names) {
		return "?"
	}
	return names[code]
}

// Ring is one bounded event buffer. A nil *Ring records nothing, so
// layers take an optional ring with no branches at the call sites.
type Ring struct {
	name string
	seq  *atomic.Uint64

	mu  sync.Mutex
	buf []packed
	n   uint64 // events ever recorded (write cursor = n % len(buf))
}

// Record appends one event, overwriting the oldest when full.
func (g *Ring) Record(name string, txn uint64, shard int, epoch uint64) {
	g.RecordAt(time.Now().UnixNano(), name, txn, shard, epoch)
}

// RecordAt is Record with the caller's timestamp — the obs.Trace sink
// uses it so a stamped stage and its flight event share one clock read.
func (g *Ring) RecordAt(at int64, name string, txn uint64, shard int, epoch uint64) {
	if g == nil {
		return
	}
	code := nameCode(name)
	seq := g.seq.Add(1)
	g.mu.Lock()
	g.buf[int(g.n%uint64(len(g.buf)))] = packed{
		seq: seq, at: at, name: code, txn: txn, shard: int32(shard), epoch: epoch,
	}
	g.n++
	g.mu.Unlock()
}

// Batch is an open reservation on a ring: up to the reserved count of
// events written under a single lock hold, with contiguous sequence
// numbers. The obs.Trace flush uses it so a request's buffered
// lifecycle stages cost one lock and one sequence reservation instead
// of one each. The ring stays locked until Done.
type Batch struct {
	g    *Ring
	seq  uint64 // next sequence number to assign
	left int
}

// Batch reserves n sequence numbers and locks the ring. Returns an
// inert batch on a nil ring or n <= 0 (Add and Done are then no-ops).
func (g *Ring) Batch(n int) Batch {
	if g == nil || n <= 0 {
		return Batch{}
	}
	last := g.seq.Add(uint64(n))
	g.mu.Lock()
	return Batch{g: g, seq: last - uint64(n) + 1, left: n}
}

// Add appends one event with the batch's next sequence number. Calls
// past the reserved count are dropped.
func (b *Batch) Add(at int64, name string, txn uint64, shard int, epoch uint64) {
	if b.g == nil || b.left == 0 {
		return
	}
	g := b.g
	g.buf[int(g.n%uint64(len(g.buf)))] = packed{
		seq: b.seq, at: at, name: nameCode(name), txn: txn, shard: int32(shard), epoch: epoch,
	}
	g.n++
	b.seq++
	b.left--
}

// Done unlocks the ring. The batch must not be used afterwards.
func (b *Batch) Done() {
	if b.g == nil {
		return
	}
	b.g.mu.Unlock()
	b.g = nil
}

// snapshot copies the ring's retained events in record order.
func (g *Ring) snapshot() []Event {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	size := uint64(len(g.buf))
	kept := g.n
	if kept > size {
		kept = size
	}
	out := make([]Event, 0, kept)
	for i := g.n - kept; i < g.n; i++ {
		p := g.buf[int(i%size)]
		out = append(out, Event{
			Seq: p.seq, At: p.at, Ring: g.name, Name: nameOf(p.name),
			Txn: p.txn, Shard: int(p.shard), Epoch: p.epoch,
		})
	}
	return out
}

// Recorder owns the rings and the shared sequence counter. A nil
// *Recorder is inert: every accessor returns a nil ring or zero value.
type Recorder struct {
	seq    atomic.Uint64
	nodeMu sync.Mutex
	node   string

	server    *Ring
	admission *Ring
	repl      *Ring
	shards    []*Ring
}

// New returns a recorder with one ring per shard plus the server,
// admission, and repl rings. size <= 0 uses DefaultSize.
func New(shards, size int) *Recorder {
	if size <= 0 {
		size = DefaultSize
	}
	if shards < 0 {
		shards = 0
	}
	r := &Recorder{node: "node"}
	mk := func(name string, n int) *Ring {
		return &Ring{name: name, seq: &r.seq, buf: make([]packed, n)}
	}
	r.server = mk("server", 4*size)
	r.admission = mk("admission", size)
	r.repl = mk("repl", size)
	r.shards = make([]*Ring, shards)
	for i := range r.shards {
		r.shards[i] = mk("shard"+strconv.Itoa(i), size)
	}
	return r
}

// SetNode names the recorder's node in dump headers (an address, a
// role) so merged timelines attribute events. Must be one token.
func (r *Recorder) SetNode(name string) {
	if r == nil || strings.ContainsAny(name, " \t\n") || name == "" {
		return
	}
	r.nodeMu.Lock()
	r.node = name
	r.nodeMu.Unlock()
}

// Node returns the node name ("node" until SetNode).
func (r *Recorder) Node() string {
	if r == nil {
		return "node"
	}
	r.nodeMu.Lock()
	defer r.nodeMu.Unlock()
	return r.node
}

// Server returns the per-request lifecycle ring.
func (r *Recorder) Server() *Ring {
	if r == nil {
		return nil
	}
	return r.server
}

// Admission returns the shed-decision ring.
func (r *Recorder) Admission() *Ring {
	if r == nil {
		return nil
	}
	return r.admission
}

// Repl returns the replication ring.
func (r *Recorder) Repl() *Ring {
	if r == nil {
		return nil
	}
	return r.repl
}

// Shard returns shard i's durability ring (nil when out of range).
func (r *Recorder) Shard(i int) *Ring {
	if r == nil || i < 0 || i >= len(r.shards) {
		return nil
	}
	return r.shards[i]
}

// Snapshot merges every ring's retained events into one slice ordered
// by sequence.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var all []Event
	all = append(all, r.server.snapshot()...)
	all = append(all, r.admission.snapshot()...)
	all = append(all, r.repl.snapshot()...)
	for _, g := range r.shards {
		all = append(all, g.snapshot()...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all
}

// Line renders one event in the dump line format (no trailing newline):
//
//	<seq> <at> <ring> <name> txn=<id> shard=<n> epoch=<n>
func (e Event) Line() string {
	return fmt.Sprintf("%d %d %s %s txn=%d shard=%d epoch=%d",
		e.Seq, e.At, e.Ring, e.Name, e.Txn, e.Shard, e.Epoch)
}

// WriteTo writes a full dump: one header line
//
//	scc-flight/v1 node=<node> reason=<reason> at=<unixnano> events=<n>
//
// then one Line per event in sequence order.
func (r *Recorder) WriteTo(w io.Writer, reason string) error {
	events := r.Snapshot()
	if _, err := fmt.Fprintf(w, "scc-flight/v1 node=%s reason=%s at=%d events=%d\n",
		r.Node(), reason, time.Now().UnixNano(), len(events)); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := io.WriteString(w, e.Line()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// DumpDir writes a dump file <dir>/<unixnano>-<reason>.events (creating
// dir) and returns its path. Failure paths call this with the process
// about to die, so it does its best and reports rather than panics.
func (r *Recorder) DumpDir(dir, reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%d-%s.events", time.Now().UnixNano(), reason))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.WriteTo(f, reason); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Dump is one parsed dump file.
type Dump struct {
	Node   string
	Reason string
	At     int64
	Events []Event
}

// ParseDump reads one dump in the WriteTo format.
func ParseDump(rd io.Reader) (Dump, error) {
	var d Dump
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return d, err
		}
		return d, fmt.Errorf("flight: empty dump")
	}
	header := strings.Fields(sc.Text())
	if len(header) == 0 || header[0] != "scc-flight/v1" {
		return d, fmt.Errorf("flight: not a scc-flight/v1 dump: %q", sc.Text())
	}
	for _, f := range header[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "node":
			d.Node = v
		case "reason":
			d.Reason = v
		case "at":
			d.At, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := parseEventLine(line)
		if err != nil {
			return d, err
		}
		d.Events = append(d.Events, e)
	}
	return d, sc.Err()
}

func parseEventLine(line string) (Event, error) {
	var e Event
	fields := strings.Fields(line)
	if len(fields) != 7 {
		return e, fmt.Errorf("flight: malformed event line %q", line)
	}
	var err error
	if e.Seq, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return e, fmt.Errorf("flight: bad seq in %q", line)
	}
	if e.At, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return e, fmt.Errorf("flight: bad timestamp in %q", line)
	}
	e.Ring, e.Name = fields[2], fields[3]
	for i, want := range []string{"txn=", "shard=", "epoch="} {
		v, ok := strings.CutPrefix(fields[4+i], want)
		if !ok {
			return e, fmt.Errorf("flight: missing %s in %q", want, line)
		}
		switch i {
		case 0:
			if e.Txn, err = strconv.ParseUint(v, 10, 64); err != nil {
				return e, fmt.Errorf("flight: bad txn in %q", line)
			}
		case 1:
			if e.Shard, err = strconv.Atoi(v); err != nil {
				return e, fmt.Errorf("flight: bad shard in %q", line)
			}
		case 2:
			if e.Epoch, err = strconv.ParseUint(v, 10, 64); err != nil {
				return e, fmt.Errorf("flight: bad epoch in %q", line)
			}
		}
	}
	return e, nil
}

// ParseDumpFile reads and parses one dump file.
func ParseDumpFile(path string) (Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return Dump{}, err
	}
	defer f.Close()
	d, err := ParseDump(f)
	if err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// mergedEvent is one event attributed to its dump's node.
type mergedEvent struct {
	node string
	ev   Event
}

// MergeTimeline joins dumps (from the primary and any replicas, or from
// before and after a restart) into one textual causal timeline, grouped
// by commit epoch: for each epoch seen in any dump, the events carrying
// it print in wall-clock order — lifecycle stages, the WAL error that
// failed it, replica apply. Events with no epoch are summarized, not
// listed (the rings hold thousands; the epoch-joined view is the
// post-mortem's spine).
func MergeTimeline(dumps []Dump, w io.Writer) error {
	byEpoch := make(map[uint64][]mergedEvent)
	unepoched := 0
	for _, d := range dumps {
		node := d.Node
		if node == "" {
			node = "node"
		}
		if _, err := fmt.Fprintf(w, "dump node=%s reason=%s events=%d\n",
			node, d.Reason, len(d.Events)); err != nil {
			return err
		}
		for _, e := range d.Events {
			if e.Epoch == 0 {
				unepoched++
				continue
			}
			byEpoch[e.Epoch] = append(byEpoch[e.Epoch], mergedEvent{node: node, ev: e})
		}
	}
	epochs := make([]uint64, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	if _, err := fmt.Fprintf(w, "epochs=%d unepoched_events=%d\n", len(epochs), unepoched); err != nil {
		return err
	}
	for _, epoch := range epochs {
		evs := byEpoch[epoch]
		sort.Slice(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			if a.ev.At != b.ev.At {
				return a.ev.At < b.ev.At
			}
			if a.node != b.node {
				return a.node < b.node
			}
			return a.ev.Seq < b.ev.Seq
		})
		if _, err := fmt.Fprintf(w, "epoch %d\n", epoch); err != nil {
			return err
		}
		t0 := evs[0].ev.At
		for _, me := range evs {
			if _, err := fmt.Fprintf(w, "  +%-9s %-12s %-18s shard=%d txn=%d seq=%d\n",
				time.Duration(me.ev.At-t0).Round(time.Microsecond), me.node, me.ev.Name,
				me.ev.Shard, me.ev.Txn, me.ev.Seq); err != nil {
				return err
			}
		}
	}
	return nil
}
