// The transport. A Mux shares one TCP connection between any number of
// goroutines: every request is sent as "REQ <id> <verb> ..." without
// waiting for earlier responses, and a reader goroutine matches each
// "RES <id> ..." line back to its caller. A lone caller's frame is
// flushed at once, so one goroutine on a Mux makes ordinary blocking
// round trips; many goroutines stream requests and responses without a
// round trip each, and share write syscalls: a Batch is one write for its
// whole burst, and one flush rule (Mux.write) lets every caller that is
// runnable at the same instant — Batch or single request alike — ride
// one write(2) together.

package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrClosed is returned by Mux calls after Close.
var ErrClosed = errors.New("client: mux closed")

// Mux is the protocol client. All methods are safe for concurrent use
// from any number of goroutines; requests multiplex onto one connection
// in flight order and responses are correlated by id, so slow requests
// never head-of-line block fast ones issued after them.
type Mux struct {
	conn net.Conn

	wmu  sync.Mutex // guards w and owed
	w    *bufio.Writer
	owed bool // a caller has taken on flushing w and has not done so yet (see write)

	mu      sync.Mutex
	pending map[uint64]chan resp
	nextID  uint64
	err     error         // first connection-level failure, sticky
	done    chan struct{} // closed when err is set
}

// resp is one routed response: its body and arrival time (stamped in the
// read loop, so per-request latency stays meaningful even when responses
// are collected later, as Batch does).
type resp struct {
	body string
	at   time.Time
}

// DialMux connects a pipelined client to a sccserve instance.
func DialMux(addr string) (*Mux, error) {
	return DialMuxTimeout(addr, 0)
}

// DialMuxTimeout is DialMux bounded by a connect timeout (0 = none).
func DialMuxTimeout(addr string, timeout time.Duration) (*Mux, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return newMux(conn), nil
}

// newMux starts a Mux (and its read loop) over an established connection.
func newMux(conn net.Conn) *Mux {
	m := &Mux{
		conn:    conn,
		w:       bufio.NewWriter(conn),
		pending: make(map[uint64]chan resp),
		done:    make(chan struct{}),
	}
	go m.readLoop()
	return m
}

// Close tears down the connection; in-flight and future calls return
// ErrClosed (or the earlier connection error if one already occurred).
func (m *Mux) Close() error {
	m.fail(ErrClosed)
	return m.conn.Close()
}

// fail records the first connection-level error, wakes every waiter, and
// drops the pending table. Later calls keep the first error.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return
	}
	m.err = err
	m.pending = nil
	close(m.done)
}

// readLoop routes RES lines to their waiting callers until the
// connection dies or desyncs.
func (m *Mux) readLoop() {
	r := bufio.NewReaderSize(m.conn, 64*1024)
	for {
		raw, err := r.ReadString('\n')
		if err != nil {
			m.fail(fmt.Errorf("client: connection lost: %w", err))
			m.conn.Close()
			return
		}
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		now := time.Now()
		id, body, ok := splitRes(line)
		if !ok {
			// A bare (un-framed) line on a pipelined connection is a
			// connection-level server diagnostic — e.g. the oversized-line
			// error sent just before a close. Surface it as the failure
			// instead of burying it under "malformed response".
			if strings.HasPrefix(line, "ERR") {
				m.fail(errors.New("client: server closed the stream: " +
					strings.TrimSpace(strings.TrimPrefix(line, "ERR"))))
			} else {
				m.fail(fmt.Errorf("client: malformed pipelined response %q", line))
			}
			m.conn.Close()
			return
		}
		m.mu.Lock()
		ch := m.pending[id]
		delete(m.pending, id)
		m.mu.Unlock()
		if ch == nil {
			// A RES for an id we never sent (or already completed)
			// means the streams have desynced; nothing on this
			// connection can be trusted any more.
			m.fail(fmt.Errorf("client: response for unknown request id %d", id))
			m.conn.Close()
			return
		}
		ch <- resp{body: body, at: now}
	}
}

// splitRes parses "RES <id> <body...>".
func splitRes(line string) (uint64, string, bool) {
	rest, ok := strings.CutPrefix(line, "RES ")
	if !ok {
		return 0, "", false
	}
	i := strings.IndexByte(rest, ' ')
	if i <= 0 {
		return 0, "", false
	}
	id, err := strconv.ParseUint(rest[:i], 10, 64)
	if err != nil {
		return 0, "", false
	}
	return id, strings.TrimSpace(rest[i+1:]), true
}

// respChans holds response channels whose one response has been
// received, empty and free for the next request of any Mux.
var respChans = sync.Pool{New: func() any { return make(chan resp, 1) }}

// register allocates a request id and its response channel.
func (m *Mux) register() (uint64, chan resp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return 0, nil, m.err
	}
	m.nextID++
	ch := respChans.Get().(chan resp)
	m.pending[m.nextID] = ch
	return m.nextID, ch, nil
}

// await blocks for the response routed to ch, preferring a delivered
// response over a racing connection failure. A channel goes back to
// respChans only once its response has been received: a caller woken by
// the failure leaves its channel out, because the read loop may have
// taken it from the pending table and not yet sent on it.
func (m *Mux) await(ch chan resp) (resp, error) {
	select {
	case r := <-ch:
		respChans.Put(ch)
		return r, nil
	case <-m.done:
		select {
		case r := <-ch:
			respChans.Put(ch)
			return r, nil
		default:
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		return resp{}, m.err
	}
}

// do issues one request line and waits for its response.
func (m *Mux) do(line string) (string, error) {
	return m.call(func(b []byte) []byte { return append(b, line...) })
}

// call issues one pipelined request, whose line appendLine appends to the
// frame's "REQ <id> " head, and waits for its response.
//
// Returning from write does not mean the frame has left the process: it
// may be riding a flush another caller owes (see write). Should that flush
// fail, fail wakes this caller's await with the error.
func (m *Mux) call(appendLine func([]byte) []byte) (string, error) {
	id, ch, err := m.register()
	if err != nil {
		return "", err
	}
	if err := m.write(append(appendLine(appendReq(make([]byte, 0, 128), id)), '\n')); err != nil {
		return "", err
	}
	r, err := m.await(ch)
	return r.body, err
}

// appendReq appends a frame's head, "REQ <id> ", to b.
func appendReq(b []byte, id uint64) []byte {
	return append(strconv.AppendUint(append(b, "REQ "...), id, 10), ' ')
}

// write is the one path onto the connection. The caller appends its
// already encoded frames to the shared buffer; then, if no flush is owed,
// it owes one — it lets go of the buffer, yields the processor once, and
// flushes whatever has been appended by then. A caller that appends while
// a flush is owed just returns and rides it: the owner clears owed under
// the same lock hold as its Flush, so a frame is either in the buffer that
// Flush drains or its caller saw owed false and flushes itself — none is
// stranded. The yield is what makes callers share: everything runnable at
// that instant appends before the owner runs again, so a burst of
// goroutines costs one write(2), while a lone caller pays an empty yield
// and flushes at once. No clock, no size threshold.
//
// An owner's failed flush is returned to it and, through fail, to the
// await of every caller whose frames rode it.
func (m *Mux) write(frames []byte) error {
	m.wmu.Lock()
	_, err := m.w.Write(frames)
	if err == nil && !m.owed {
		m.owed = true
		m.wmu.Unlock()
		runtime.Gosched()
		m.wmu.Lock()
		m.owed = false
		err = m.w.Flush()
	}
	m.wmu.Unlock()
	if err != nil {
		m.fail(fmt.Errorf("client: write failed: %w", err))
	}
	return err
}

// UpdateReq is one transactional update of a Batch.
type UpdateReq struct {
	Ops  []Op
	Opts TxOpts
}

// UpdateResult is the outcome of one Batch entry.
type UpdateResult struct {
	Results []int64 // new value of each write op, in op order
	Err     error
	// Trace is the lifecycle trace the verdict carried ("" unless the
	// entry's TxOpts.Trace was set and it committed): "stage:ns" pairs,
	// comma-separated, offsets from submit.
	Trace string
	// Elapsed is the entry's own request/response time: from this
	// entry's encoding into the burst to the arrival of its RES line
	// (stamped in the read loop, not when the caller got around to
	// collecting it) — so later batch entries are not charged for the
	// serialization of earlier ones. Zero when the entry failed before
	// reaching the wire.
	Elapsed time.Duration
}

// Batch streams every update in one write burst — a single flush for the
// whole slice, shared with whichever other callers are writing at that
// instant — then collects all responses. Slot i of the result
// corresponds to reqs[i]; one failing entry (bad key, SHED, conflict
// error) does not abort the others. The server dispatches pipelined
// requests concurrently, so entries of one batch execute in no
// particular order relative to each other — each is individually
// serializable, but entries with data dependencies between them belong
// in one entry's op list, not in separate entries. This is the
// lowest-overhead way to drive the server: n transactions cost at most
// one writev-sized syscall out and however few reads the kernel
// coalesces back.
func (m *Mux) Batch(reqs []UpdateReq) []UpdateResult {
	out := make([]UpdateResult, len(reqs))
	type inflight struct {
		ch     chan resp
		writes int
		sent   time.Time
	}
	pend := make([]inflight, len(reqs))

	var frames []byte
	for i, r := range reqs {
		writes, err := checkOps(r.Ops)
		if err != nil {
			out[i].Err = err
			continue
		}
		id, ch, err := m.register()
		if err != nil {
			out[i].Err = err
			continue
		}
		frames = appendUpdate(frames, id, r.Ops, r.Opts)
		pend[i] = inflight{ch: ch, writes: writes, sent: time.Now()}
	}
	if len(frames) > 0 {
		// A failed write needs no handling here: write has called fail,
		// which resolves every registered entry's await below.
		_ = m.write(frames)
	}

	for i := range pend {
		if pend[i].ch == nil {
			continue
		}
		r, err := m.await(pend[i].ch)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Elapsed = r.at.Sub(pend[i].sent)
		body, err := parse(r.body)
		if err != nil {
			out[i].Err = err
			continue
		}
		body, out[i].Trace = cutTrace(body)
		out[i].Results, out[i].Err = parseUpdateResults(body, pend[i].writes)
	}
	return out
}
