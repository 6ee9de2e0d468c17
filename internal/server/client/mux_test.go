// Tests of the Mux against a scripted peer: its write path, its key
// checks and its reply parsing. The flush rule (Mux.write) is an
// ownership protocol, and a mistake in one is a hang — a frame that sits
// in the buffer with nobody owing its flush — not a slowdown, so these
// tests count frames and Write calls at the peer rather than trusting
// that a round trip "usually works".
package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wire is the peer end of a Mux under test: it records every byte and
// every Write call, answers each complete request frame (PING with "OK
// pong", anything else with "OK 1"), and can be told to fail writes.
type wire struct {
	net.Conn // nil: the Mux only reaches Read, Write and Close

	mu       sync.Mutex
	cond     *sync.Cond
	writes   int    // Write calls
	got      []byte // every byte written, in order
	answered int    // got[:answered] has been replied to
	replies  []byte // RES lines the Mux has not read yet
	failWith error  // when set, Write fails with it
	closed   bool
}

func newWire() *wire {
	w := &wire{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *wire) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	if w.failWith != nil {
		return 0, w.failWith
	}
	w.got = append(w.got, p...)
	for {
		nl := bytes.IndexByte(w.got[w.answered:], '\n')
		if nl < 0 {
			break
		}
		fields := strings.Fields(string(w.got[w.answered : w.answered+nl]))
		w.answered += nl + 1
		if len(fields) < 3 || fields[0] != "REQ" {
			continue // the tests' frame check reports it
		}
		body := "OK 1"
		if fields[2] == "PING" {
			body = "OK pong"
		}
		w.replies = append(w.replies, "RES "+fields[1]+" "+body+"\n"...)
	}
	w.cond.Broadcast()
	return len(p), nil
}

func (w *wire) Read(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.replies) == 0 && !w.closed {
		w.cond.Wait()
	}
	if len(w.replies) == 0 {
		return 0, io.EOF
	}
	n := copy(p, w.replies)
	w.replies = w.replies[n:]
	return n, nil
}

func (w *wire) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	w.cond.Broadcast()
	return nil
}

func (w *wire) writeCalls() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes
}

var frameRE = regexp.MustCompile(`^REQ (\d+) (PING|UPD .+)$`)

// checkDelivered is the never-strands-a-frame predicate: the peer holds
// exactly want whole frames — none torn, interleaved or repeated — and
// nothing is left in the Mux's buffer.
func checkDelivered(t *testing.T, m *Mux, w *wire, want int) {
	t.Helper()
	m.wmu.Lock()
	buffered, owed := m.w.Buffered(), m.owed
	m.wmu.Unlock()
	if buffered != 0 || owed {
		t.Errorf("after every caller returned: %d bytes still buffered, owed=%v", buffered, owed)
	}
	w.mu.Lock()
	got := string(w.got)
	w.mu.Unlock()
	lines := strings.Split(got, "\n")
	if last := lines[len(lines)-1]; last != "" {
		t.Errorf("peer's stream ends mid-frame: %q", last)
	}
	lines = lines[:len(lines)-1]
	if len(lines) != want {
		t.Errorf("peer received %d frames, want %d", len(lines), want)
	}
	seen := make(map[string]bool)
	for _, l := range lines {
		f := frameRE.FindStringSubmatch(l)
		if f == nil {
			t.Errorf("torn or malformed frame %q", l)
			continue
		}
		if seen[f[1]] {
			t.Errorf("request id %s on the wire twice", f[1])
		}
		seen[f[1]] = true
	}
}

// burst releases k goroutines from a barrier, each running call(i), waits
// for all of them and reports their errors. A caller that never returns
// fails the test instead of hanging it (and whatever it returns once the
// test's deferred Close wakes it is dropped, not reported to a finished
// test).
func burst(t *testing.T, k int, call func(i int) error) {
	t.Helper()
	var ready sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		ready.Add(1)
		go func(i int) {
			ready.Done()
			<-start
			errs <- call(i)
		}(i)
	}
	ready.Wait()
	close(start)
	timeout := time.After(10 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-timeout:
			t.Fatalf("%d of %d callers still blocked after 10s: a frame was stranded or a failure never reached its waiter", k-i, k)
		}
	}
}

// eachProcs runs f with one P (every hand-over is a yield) and with more
// Ps than a small CI box has cores (the OS preempts between critical
// sections).
func eachProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// sendOne registers and writes one PING without waiting for its reply:
// what is under test is the state of the wire once write has returned.
func sendOne(m *Mux) error {
	id, _, err := m.register()
	if err != nil {
		return err
	}
	return writePing(m, id)
}

// writePing writes request id's PING frame.
func writePing(m *Mux, id uint64) error {
	return m.write(append(appendReq(nil, id), "PING\n"...))
}

func TestMuxNeverStrandsAFrame(t *testing.T) {
	eachProcs(t, func(t *testing.T) {
		const k, rounds = 16, 200
		w := newWire()
		m := newMux(w)
		defer m.Close()
		for r := 1; r <= rounds && !t.Failed(); r++ {
			burst(t, k, func(int) error { return sendOne(m) })
			checkDelivered(t, m, w, r*k)
		}
	})
}

func TestMuxCoalescesConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const k = 32
	w := newWire()
	m := newMux(w)
	defer m.Close()
	burst(t, k, func(int) error { return sendOne(m) })
	checkDelivered(t, m, w, k)
	if n := w.writeCalls(); n > k/2 {
		t.Errorf("%d callers runnable at once cost %d Write calls, want at most %d (the owner's yield should let them share one)", k, n, k/2)
	}
}

// TestMuxLoneCallerFlushesAtOnce: with nobody to share with, the rule
// costs one empty yield, not a wait for another goroutine.
func TestMuxLoneCallerFlushesAtOnce(t *testing.T) {
	w := newWire()
	m := newMux(w)
	defer m.Close()
	if err := sendOne(m); err != nil {
		t.Fatal(err)
	}
	checkDelivered(t, m, w, 1)
	if n := w.writeCalls(); n != 1 {
		t.Errorf("one request cost %d Write calls, want 1", n)
	}
}

// TestMuxWriteFailureReachesEveryCaller: the flush's owner returns the
// error, and a follower — whose send returned nil because its frame was
// riding that flush — gets it from await. Nobody blocks.
func TestMuxWriteFailureReachesEveryCaller(t *testing.T) {
	eachProcs(t, func(t *testing.T) {
		const k = 16
		boom := errors.New("boom")
		w := newWire()
		w.failWith = boom
		m := newMux(w)
		defer m.Close()
		var fromSend atomic.Int32
		burst(t, k, func(i int) error {
			id, ch, err := m.register()
			if err == nil {
				if err = writePing(m, id); err != nil {
					fromSend.Add(1)
				} else {
					_, err = m.await(ch)
				}
			}
			if !errors.Is(err, boom) {
				return fmt.Errorf("caller %d: err = %v, want the connection's write error", i, err)
			}
			return nil
		})
		if fromSend.Load() == 0 {
			t.Error("no send returned the write error: the flush's owner must")
		}
	})
}

func TestMuxSendAndBatchShareTheWire(t *testing.T) {
	eachProcs(t, func(t *testing.T) {
		const k, rounds, perBatch = 16, 50, 3
		w := newWire()
		m := newMux(w)
		defer m.Close()
		reqs := make([]UpdateReq, perBatch)
		for i := range reqs {
			reqs[i] = UpdateReq{Ops: []Op{{Key: fmt.Sprintf("k%d", i), Delta: 1, Write: true}}}
		}
		for r := 1; r <= rounds && !t.Failed(); r++ {
			burst(t, k, func(i int) error {
				if i%2 == 0 {
					return m.Ping()
				}
				for _, res := range m.Batch(reqs) {
					if res.Err != nil || len(res.Results) != 1 {
						return fmt.Errorf("batch entry = %+v", res)
					}
				}
				return nil
			})
			checkDelivered(t, m, w, r*(k/2+perBatch*k/2))
		}
	})
}

// TestInvalidKeysNeverReachTheWire: the server tokenises request lines
// with strings.Fields, so a key holding any rune it splits on would
// arrive as two keys (SUM "a\tb" would answer for a and b). Every
// key-taking call refuses such a key before a frame is written.
func TestInvalidKeysNeverReachTheWire(t *testing.T) {
	w := newWire()
	m := newMux(w)
	defer m.Close()
	tx := &Txn{m: m, id: "1-0000000000000000"}
	write := func(key string) []Op { return []Op{{Key: key, Delta: 1, Write: true}} }
	calls := map[string]func(key string) error{
		"Get":         func(k string) error { _, _, err := m.Get(k); return err },
		"Add":         func(k string) error { _, err := m.Add(k, 1); return err },
		"Sum":         func(k string) error { _, err := m.Sum("ok", k); return err },
		"Update":      func(k string) error { _, err := m.Update(write(k), TxOpts{}); return err },
		"Update read": func(k string) error { _, err := m.Update([]Op{{Key: k}}, TxOpts{}); return err },
		"Batch":       func(k string) error { return m.Batch([]UpdateReq{{Ops: write(k)}})[0].Err },
		"Txn.Get":     func(k string) error { _, err := tx.Get(k); return err },
		"Txn.Add":     func(k string) error { _, err := tx.Add(k, 1); return err },
	}
	for _, sep := range []string{"\t", "\r", "\v", "\f", "\u0085", "\u00a0", " ", "\n", ":"} {
		key := "a" + sep + "b"
		for name, call := range calls {
			if err := call(key); err == nil || !strings.Contains(err.Error(), "invalid key") {
				t.Errorf("%s(%q): err = %v, want invalid key", name, key, err)
			}
		}
	}
	if n := w.writeCalls(); n != 0 {
		t.Errorf("invalid keys cost %d Write calls, want 0", n)
	}
}

// TestParseNotPrimary: a not-primary refusal surfaces as a
// *NotPrimaryError whose Addr is the redirect ("-" meaning none known),
// and whose text names it, so a caller that only logs the error still
// says where the primary is.
func TestParseNotPrimary(t *testing.T) {
	for _, c := range []struct {
		resp, addr, text string
	}{
		{"ERR not-primary -", "", "client: not primary (no known primary)"},
		{"ERR not-primary 10.0.0.7:7070", "10.0.0.7:7070", "client: not primary, redirect to 10.0.0.7:7070"},
	} {
		_, err := parse(c.resp)
		var np *NotPrimaryError
		if !errors.As(err, &np) {
			t.Fatalf("parse(%q) = %v, want a *NotPrimaryError", c.resp, err)
		}
		if np.Addr != c.addr || err.Error() != c.text {
			t.Errorf("parse(%q): Addr %q, text %q; want %q, %q", c.resp, np.Addr, err.Error(), c.addr, c.text)
		}
	}
}
