// Protocol conformance suite: drives the wire protocol over a raw TCP
// connection — every verb, malformed input, oversized lines, and the
// REQ/RES pipelined framing mixed with legacy framing on one connection.
package server

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"
)

// rawConn is a line-oriented test connection.
type rawConn struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, r: bufio.NewReader(c)}
}

func (rc *rawConn) send(line string) {
	rc.t.Helper()
	if _, err := fmt.Fprintf(rc.c, "%s\n", line); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawConn) recv() string {
	rc.t.Helper()
	rc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := rc.r.ReadString('\n')
	if err != nil {
		rc.t.Fatalf("read: %v", err)
	}
	return strings.TrimSpace(resp)
}

// TestProtocolConformance covers every verb's happy path and the error
// surface, with exact responses where the protocol pins them down.
func TestProtocolConformance(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4})
	rc := dialRaw(t, addr)

	exact := func(in, want string) {
		t.Helper()
		rc.send(in)
		if got := rc.recv(); got != want {
			t.Errorf("%-40q -> %q, want %q", in, got, want)
		}
	}
	prefix := func(in, want string) {
		t.Helper()
		rc.send(in)
		if got := rc.recv(); !strings.HasPrefix(got, want) {
			t.Errorf("%-40q -> %q, want prefix %q", in, got, want)
		}
	}

	// Happy paths, every verb.
	exact("PING", "OK pong")
	exact("ping", "OK pong") // verbs are case-insensitive
	exact("  PING  ", "OK pong")
	exact("GET nope", "NIL")
	exact("ADD a 5", "OK 5")
	exact("GET a", "OK 5")
	exact("ADD a 2", "OK 7")
	exact("ADD neg -3", "OK -3")
	exact("UPD w:a:3", "OK 10")
	exact("UPD r:a w:b:1", "OK 1")
	exact("UPD v=2 dl=50 grad=0.1 w:a:0", "OK 10")
	exact("UPD v=2 dl=50 w:a:0 w:b:0", "OK 10 1")
	prefix("UPD trace=1 w:a:0", "OK 10 trace=enqueue:") // results, then the timeline
	exact("SUM a b", "OK 11")
	exact("SUM a a", "OK 20") // duplicate keys count twice
	prefix("STATS", "OK shards=4 ")

	// Malformed input: every arm of the error surface.
	for _, bad := range []string{
		"BOGUS",
		"GET",
		"GET a b",
		"ADD a",
		"ADD a x",
		"ADD a 5 6",
		"UPD",
		"UPD v=1",          // value but no ops
		"UPD v=x w:a:1",    // bad float
		"UPD v=NaN w:a:1",  // non-finite value
		"UPD v=+Inf w:a:1", // non-finite value
		"UPD dl=NaN w:a:1",
		"UPD grad=Inf w:a:1",
		"UPD r:",    // empty read key
		"UPD w:a",   // write without delta
		"UPD w::1",  // empty write key
		"UPD w:a:",  // empty delta
		"UPD w:a:x", // bad delta
		"UPD q:a:1", // unknown op tag
		"UPD hello", // bare token
		"SUM",
		// Keys containing ':' are illegal on every verb: they would make
		// w: ops and the replication LOG encoding ambiguous.
		"GET a:b",
		"ADD a:b 1",
		"SUM ok a:b",
		"UPD r:a:b",
		"UPD w:a:b:1",
	} {
		rc.send(bad)
		if got := rc.recv(); !strings.HasPrefix(got, "ERR") {
			t.Errorf("%-30q -> %q, want ERR...", bad, got)
		}
	}

	// Verbs no client or script sent are gone: checkpoints run on the
	// -ckpt-every cadence, telemetry is served over HTTP (/metrics,
	// /debug/events), and a blind write is TXN W <k> =<v>.
	for in, verb := range map[string]string{
		"CKPT": "CKPT", "METRICS": "METRICS", "EVENTS": "EVENTS", "PUT k 1": "PUT",
	} {
		exact(in, "ERR unknown verb "+verb)
		exact("REQ 1 "+in, "RES 1 ERR unknown verb "+verb)
	}

	// tenant= is not an option token: both valued verbs refuse it like
	// any other stray token.
	for _, in := range []string{"UPD tenant=acme w:a:1", "TXN BEGIN tenant=acme"} {
		exact(in, "ERR bad token tenant=acme")
		exact("REQ 1 "+in, "RES 1 ERR bad token tenant=acme")
	}

	// The connection survived the entire error barrage.
	exact("PING", "OK pong")
}

// TestPipelinedFraming exercises REQ/RES framing: id echo (including
// non-numeric ids — the server treats ids as opaque tokens), concurrent
// dispatch, framing errors, and REQ nested inside REQ.
func TestPipelinedFraming(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4})
	rc := dialRaw(t, addr)

	// A burst of pipelined requests sent without reading; responses are
	// correlated by id, order unspecified.
	rc.send("REQ 1 ADD p 10")
	rc.send("REQ 2 ADD q 4")
	rc.send("REQ zebra PING")
	rc.send("REQ 4 GET missing")
	got := map[string]bool{}
	for i := 0; i < 4; i++ {
		got[rc.recv()] = true
	}
	for _, want := range []string{
		"RES 1 OK 10",
		"RES 2 OK 4",
		"RES zebra OK pong",
		"RES 4 NIL",
	} {
		if !got[want] {
			t.Errorf("missing response %q in %v", want, keysOf(got))
		}
	}

	// Framing errors.
	rc.send("REQ")
	if resp := rc.recv(); !strings.HasPrefix(resp, "ERR usage: REQ") {
		t.Errorf("bare REQ -> %q", resp)
	}
	rc.send("REQ 9")
	if resp := rc.recv(); resp != "RES 9 ERR missing verb" {
		t.Errorf("REQ 9 -> %q", resp)
	}
	rc.send("REQ 10 NOSUCH x")
	if resp := rc.recv(); resp != "RES 10 ERR unknown verb NOSUCH" {
		t.Errorf("REQ 10 NOSUCH -> %q", resp)
	}
	// REQ does not nest: the inner REQ is an unknown verb, not a frame.
	rc.send("REQ 11 REQ 12 PING")
	if resp := rc.recv(); resp != "RES 11 ERR unknown verb REQ" {
		t.Errorf("nested REQ -> %q", resp)
	}
}

// TestMixedFraming interleaves legacy and pipelined requests on one
// connection: legacy responses stay in order among themselves, pipelined
// responses correlate by id, and the multiset of responses is exact.
func TestMixedFraming(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4})
	rc := dialRaw(t, addr)

	rc.send("ADD m 1")
	rc.send("REQ a ADD m 1")
	rc.send("PING")
	rc.send("REQ b PING")
	rc.send("SUM m")

	var legacy []string
	got := map[string]bool{}
	for i := 0; i < 5; i++ {
		resp := rc.recv()
		if strings.HasPrefix(resp, "RES ") {
			got[resp] = true
		} else {
			legacy = append(legacy, resp)
		}
	}
	// Legacy responses, in order: ADD, PING, SUM. The ADD commits at
	// some point between its send and its RES, so SUM sees 1 or 2.
	if len(legacy) != 3 || legacy[0] != "OK 1" || legacy[1] != "OK pong" ||
		(legacy[2] != "OK 1" && legacy[2] != "OK 2") {
		t.Errorf("legacy responses = %v", legacy)
	}
	if !got["RES a OK 2"] {
		t.Errorf("pipelined responses = %v, want RES a OK 2", keysOf(got))
	}
	if !got["RES b OK pong"] {
		t.Errorf("pipelined responses = %v, want RES b OK pong", keysOf(got))
	}
}

// TestOversizedLine: a request line past the 1MB scanner bound draws a
// diagnostic and a close, and pipelined requests already in flight still
// get their responses first.
func TestOversizedLine(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	rc := dialRaw(t, addr)

	rc.send("REQ 1 ADD big 1")
	// The write error is ignored: the server stops reading mid-line once
	// the scanner bound trips and may close the connection while this
	// write is still draining.
	huge := strings.Repeat("x", 2<<20)
	rc.c.Write([]byte("GET " + huge + "\n"))

	sawDiag, sawRes := false, false
	for {
		rc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := rc.r.ReadString('\n')
		if err != nil {
			break // server closed the connection after the diagnostic
		}
		switch strings.TrimSpace(resp) {
		case "ERR request line exceeds 1MB":
			sawDiag = true
		case "RES 1 OK 1":
			sawRes = true
		}
	}
	if !sawDiag {
		t.Error("no oversized-line diagnostic before close")
	}
	if !sawRes {
		t.Error("in-flight pipelined response lost on oversized-line close")
	}
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
