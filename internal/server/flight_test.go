// Flight-recorder surfaces: EVENTS wire framing, the always-on feed
// (events appear without trace=1), and event-name doc conformance —
// every name the recorder can emit is normative in docs/PROTOCOL.md and
// every documented name is one the code can emit.
package server

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	obspkg "repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/server/client"
)

// canonicalEventNames is the full vocabulary the flight recorder emits:
// lifecycle stages (fed through traces) plus the durability, recovery,
// and replication events recorded directly.
func canonicalEventNames() []string {
	return []string{
		obspkg.StageEnqueue, obspkg.StageAdmit, obspkg.StageFork, obspkg.StagePark,
		obspkg.StageResume, obspkg.StagePromotion, obspkg.StageRestart, obspkg.StageDefer,
		obspkg.StageDeferred, obspkg.StageInstall, obspkg.StageCommit, obspkg.StageAbort,
		obspkg.StageShed, obspkg.StageReap,
		flight.EvFsync, flight.EvFsyncError, flight.EvWalError, flight.EvIntent,
		flight.EvDecision, flight.EvCheckpoint, flight.EvReconcileDiscard,
		flight.EvReplApply, flight.EvReplShed,
		flight.EvPromote, flight.EvDemote, flight.EvFenceReject,
	}
}

// TestEventsWireFraming exercises the verb raw: bare EVENTS answers
// OK <n> plus exactly n parsable event lines and leaves the connection
// usable; a cap caps it; bad args and REQ framing are refused.
func TestEventsWireFraming(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	// trace=1 requests always record their lifecycle.
	for i := 0; i < 8; i++ {
		if _, err := c.Update([]client.Op{{Key: fmt.Sprintf("f%d", i), Delta: 1, Write: true}},
			client.TxOpts{Trace: true}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	readLine := func() string {
		t.Helper()
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(line, "\r\n")
	}

	fmt.Fprintf(conn, "EVENTS\n")
	header := readLine()
	var n int
	if _, err := fmt.Sscanf(header, "OK %d", &n); err != nil || n <= 0 {
		t.Fatalf("EVENTS header = %q (always-on recorder should have events)", header)
	}
	for i := 0; i < n; i++ {
		line := readLine()
		fields := strings.Fields(line)
		if len(fields) != 7 || !strings.HasPrefix(fields[4], "txn=") ||
			!strings.HasPrefix(fields[5], "shard=") || !strings.HasPrefix(fields[6], "epoch=") {
			t.Fatalf("malformed event line %q", line)
		}
	}
	fmt.Fprintf(conn, "PING\n")
	if got := readLine(); got != "OK pong" {
		t.Fatalf("connection desynced after EVENTS: PING -> %q", got)
	}

	fmt.Fprintf(conn, "EVENTS 3\n")
	header = readLine()
	if _, err := fmt.Sscanf(header, "OK %d", &n); err != nil || n <= 0 || n > 3 {
		t.Fatalf("EVENTS 3 header = %q, want OK n with 0 < n <= 3", header)
	}
	for i := 0; i < n; i++ {
		readLine()
	}

	fmt.Fprintf(conn, "EVENTS nope\n")
	if got := readLine(); !strings.HasPrefix(got, "ERR ") {
		t.Fatalf("EVENTS nope -> %q, want ERR", got)
	}
	fmt.Fprintf(conn, "REQ 9 EVENTS\n")
	if got := readLine(); !strings.HasPrefix(got, "RES 9 ERR EVENTS requires bare framing") {
		t.Fatalf("REQ-framed EVENTS -> %q", got)
	}
}

// TestClientEvents reads the verb the way a client program would — a
// dedicated bare-framed connection beside its Mux — and checks the
// events cover a traced request's lifecycle.
func TestClientEvents(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Update([]client.Op{{Key: "ce", Delta: 1, Write: true}},
		client.TxOpts{Value: 1, Deadline: time.Minute, Trace: true}); err != nil {
		t.Fatal(err)
	}
	lines, err := bareMultiLine(addr, "EVENTS")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, stage := range []string{obspkg.StageAdmit, obspkg.StageInstall, obspkg.StageCommit} {
		if !strings.Contains(joined, " "+stage+" ") {
			t.Errorf("event journal is missing the traced request's stage %q:\n%s", stage, joined)
		}
	}
	capped, err := bareMultiLine(addr, "EVENTS 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) > 2 {
		t.Errorf("EVENTS 2 returned %d lines", len(capped))
	}
}

// TestFlightSampling pins the lifecycle sampling contract: at the
// 1-in-flightSample rate a single untraced request records no stage
// stamps, a trace=1 request always records regardless of its sample
// slot, and N untraced requests land at least one full lifecycle in
// the ring.
func TestFlightSampling(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	update := func(traced bool) {
		t.Helper()
		o := client.TxOpts{Value: 1, Deadline: time.Minute, Trace: traced}
		if _, err := c.Update([]client.Op{{Key: "fs", Delta: 1, Write: true}}, o); err != nil {
			t.Fatal(err)
		}
	}
	stageLines := func() int {
		t.Helper()
		lines, err := bareMultiLine(addr, "EVENTS")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, l := range lines {
			if strings.Contains(l, " "+obspkg.StageCommit+" ") {
				n++
			}
		}
		return n
	}

	update(false) // request id 1: not on the default sample grid
	if got := stageLines(); got != 0 {
		t.Fatalf("single untraced request recorded %d commit stamps, want 0 (sampled out)", got)
	}
	update(true) // trace=1 bypasses sampling
	if got := stageLines(); got != 1 {
		t.Fatalf("traced request recorded %d commit stamps, want exactly 1", got)
	}
	for i := 0; i < flightSample; i++ {
		update(false) // one of these ids is ≡ 0 mod the sample rate
	}
	if got := stageLines(); got != 2 {
		t.Fatalf("%d untraced requests recorded %d commit stamps, want exactly 2 (one sampled)",
			flightSample, got)
	}
}

// TestEventNameConformance cross-checks the event vocabulary against
// docs/PROTOCOL.md's event-name table in both directions.
func TestEventNameConformance(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(doc), "### Event names")
	if !found {
		t.Fatal("docs/PROTOCOL.md lost its Event names section")
	}
	if i := strings.Index(section, "\n#"); i >= 0 { // next heading of any level
		section = section[:i]
	}
	fieldNames := map[string]bool{"seq": true, "txn": true, "shard": true, "epoch": true}
	documented := make(map[string]bool)
	for _, m := range regexp.MustCompile("`([a-z][a-z0-9_]*)`").FindAllStringSubmatch(section, -1) {
		if !fieldNames[m[1]] { // event-line field names, not event names
			documented[m[1]] = true
		}
	}
	known := make(map[string]bool)
	for _, name := range canonicalEventNames() {
		known[name] = true
		if !documented[name] {
			t.Errorf("event %q can be emitted but is absent from the Event names table", name)
		}
	}
	for name := range documented {
		if !known[name] {
			t.Errorf("Event names table documents %q, which nothing emits", name)
		}
	}
}
