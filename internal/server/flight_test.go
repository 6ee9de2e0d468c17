// Flight-recorder surfaces: the /debug/events dump format, the always-on feed
// (events appear without trace=1), and event-name doc conformance —
// every name the recorder can emit is normative in docs/PROTOCOL.md and
// every documented name is one the code can emit.
package server

import (
	"fmt"
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
		obspkg.StageInstall, obspkg.StageCommit,
		flight.EvFsync, flight.EvFsyncError, flight.EvWalError,
		flight.EvReplApply, flight.EvReplShed,
		flight.EvPromote, flight.EvDemote, flight.EvFenceReject,
	}
}

// TestEventsWireFraming checks the body GET /debug/events serves
// (Flight().WriteTo, the same format the fault paths dump): one
// scc-flight/v1 header, then one seven-field line per retained event,
// which ParseDump reads back whole.
func TestEventsWireFraming(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2})
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

	var b strings.Builder
	if err := srv.Flight().WriteTo(&b, "http"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if !strings.HasPrefix(lines[0], "scc-flight/v1 node=") || !strings.Contains(lines[0], " reason=http ") {
		t.Fatalf("dump header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		fields := strings.Fields(line)
		if len(fields) != 7 || !strings.HasPrefix(fields[4], "txn=") ||
			!strings.HasPrefix(fields[5], "shard=") || !strings.HasPrefix(fields[6], "epoch=") {
			t.Fatalf("malformed event line %q", line)
		}
	}
	d, err := flight.ParseDump(strings.NewReader(b.String()))
	if err != nil || len(d.Events) != len(lines)-1 || len(d.Events) == 0 {
		t.Fatalf("ParseDump read %d of %d events: %v", len(d.Events), len(lines)-1, err)
	}
}

// TestClientEvents checks that the recorder's merged snapshot covers a
// traced request's lifecycle.
func TestClientEvents(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2})
	c, err := client.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Update([]client.Op{{Key: "ce", Delta: 1, Write: true}},
		client.TxOpts{Value: 1, Deadline: time.Minute, Trace: true}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range srv.Flight().Snapshot() {
		seen[e.Name] = true
	}
	for _, stage := range []string{obspkg.StageAdmit, obspkg.StageInstall, obspkg.StageCommit} {
		if !seen[stage] {
			t.Errorf("event journal is missing the traced request's stage %q", stage)
		}
	}
}

// TestFlightSampling pins the lifecycle sampling contract: at the
// 1-in-flightSample rate a single untraced request records no stage
// stamps, a trace=1 request always records regardless of its sample
// slot, and N untraced requests land at least one full lifecycle in
// the ring.
func TestFlightSampling(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2})
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
		n := 0
		for _, e := range srv.Flight().Snapshot() {
			if e.Name == obspkg.StageCommit {
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

// TestRequestIDsPerConnection: each connection numbers its own valued
// requests, so 8 untraced UPDs on each of two connections sample exactly
// one lifecycle per connection, under ids that differ in their
// connection bits, and dispatchLine's own connection collides with
// neither.
func TestRequestIDsPerConnection(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2})
	commits := func() map[uint64]bool {
		ids := make(map[uint64]bool)
		for _, e := range srv.Flight().Snapshot() {
			if e.Name == obspkg.StageCommit {
				ids[e.Txn] = true
			}
		}
		return ids
	}
	for _, rc := range []*rawConn{dialRaw(t, addr), dialRaw(t, addr)} {
		for i := 1; i <= flightSample; i++ {
			rc.send("UPD w:k:1")
			if got := rc.recv(); !strings.HasPrefix(got, "OK") {
				t.Fatalf("UPD = %q", got)
			}
		}
	}
	ids := commits()
	conns := make(map[uint64]bool)
	for id := range ids {
		conns[id>>connIDBits] = true
	}
	if len(ids) != 2 || len(conns) != 2 {
		t.Fatalf("two connections' %d UPDs each sampled ids %v, want one per connection", flightSample, ids)
	}
	for i := 0; i < flightSample; i++ {
		if got := srv.dispatchLine("UPD w:k:1"); !strings.HasPrefix(got, "OK") {
			t.Fatalf("dispatchLine UPD = %q", got)
		}
	}
	if all := commits(); len(all) != 3 {
		t.Fatalf("after %d dispatchLine UPDs the ring holds ids %v, want the connections' %v and one more", flightSample, all, ids)
	}
}

// TestEventNameConformance cross-checks the event vocabulary against
// docs/PROTOCOL.md's event-name table in both directions, and against
// the flight recorder's closed name table.
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
	rec := flight.New(0, len(canonicalEventNames()))
	for _, name := range canonicalEventNames() {
		known[name] = true
		if !documented[name] {
			t.Errorf("event %q can be emitted but is absent from the Event names table", name)
		}
		rec.Server().Record(name, 0, -1, 0)
	}
	// The recorder's vocabulary is closed: a name it lacks records as "?".
	for i, e := range rec.Snapshot() {
		if want := canonicalEventNames()[i]; e.Name != want {
			t.Errorf("event %q records as %q", want, e.Name)
		}
	}
	for name := range documented {
		if !known[name] {
			t.Errorf("Event names table documents %q, which nothing emits", name)
		}
	}
}
