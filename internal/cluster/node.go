package cluster

import (
	"bufio"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TopoReply is the parsed payload of a TOPO verb reply. The server
// formats it; the Node parses it from peers; sccload parses it when
// hunting for the primary. Keeping both ends on one struct keeps the
// grammar from drifting.
type TopoReply struct {
	Role      string
	Epoch     uint64
	Primary   string
	Self      string
	Watermark uint64
	Applied   uint64
}

// Format renders the reply line (without the trailing newline):
//
//	OK role=<role> epoch=<n> primary=<addr> self=<addr> watermark=<n> applied=<n>
func (t TopoReply) Format() string {
	primary := t.Primary
	if primary == "" {
		primary = "-"
	}
	return fmt.Sprintf("OK role=%s epoch=%d primary=%s self=%s watermark=%d applied=%d",
		t.Role, t.Epoch, primary, t.Self, t.Watermark, t.Applied)
}

// ParseTopoReply parses a TOPO reply line. Unknown k=v pairs are
// ignored so the grammar can grow.
func ParseTopoReply(line string) (TopoReply, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 2 || fields[0] != "OK" {
		return TopoReply{}, fmt.Errorf("cluster: not a TOPO reply: %q", line)
	}
	var t TopoReply
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "role":
			t.Role = v
		case "epoch":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return TopoReply{}, fmt.Errorf("cluster: bad epoch in TOPO reply %q: %v", line, err)
			}
			t.Epoch = n
		case "primary":
			if v != "-" {
				t.Primary = v
			}
		case "self":
			t.Self = v
		case "watermark":
			t.Watermark, _ = strconv.ParseUint(v, 10, 64)
		case "applied":
			t.Applied, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	if t.Role == "" {
		return TopoReply{}, fmt.Errorf("cluster: TOPO reply missing role: %q", line)
	}
	return t, nil
}

// candidate is one node's election standing.
type candidate struct {
	addr      string
	watermark uint64
	applied   uint64
}

// electLeader ranks candidates by catch-up position — epoch watermark
// first (a replica that has seen a later commit epoch holds strictly
// more history), then applied position, then address ascending as the
// deterministic tiebreak. Replicas of one primary each hold a prefix of
// its one commit order, so the winner holds everything the others hold. Returns the winner's address; "" if the
// slate is empty. Deterministic so every replica running the same
// election over the same slate picks the same winner without a vote.
func electLeader(cands []candidate) string {
	if len(cands) == 0 {
		return ""
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.watermark != best.watermark {
			if c.watermark > best.watermark {
				best = c
			}
			continue
		}
		if c.applied != best.applied {
			if c.applied > best.applied {
				best = c
			}
			continue
		}
		if c.addr < best.addr {
			best = c
		}
	}
	return best.addr
}

// Hooks are the Node's levers into the server. All run on the Node's
// monitor goroutine; they must not call back into the Node.
type Hooks struct {
	// Promote turns this node into the primary under the freshly minted
	// fencing epoch: stop the stream at its applied position, claim the
	// state, install the fenced commit log, and lift the lag gate. An error aborts the takeover (the node stays a replica and
	// re-runs the election after the next lease period).
	Promote func(epoch uint64) error
	// Follow re-points this replica at a newly discovered primary
	// (restart replication from the local position). A failed Follow is
	// retried at the next contact with that primary. Optional.
	Follow func(primary string) error
	// Demote fires when a primary discovers it was deposed by a higher
	// fencing epoch: dump the flight ring, log loudly. The State is
	// already RoleFenced when this runs. Optional.
	Demote func(epoch uint64, primary string)
	// Progress reports this node's catch-up position — its replication
	// stream's epoch watermark and applied position in the primary's
	// commit order — by which elections rank candidates. Optional
	// (zeros).
	Progress func() (watermark, applied uint64)
}

// Config parameterises a Node.
type Config struct {
	State *State
	Hooks Hooks
	// Lease is how long the primary may go unreachable before replicas
	// start an election (default 750ms).
	Lease time.Duration
}

// Node runs the failover monitor for one server: replicas heartbeat
// the primary and elect on lease expiry; primaries probe peers to
// discover their own deposition. Best-effort, non-quorum — see the
// package comment for the exact guarantee.
type Node struct {
	cfg   Config
	state *State
	// The monitor's own view, touched only by Start's boot probe and then
	// by the monitor goroutine: the primary the last successful Follow (or
	// the boot wiring) pointed replication at, and the last successful
	// contact with the primary.
	following string
	seen      time.Time

	closed chan struct{}
	done   chan struct{}
	once   sync.Once
}

// NewNode builds a Node around st, whose boot primary the caller already
// replicates from. Call Start to begin monitoring.
func NewNode(cfg Config) *Node {
	if cfg.Lease <= 0 {
		cfg.Lease = 750 * time.Millisecond
	}
	return &Node{
		cfg:       cfg,
		state:     cfg.State,
		following: cfg.State.Primary(),
		seen:      time.Now(),
		closed:    make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Start performs one synchronous probe round — so a restarted old
// primary discovers a higher fencing epoch before serving a single
// write — then launches the monitor goroutine.
func (n *Node) Start() {
	n.probeRound()
	go n.run()
}

// interval is the probe cadence and the bound on each probe: a third of
// the lease, so a live primary answers several probes per lease.
func (n *Node) interval() time.Duration { return n.cfg.Lease / 3 }

// Close stops the monitor and waits for it to exit.
func (n *Node) Close() {
	n.once.Do(func() { close(n.closed) })
	<-n.done
}

// logf records a monitor diagnostic in the process log.
func logf(format string, args ...any) {
	slog.Info(fmt.Sprintf(format, args...))
}

func (n *Node) run() {
	defer close(n.done)
	tick := time.NewTicker(n.interval())
	defer tick.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-tick.C:
		}
		switch n.state.Role() {
		case RolePrimary:
			n.probeRound()
		case RoleReplica:
			n.heartbeat()
		case RoleFenced:
			// Nothing to monitor: a fenced node only redirects.
		}
	}
}

// probe asks one peer for its topology. Nil error means the peer
// answered a well-formed TOPO reply.
func (n *Node) probe(addr string) (TopoReply, error) {
	conn, err := net.DialTimeout("tcp", addr, n.interval())
	if err != nil {
		return TopoReply{}, err
	}
	defer conn.Close()
	deadline := time.Now().Add(n.interval())
	_ = conn.SetDeadline(deadline)
	if _, err := fmt.Fprintf(conn, "TOPO\n"); err != nil {
		return TopoReply{}, err
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return TopoReply{}, err
	}
	return ParseTopoReply(line)
}

// fold integrates a peer reply into local state, firing Demote/Follow
// when the reply changes our world.
func (n *Node) fold(t TopoReply) {
	claim := t.Primary
	if t.Role == "primary" {
		claim = t.Self
	}
	if claim == "" || t.Epoch == 0 {
		return
	}
	if deposed := n.state.Observe(t.Epoch, claim); deposed {
		logf("cluster: deposed by %s at epoch %d, fencing self", claim, t.Epoch)
		if n.cfg.Hooks.Demote != nil {
			n.cfg.Hooks.Demote(t.Epoch, claim)
		}
		return
	}
	if n.state.Role() == RoleReplica && claim != n.following && n.state.Primary() == claim {
		logf("cluster: following new primary %s at epoch %d", claim, t.Epoch)
		if n.cfg.Hooks.Follow != nil {
			if err := n.cfg.Hooks.Follow(claim); err != nil {
				logf("cluster: follow %s: %v", claim, err)
				return
			}
		}
		n.following = claim
	}
}

// probeRound polls every peer once and folds in whatever it learns.
// Used at boot (fence a restarted old primary) and by primaries (find
// out they are a zombie before the next client does).
func (n *Node) probeRound() {
	for _, p := range n.state.Peers() {
		t, err := n.probe(p)
		if err != nil {
			continue
		}
		n.fold(t)
	}
}

// heartbeat is one replica monitor step: renew the lease off the
// primary, or run an election once it expires.
func (n *Node) heartbeat() {
	primary := n.state.Primary()
	if primary != "" {
		if t, err := n.probe(primary); err == nil {
			n.seen = time.Now()
			n.fold(t)
			return
		}
	}
	if time.Since(n.seen) >= n.cfg.Lease {
		n.elect()
	}
}

// elect runs one leaderless election round: poll the peers, rank every
// live replica (including self) by catch-up position, and promote only
// if self wins. Losing candidates renew half a lease and wait for the
// winner's claim to arrive via fold; if the winner dies too, the next
// expiry re-runs the election without it.
func (n *Node) elect() {
	var watermark, applied uint64
	if n.cfg.Hooks.Progress != nil {
		watermark, applied = n.cfg.Hooks.Progress()
	}
	maxEpoch := n.state.Epoch()
	cands := []candidate{{addr: n.state.Self(), watermark: watermark, applied: applied}}
	for _, p := range n.state.Peers() {
		t, err := n.probe(p)
		if err != nil {
			continue
		}
		if t.Epoch > maxEpoch {
			maxEpoch = t.Epoch
		}
		if t.Role == "primary" {
			// A live primary answered: no election needed after all.
			n.fold(t)
			n.seen = time.Now()
			return
		}
		if t.Role == "replica" {
			cands = append(cands, candidate{addr: t.Self, watermark: t.Watermark, applied: t.Applied})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].addr < cands[j].addr })
	winner := electLeader(cands)
	if winner != n.state.Self() {
		logf("cluster: election defers to %s (self watermark=%d applied=%d)", winner, watermark, applied)
		n.seen = time.Now().Add(-n.cfg.Lease / 2)
		return
	}
	epoch := maxEpoch + 1
	logf("cluster: lease expired, promoting self at epoch %d (watermark=%d applied=%d)", epoch, watermark, applied)
	if n.cfg.Hooks.Promote == nil {
		return
	}
	if err := n.cfg.Hooks.Promote(epoch); err != nil {
		logf("cluster: promote failed: %v", err)
		n.seen = time.Now().Add(-n.cfg.Lease / 2)
	}
}
