// The failover cell: a clustered primary+replica pair whose primary is
// killed at half the cell duration. The replica's lease monitor detects
// the death, elects itself, and promotes under fencing epoch 2; the
// cell's workers meanwhile follow ERR not-primary redirects onto the
// new primary through loadgen's failover pool. The row reports the
// kill-to-promotion latency read off the promoted node and the redirects
// followed, and the usual audits run against the promoted node —
// conservation exact, the acked-commit ledger in its >= form.
package scenario

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/server/client"
)

// failoverLease is the cell's lease: short enough that the post-kill
// half of the cell covers expiry, election, and promotion many times
// over, long enough that loopback probe jitter cannot expire it early.
const failoverLease = 100 * time.Millisecond

// bootPair builds a primary and a replica streaming from it into cl.
// For failover cells both are cluster members — the primary at epoch 1,
// the replica with a lease monitor that takes over when the primary
// dies.
func bootPair(c Cell, cfg server.Config, cl *cluster) error {
	// Both listeners are reserved up front, so both members' advertised
	// addresses are known before either server opens.
	plis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cell %q: %w", c.Name, err)
	}
	rlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		plis.Close()
		return fmt.Errorf("cell %q: %w", c.Name, err)
	}
	paddr, raddr := plis.Addr().String(), rlis.Addr().String()
	pcfg, rcfg := cfg, cfg
	pcfg.Repl = server.ReplOptions{Primary: true}
	rcfg.ReplicaOf = paddr
	if c.Role == RoleFailover {
		// Semi-synchronous acks are what make the post-failover ledger
		// hold: the primary acknowledges a commit only after the replica
		// acked its log records, so nothing the clients booked as
		// committed can be missing from the promoted node.
		pcfg.Repl.SyncAcks, pcfg.Repl.SyncTimeout = true, 2*time.Second
		pcfg.Cluster = server.ClusterConfig{Self: paddr, Peers: []string{raddr}, Lease: failoverLease}
		rcfg.Cluster = server.ClusterConfig{Self: raddr, Peers: []string{paddr}, Lease: failoverLease}
	}
	cl.pri, cl.addr = server.New(pcfg), paddr
	go cl.pri.Serve(plis)
	if cl.rep, err = server.Open(rcfg); err != nil {
		rlis.Close()
		return fmt.Errorf("cell %q: replica: %w", c.Name, err)
	}
	cl.repAddr = raddr
	go cl.rep.Serve(rlis)
	return nil
}

// driveFailover runs the cell's closed one-shot load with the kill
// timer armed at Duration/2. cfg is the cell's load re-shaped into
// blocking round trips over a pool of both nodes, so each worker chases
// the primary: not-primary replies re-point the pool at the named
// member, dead connections rotate it, and only the final outcome of
// each transaction is booked.
func driveFailover(c Cell, cl *cluster, cfg loadgen.Config) (*loadgen.Result, error) {
	promoted := make(chan error, 1)
	kill := time.AfterFunc(c.Duration/2, func() {
		killed := time.Now()
		// Watch from the kill on: Close can block on the dead primary's
		// semi-sync waits for a while after the replica has taken over.
		go func() {
			var err error
			cl.promoteLatency, err = awaitPromotion(cl.repAddr, killed)
			promoted <- err
		}()
		cl.pri.Close()
	})
	defer kill.Stop()

	cfg.Pool = loadgen.NewPool(cl.addr + "," + cl.repAddr)
	cfg.Pipeline = 0
	res, err := loadgen.Run(cfg)
	if err != nil {
		return nil, err
	}
	// The cell is meaningless if the takeover never happened.
	if err := <-promoted; err != nil {
		return nil, err
	}
	return res, nil
}

// awaitPromotion polls the replica's STATS until it reports itself the
// cluster primary and returns how long after killed that was: the
// kill-to-promotion latency, read off the promoted node.
func awaitPromotion(addr string, killed time.Time) (time.Duration, error) {
	m, err := client.DialMux(addr)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	for time.Since(killed) < 10*time.Second {
		if st, err := m.Stats(); err == nil && st["cluster_role"] == "primary" {
			return time.Since(killed), nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, errors.New("primary killed but the replica never promoted")
}
