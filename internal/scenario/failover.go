// The failover cell: a clustered primary+replica pair whose primary is
// killed at half the cell duration. The replica's lease monitor detects
// the death, elects itself, and promotes under fencing epoch 2; the
// cell's workers meanwhile follow ERR not-primary redirects onto the
// new primary through loadgen's failover pool. The row reports the
// measured kill-to-promotion latency and the redirects followed, and
// the usual audits run against the promoted node — conservation exact,
// the acked-commit ledger in its >= form.
package scenario

import (
	"errors"
	"fmt"
	"net"
	"time"

	clusterpkg "repro/internal/cluster"
	"repro/internal/loadgen"
	"repro/internal/repl"
	"repro/internal/server"
)

// failoverLease is the cell's lease: short enough that the post-kill
// half of the cell covers expiry, election, and promotion many times
// over, long enough that loopback probe jitter cannot expire it early.
const failoverLease = 100 * time.Millisecond

// bootPair builds a primary and a replica streaming from it into cl.
// For failover cells the pair is clustered — the primary at epoch 1,
// the replica with a lease monitor that will take over when the primary
// dies. Only the replica runs a Node: the primary's zombie detection is
// pointless here, it is killed outright.
func bootPair(c Cell, cfg server.Config, cl *cluster) error {
	// Both listeners are reserved up front, so both nodes' advertised
	// cluster addresses are known before either server opens (the commit
	// fence binds to the state at Open).
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
	gate := repl.NewLagGate(cfg.Shards, 50*time.Millisecond, 0)
	pcfg, rcfg := cfg, cfg
	pcfg.Repl = server.ReplOptions{Primary: true}
	rcfg.Repl = server.ReplOptions{Gate: gate}
	failover := c.Role == RoleFailover
	if failover {
		pcfg.Cluster = clusterpkg.NewState(paddr, []string{raddr})
		if err := pcfg.Cluster.BecomePrimary(1); err != nil {
			plis.Close()
			rlis.Close()
			return fmt.Errorf("cell %q: %w", c.Name, err)
		}
		// Semi-synchronous acks are what make the post-failover ledger
		// hold: the primary acknowledges a commit only after the replica
		// acked its log records, so nothing the clients booked as
		// committed can be missing from the promoted node.
		pcfg.Repl.SyncAcks, pcfg.Repl.SyncTimeout = true, 2*time.Second
		rcfg.Cluster = clusterpkg.NewState(raddr, []string{paddr})
		rcfg.Cluster.SetReplica(paddr)
	}
	cl.pri, cl.addr = server.New(pcfg), paddr
	go cl.pri.Serve(plis)
	cl.rep, cl.repAddr = server.New(rcfg), raddr
	go cl.rep.Serve(rlis)

	rep, err := repl.StartReplica(repl.ReplicaConfig{
		Primary: paddr,
		Store:   cl.rep.Store(),
		Gate:    gate,
	})
	if err != nil {
		return fmt.Errorf("cell %q: replica: %w", c.Name, err)
	}
	cl.replica = rep
	if !failover {
		return nil
	}
	rcfg.Cluster.SetProgress(func() (uint64, uint64) {
		var mark, sum uint64
		for _, m := range rep.Watermarks() {
			if m > mark {
				mark = m
			}
		}
		for _, a := range rep.Applied() {
			sum += a
		}
		return mark, sum
	})

	cl.promoted = make(chan time.Duration, 1)
	cl.node = clusterpkg.NewNode(clusterpkg.Config{
		State: rcfg.Cluster,
		Lease: failoverLease,
		Hooks: clusterpkg.Hooks{
			Promote: func(epoch uint64) error {
				if err := cl.rep.Promote(rep, epoch); err != nil {
					return err
				}
				if k := cl.killNano.Load(); k != 0 {
					select {
					case cl.promoted <- time.Since(time.Unix(0, k)):
					default:
					}
				}
				return nil
			},
		},
	})
	cl.node.Start()
	return nil
}

// driveFailover runs the cell's closed one-shot load with the kill
// timer armed at Duration/2. cfg is the cell's load re-shaped into
// blocking round trips over a pool of both nodes, so each worker chases
// the primary: not-primary replies re-point the pool at the named
// member, dead connections rotate it, and only the final outcome of
// each transaction is booked.
func driveFailover(c Cell, cl *cluster, cfg loadgen.Config) (*loadgen.Result, error) {
	kill := time.AfterFunc(c.Duration/2, func() {
		cl.killNano.Store(time.Now().UnixNano())
		cl.pri.Close()
	})
	defer kill.Stop()

	cfg.Pool = loadgen.NewPool(cl.addr + "," + cl.repAddr)
	cfg.Pipeline = 0
	res, err := loadgen.Run(cfg)
	if err != nil {
		return nil, err
	}
	// The cell is meaningless if the takeover never happened: the kill
	// fired at Duration/2, so by now the promotion is minutes of leases
	// overdue. Give the monitor one more grace period, then fail loudly.
	select {
	case cl.promoteLatency = <-cl.promoted:
	case <-time.After(5 * time.Second):
		return nil, errors.New("primary killed but the replica never promoted")
	}
	return res, nil
}
