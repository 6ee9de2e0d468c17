// The failover cell: a clustered primary+replica pair whose primary is
// killed at half the cell duration. The replica's lease monitor detects
// the death, elects itself, and promotes under fencing epoch 2; the
// cell's workers meanwhile follow ERR not-primary redirects onto the
// new primary exactly like sccload's failover pool. The row reports the
// measured kill-to-promotion latency and the redirects followed, and
// the usual audits run against the promoted node — conservation exact,
// the acked-commit ledger in its >= form.
package scenario

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	clusterpkg "repro/internal/cluster"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/opts"
	"repro/internal/workload"
)

// failoverLease is the cell's lease: short enough that the post-kill
// half of the cell covers expiry, election, and promotion many times
// over, long enough that loopback probe jitter cannot expire it early.
const failoverLease = 100 * time.Millisecond

// listenLoopback reserves a loopback listener up front, so both nodes'
// advertised cluster addresses are known before either server opens
// (the commit fence binds to the state at Open).
func listenLoopback() (net.Listener, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return lis, lis.Addr().String(), nil
}

// bootFailover builds the clustered pair into cl: a primary at epoch 1
// and a replica whose lease monitor will take over when the primary
// dies. Only the replica runs a Node — the primary's zombie detection
// is pointless here, it is killed outright.
func bootFailover(c Cell, cfg server.Config, cl *cluster) error {
	plis, paddr, err := listenLoopback()
	if err != nil {
		return fmt.Errorf("cell %q: %w", c.Name, err)
	}
	rlis, raddr, err := listenLoopback()
	if err != nil {
		plis.Close()
		return fmt.Errorf("cell %q: %w", c.Name, err)
	}

	pstate := clusterpkg.NewState(paddr, []string{raddr})
	if err := pstate.BecomePrimary(1); err != nil {
		plis.Close()
		rlis.Close()
		return fmt.Errorf("cell %q: %w", c.Name, err)
	}
	pcfg := cfg
	// Semi-synchronous acks are what make the post-failover ledger hold:
	// the primary acknowledges a commit only after the replica acked its
	// log records, so nothing the clients booked as committed can be
	// missing from the promoted node.
	pcfg.Repl = server.ReplOptions{Primary: true, SyncAcks: true, SyncTimeout: 2 * time.Second}
	pcfg.Cluster = pstate
	cl.pri = server.New(pcfg)
	cl.addr = paddr
	go cl.pri.Serve(plis)

	gate := repl.NewLagGate(cfg.Shards, 50*time.Millisecond, 0)
	rstate := clusterpkg.NewState(raddr, []string{paddr})
	rstate.SetReplica(paddr)
	rcfg := cfg
	rcfg.Repl = server.ReplOptions{Gate: gate}
	rcfg.Cluster = rstate
	cl.rep = server.New(rcfg)
	cl.repAddr = raddr
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
	rstate.SetProgress(func() (uint64, uint64) {
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
		State: rstate,
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

// promoteLatency returns the recorded kill-to-promotion latency (zero
// if the promotion never landed — driveFailover fails the cell first).
func (cl *cluster) promoteLatency() time.Duration {
	select {
	case d := <-cl.promoted:
		// Re-buffer so Run's row assembly can read it again.
		cl.promoted <- d
		return d
	default:
		return 0
	}
}

// driveFailover runs the cell's closed one-shot load with the kill
// timer armed at Duration/2. Each worker is a blocking client that
// chases the primary: not-primary replies re-point it at the named
// member, dead connections rotate it, and only the final outcome of
// each transaction is booked.
func driveFailover(c Cell, cl *cluster, fam opts.Family) (*workerResult, error) {
	deadline := time.Now().Add(c.Duration)
	kill := time.AfterFunc(c.Duration/2, func() {
		cl.killNano.Store(time.Now().UnixNano())
		cl.pri.Close()
	})
	defer kill.Stop()

	results := make([]*workerResult, c.Clients)
	var wg sync.WaitGroup
	for w := 0; w < c.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewGenerator(c.workloadConfig(c.Seed + int64(w)*7919))
			r := newWorkerResult()
			addrs := []string{cl.addr, cl.repAddr}
			cur := 0
			var cli *client.Client
			defer func() {
				if cli != nil {
					cli.Close()
				}
			}()
			rotate := func() {
				if cli != nil {
					cli.Close()
					cli = nil
				}
				cur = (cur + 1) % len(addrs)
			}
			for time.Now().Before(deadline) {
				tx := gen.Next()
				ops := pageOps(tx, w, 0)
				o := client.TxOpts{Value: tx.Class.Value, Deadline: c.Deadline, Family: fam}
				t0 := time.Now()
				// attempted guards the booking below: if the deadline
				// expires before the retry loop sends anything, there is
				// no outcome to account — booking the zero-value nil err
				// as a commit would corrupt the acked-commit ledger with
				// a transaction that never left the client.
				var err error
				attempted := false
				for time.Now().Before(deadline) {
					attempted = true
					if cli == nil {
						cli, err = client.DialTimeout(addrs[cur], time.Second)
						if err != nil {
							cli = nil
							rotate()
							time.Sleep(5 * time.Millisecond)
							continue
						}
					}
					_, err = cli.Update(ops, o)
					if err == nil || errors.Is(err, client.ErrShed) {
						break
					}
					var np *client.NotPrimaryError
					if errors.As(err, &np) {
						cl.redirects.Add(1)
						cli.Close()
						cli = nil
						if np.Addr == "" {
							cur = (cur + 1) % len(addrs)
						} else {
							found := false
							for i, a := range addrs {
								if a == np.Addr {
									cur, found = i, true
									break
								}
							}
							if !found {
								addrs = append(addrs, np.Addr)
								cur = len(addrs) - 1
							}
						}
					} else {
						rotate()
					}
					time.Sleep(5 * time.Millisecond)
				}
				if !attempted {
					break
				}
				r.account(o, counterKey(w, 0), err, time.Since(t0))
			}
			results[w] = r
		}(w)
	}
	wg.Wait()

	agg := newWorkerResult()
	for _, r := range results {
		agg.merge(r)
	}
	// The cell is meaningless if the takeover never happened: the kill
	// fired at Duration/2, so by now the promotion is minutes of leases
	// overdue. Give the monitor one more grace period, then fail loudly.
	select {
	case d := <-cl.promoted:
		cl.promoted <- d
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("cell %q: primary killed but the replica never promoted", c.Name)
	}
	return agg, nil
}
