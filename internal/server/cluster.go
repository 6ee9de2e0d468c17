// Cluster integration: the replica's replication stream, fencing epochs
// on the commit path, the failover monitor's promotion, follow and
// demotion transitions, and the TOPO verb. The cluster package owns
// topology decisions (leases, elections); this file is where those
// decisions meet the engine — the two fence layers (the entry fence
// before admission, the commit-boundary fence that turns a deposed
// primary's verdicts into errors) and the replica-to-primary handoff
// that rebases the replication feed at the applied position.
package server

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/flight"
	"repro/internal/repl"
)

// ClusterConfig makes a server a member of a failover cluster
// (internal/cluster): writes are fenced by the member's fencing epoch and
// role, the TOPO verb comes alive, and Serve runs the lease monitor that
// promotes a replica when the primary dies, re-points the other replicas
// at the winner, and fences a deposed primary. The boot role follows
// Config.ReplicaOf: without it the member is the primary under fencing
// epoch 1, with it a replica of that primary.
type ClusterConfig struct {
	// Self is this node's client address as peers dial it; empty means
	// not clustered.
	Self string
	// Peers are the other members' client addresses.
	Peers []string
	// Lease is how long the primary may go unreachable before replicas
	// run an election (default 750ms).
	Lease time.Duration
}

// startReplica streams primary's commit order into the store: the stream
// bootstraps by SNAP (a durable replica resumes from its resume file
// instead), feeds the lag gate, and records into the replica metrics and
// the repl flight ring. A stream that ends leaves the store serving its
// last consistent snapshot.
func (s *Server) startReplica(primary string) error {
	resume := ""
	if s.dataDir != "" {
		resume = filepath.Join(s.dataDir, "replica.resume")
	}
	r, err := repl.StartReplica(repl.ReplicaConfig{
		Primary:    primary,
		Store:      s.store,
		Gate:       s.replGate(),
		ResumePath: resume,
		Metrics:    s.replMet,
		Flight:     s.flight.Repl(),
	})
	if err != nil {
		return err
	}
	s.repMu.Lock()
	s.rep = r
	s.repMu.Unlock()
	go func() {
		<-r.Done()
		if err := r.Err(); err != nil {
			slog.Warn("server: replication stream ended; serving frozen snapshot", "primary", primary, "err", err)
		}
	}()
	return nil
}

// Replica returns a replica's replication stream: nil on a primary and
// once promoted.
func (s *Server) Replica() *repl.Replica {
	s.repMu.Lock()
	defer s.repMu.Unlock()
	return s.rep
}

// progress is this node's catch-up position, read off the replication
// stream: its epoch watermark and applied position, by which elections
// rank candidates. Every replica holds a prefix of the primary's one
// commit order, so the most caught-up one holds everything any other
// holds.
func (s *Server) progress() (watermark, applied uint64) {
	r := s.Replica()
	if r == nil {
		return 0, 0
	}
	applied, watermark = r.Position()
	return watermark, applied
}

// newNode builds the member's failover monitor with the server's
// transitions as its hooks.
func (s *Server) newNode() *cluster.Node {
	return cluster.NewNode(cluster.Config{
		State: s.cluster,
		Lease: s.lease,
		Hooks: cluster.Hooks{
			Promote:  s.promote,
			Follow:   s.follow,
			Demote:   s.demote,
			Progress: s.progress,
		},
	})
}

// errFenced is the commit-boundary failure a deposed node's in-flight
// commits surface: the write may be installed in local memory, but the
// verdict becomes ERR — installed but never acknowledged, exactly the
// WAL-failure contract — so nothing a zombie primary accepts after
// deposition is ever acked as durable.
type errFenced struct {
	installed uint64 // fencing epoch the fence was installed under
	current   uint64 // fencing epoch the cluster has moved to
	primary   string
}

func (e *errFenced) Error() string {
	return fmt.Sprintf("fenced: epoch %d deposed by %d (primary %s)", e.installed, e.current, primaryToken(e.primary))
}

// installFence arms the commit-boundary fence under epoch on every
// shard: the engine's commit pipeline runs it once per installing batch,
// after the batch is durable and before any verdict is delivered —
// whatever the commit log is, and whichever path (one-shot, live
// session, cross-shard) installed. It fails when the cluster moved past
// epoch or the node stopped being primary, converting every verdict of
// the batch to an error. Only a primary is fenced: a replica's apply
// path runs through the same pipeline and must keep passing.
func (s *Server) installFence(epoch uint64) {
	fence := func() error {
		current, role, primary := s.cluster.Snapshot()
		if role == cluster.RolePrimary && current == epoch {
			return nil
		}
		s.flight.Server().Record(flight.EvFenceReject, 0, -1, epoch)
		return &errFenced{installed: epoch, current: current, primary: primary}
	}
	for i := 0; i < s.store.NumShards(); i++ {
		s.store.Shard(i).SetFence(fence)
	}
}

// primaryToken renders a primary address for ERR not-primary replies:
// "-" when unknown, so the reply always has the same field count.
func primaryToken(addr string) string {
	if addr == "" {
		return "-"
	}
	return addr
}

// notPrimary is the redirect reply a clustered non-primary answers to
// writes (and a fenced node answers to replication verbs): clients
// follow the address; "-" means the new primary is not yet known.
func (s *Server) notPrimary() string {
	return "ERR not-primary " + primaryToken(s.cluster.Primary())
}

// refuseWrite is the entry fence every write — a one-shot verb or a
// session's TXN W — passes before it touches admission or an op log: a
// clustered non-primary redirects it (and records fence_reject), a read
// replica rejects it. Non-empty means the caller must answer with that
// reply instead of executing.
func (s *Server) refuseWrite(id uint64) string {
	if cs := s.cluster; cs != nil && !cs.IsPrimary() {
		s.flight.Server().Record(flight.EvFenceReject, id, -1, cs.Epoch())
		return s.notPrimary()
	}
	if s.replGate() != nil {
		return "ERR read-only replica"
	}
	return ""
}

// replFeed returns the feed a replication-serving verb (REPL, ACK,
// SNAP, HEAD) serves from, or the refusal to answer instead. A deposed
// primary refuses with a redirect: its logs are frozen history a joiner
// must not bootstrap from, and its own replicas must re-point at the new
// primary.
func (s *Server) replFeed() (*repl.Feed, string) {
	if cs := s.cluster; cs != nil && cs.Role() == cluster.RoleFenced {
		return nil, s.notPrimary()
	}
	if feed := s.Feed(); feed != nil {
		return feed, ""
	}
	return nil, "ERR not a replication primary"
}

// promote turns this replica into the primary under the given fencing
// epoch — the monitor's Promote hook. The steps are ordered so no window
// accepts unfenced writes:
//
//  1. stop the apply stream (every round applies whole records only, so
//     the store is the primary's after its first p parts, p the applied
//     position; a record the stream had not delivered whole was never
//     applied),
//  2. claim the state (writes arriving now pass the entry fence, but
//     until step 5 the lag gate still rejects them); a refused claim
//     keeps the stopped stream, whose position ranks the next election,
//  3. on an in-memory node without a feed of its own, rebase a fresh
//     replication feed at the applied position and epoch watermark, so
//     downstream joiners resume the primary numbering, and make it the
//     commit log; a node that already logs (a chained replica's feed, a
//     durable replica's WAL — which keeps feeding its Repl.Primary feed)
//     keeps its sinks untouched,
//  4. arm the commit-boundary fence under the new epoch,
//  5. lift the lag gate and publish the feed.
func (s *Server) promote(epoch uint64) error {
	var pos, mark uint64
	if rep := s.Replica(); rep != nil {
		rep.Close()
		pos, mark = rep.Position()
	}
	if err := s.cluster.BecomePrimary(epoch); err != nil {
		return err
	}
	s.repMu.Lock()
	s.rep = nil
	s.repMu.Unlock()
	feed := s.Feed()
	if feed == nil && s.durable == nil {
		feed = repl.NewFeed(s.store.NumShards(), s.epochs)
		feed.Log().ResetBase(pos, mark)
		// New commits must stamp epochs above everything replicated
		// history used, so each shard's epochs keep rising downstream.
		s.epochs.Observe(mark)
		for i := 0; i < s.store.NumShards(); i++ {
			s.store.Shard(i).SetCommitLog(feed.Sink(i))
		}
	}
	s.installFence(epoch)
	s.feedP.Store(feed)
	s.gateP.Store(nil)
	s.flight.Server().Record(flight.EvPromote, 0, -1, epoch)
	slog.Warn("server: promoted to primary", "epoch", epoch)
	return nil
}

// follow re-points this replica at a newly elected primary — the
// monitor's Follow hook: the old stream stops and a new one bootstraps
// off the new primary. On failure (the winner may not serve replication
// yet) the monitor retries at its next contact with the winner.
func (s *Server) follow(primary string) error {
	if r := s.Replica(); r != nil {
		r.Close()
	}
	slog.Info("server: following new primary", "primary", primary)
	return s.startReplica(primary)
}

// demote is the monitor's Demote hook, the black-box moment of a deposed
// primary, recorded like a WAL failure: a demote event, then a flight
// dump. The cluster state has already flipped to RoleFenced (the Node's
// Observe did it atomically with discovering the higher epoch); from that
// instant every in-flight commit fails at the commit-boundary fence and
// every new write bounces at the entry fence — this is bookkeeping, not
// the fence itself.
func (s *Server) demote(epoch uint64, primary string) {
	slog.Error("server: deposed by higher fencing epoch; fenced", "epoch", epoch, "primary", primary)
	s.flight.Server().Record(flight.EvDemote, 0, -1, epoch)
	s.DumpFlight("demote")
}

// DumpFlight writes the flight recorder's retained window, tagged with
// reason, to <Durable.Dir>/flight on a durable server and to stderr
// otherwise — the demotion's automatic dump and the operator's pull.
func (s *Server) DumpFlight(reason string) {
	dir := s.dataDir
	if dir == "" {
		if err := s.flight.WriteTo(os.Stderr, reason); err != nil {
			slog.Error("server: flight dump failed", "err", err)
		}
		return
	}
	path, err := s.flight.DumpDir(filepath.Join(dir, "flight"), reason)
	if err != nil {
		slog.Error("server: flight dump failed", "err", err)
		return
	}
	slog.Info("server: flight dump", "path", path)
}

// handleTopo serves the TOPO verb: one k=v line describing this node's
// topology view, the discovery surface replicas' lease probes, clients'
// redirect logic, and operators all share.
func (s *Server) handleTopo() string {
	cs := s.cluster
	if cs == nil {
		return "ERR not clustered"
	}
	epoch, role, primary := cs.Snapshot()
	watermark, applied := s.progress()
	if feed := s.Feed(); feed != nil && role == cluster.RolePrimary {
		// A primary's catch-up position is its own feed.
		watermark, applied = feed.Log().LastEpoch(), feed.Log().Head()
	}
	return cluster.TopoReply{
		Role:      role.String(),
		Epoch:     epoch,
		Primary:   primary,
		Self:      cs.Self(),
		Watermark: watermark,
		Applied:   applied,
	}.Format()
}
