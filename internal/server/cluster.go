// Cluster integration: fencing epochs on the commit path, the promotion
// and demotion transitions, and the TOPO verb. The cluster package owns
// topology decisions (leases, elections); this file is where those
// decisions meet the engine — the two fence layers (the entry fence
// before admission, the commit-boundary fence that turns a deposed
// primary's verdicts into errors) and the replica-to-primary handoff
// that rebases the replication feed onto the applied prefix.
package server

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/obs/flight"
	"repro/internal/repl"
)

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

// fencedReplVerb reports whether a replication-serving verb (REPL, ACK,
// SNAP, HEAD) must be refused because this node is a deposed primary:
// its logs are frozen history a joiner must not bootstrap from.
func (s *Server) fencedReplVerb() (string, bool) {
	if cs := s.cluster; cs != nil && cs.Role() == cluster.RoleFenced {
		return s.notPrimary(), true
	}
	return "", false
}

// Promote turns this replica server into the primary under the given
// fencing epoch — the PROMOTE protocol's server half. rep is the
// replication stream to tear down (nil if already stopped). The steps
// are ordered so no window accepts unfenced writes:
//
//  1. stop the apply stream (the barrier queue has already delivered
//     every complete epoch; incomplete trailing epochs are discarded —
//     they were never applied, so the store is a clean prefix),
//  2. claim the state (writes arriving now pass the entry fence, but
//     until step 5 the lag gate still rejects them),
//  3. on an in-memory node without a feed of its own, rebase a fresh
//     replication feed at the applied indices and epoch watermarks, so
//     downstream joiners resume the primary numbering, and make it the
//     commit log; a node that already logs (a chained replica's feed, a
//     durable replica's WAL — which keeps feeding its -repl-log feed)
//     keeps its sinks untouched,
//  4. arm the commit-boundary fence under the new epoch,
//  5. lift the lag gate and publish the feed.
func (s *Server) Promote(rep *repl.Replica, epoch uint64) error {
	cs := s.cluster
	if cs == nil {
		return fmt.Errorf("server: not clustered")
	}
	var applied, marks []uint64
	if rep != nil {
		rep.Close()
		applied = rep.Applied()
		marks = rep.Watermarks()
	}
	if err := cs.BecomePrimary(epoch); err != nil {
		return err
	}
	shards := s.store.NumShards()
	feed := s.Feed()
	if feed == nil && s.durable == nil {
		feed = repl.NewFeed(shards, s.epochs)
		if s.retain > 0 {
			feed.SetRetention(s.retain)
		}
		var maxMark uint64
		for i := 0; i < shards; i++ {
			var base, mark uint64
			if i < len(applied) {
				base = applied[i]
			}
			if i < len(marks) {
				mark = marks[i]
			}
			if mark > maxMark {
				maxMark = mark
			}
			feed.Log(i).ResetBase(base, mark)
		}
		// New commits must stamp epochs above everything replicated
		// history used, or the apply barrier downstream would conflate
		// old and new cross-shard commits.
		s.epochs.Observe(maxMark)
		for i := 0; i < shards; i++ {
			s.store.Shard(i).SetCommitLog(feed.Log(i))
		}
	}
	s.installFence(epoch)
	s.feedP.Store(feed)
	s.gateP.Store(nil)
	s.flight.Server().Record(flight.EvPromote, 0, -1, epoch)
	return nil
}

// Demote records a deposed primary's fencing into the flight ring. The
// cluster state has already flipped to RoleFenced (the Node's Observe
// did it atomically with discovering the higher epoch); from that
// instant every in-flight commit fails at the commit-boundary fence and
// every new write bounces at the entry fence — this is bookkeeping, not
// the fence itself.
func (s *Server) Demote(epoch uint64, primary string) {
	s.flight.Server().Record(flight.EvDemote, 0, -1, epoch)
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
	watermark, applied := cs.Progress()
	if feed := s.Feed(); feed != nil && role == cluster.RolePrimary {
		// A primary's catch-up position is its own feed.
		watermark = feed.EpochWatermark()
		var sum uint64
		for _, h := range feed.Heads() {
			sum += h
		}
		applied = sum
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
