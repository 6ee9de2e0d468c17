// Package cluster is the multi-node topology layer: lease-based
// failover with fencing epochs over one primary and its replicas.
//
// Replicas heartbeat the primary with the TOPO verb. When a replica's
// lease expires it runs a leaderless election over the peers it can
// reach: it ranks every live replica, itself included, by catch-up
// position (epoch watermark, then applied position, then address
// ascending) and promotes itself only if it ranks first, under a
// fencing epoch one above the highest it saw. Every write path compares
// fencing epochs, so a zombie primary — alive but deposed — can install
// nothing that gets acknowledged: once it observes a higher epoch it is
// fenced, and its verdicts fail at the commit-boundary fence exactly
// like a failed WAL sync ("installed but never acknowledged").
//
// The protocol is not a quorum consensus, and the address tiebreak only
// orders replicas that reach each other. Two replicas cut off from each
// other and from the primary both mint the same epoch and both promote;
// State.Observe ignores an equal epoch, so after the partition heals
// both keep acknowledging writes until a later election mints a higher
// one. That same-epoch split brain is open (ROADMAP item 12). A
// network-partitioned primary also keeps serving reads (never writes
// that ack) until its first peer probe finds a higher epoch.
// docs/ARCHITECTURE.md ("Cluster") states the invariants;
// internal/server enforces them on the wire.
package cluster

import (
	"fmt"
	"sync"
)

// Role is a node's position in the topology.
type Role int

const (
	// RoleReplica follows a primary read-only (promotable).
	RoleReplica Role = iota
	// RolePrimary owns writes under the current fencing epoch.
	RolePrimary
	// RoleFenced is a deposed primary: a node that discovered a higher
	// fencing epoch than the one it served under. It rejects writes and
	// replication subscriptions and redirects clients to the new
	// primary. A fenced node never promotes itself again; restart it as
	// a replica of the new primary to rejoin.
	RoleFenced
)

// String renders the role as the TOPO verb spells it.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFenced:
		return "fenced"
	default:
		return "replica"
	}
}

// State is one node's view of the cluster: its fencing epoch, role, and
// best-known primary address. The server consults it on every write
// (entry fence), at every commit verdict (sync fence), and in the TOPO
// reply; the Node (node.go) transitions it. A nil *State means the
// server is not clustered and all fencing is off.
type State struct {
	self  string
	peers []string

	mu      sync.Mutex
	epoch   uint64
	role    Role
	primary string
}

// NewState returns a node's boot state at fencing epoch 1. self is this
// node's client address as peers should dial it; peers are the other
// nodes' client addresses. primary is the address the node boots
// following as a replica; empty boots it as the primary.
func NewState(self string, peers []string, primary string) *State {
	ps := make([]string, 0, len(peers))
	for _, p := range peers {
		if p != "" && p != self {
			ps = append(ps, p)
		}
	}
	s := &State{self: self, peers: ps, epoch: 1, role: RoleReplica, primary: primary}
	if primary == "" {
		s.role, s.primary = RolePrimary, self
	}
	return s
}

// Self returns this node's advertised client address.
func (s *State) Self() string { return s.self }

// Peers returns the other nodes' client addresses.
func (s *State) Peers() []string { return s.peers }

// Epoch returns the current fencing epoch.
func (s *State) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Role returns the node's current role.
func (s *State) Role() Role {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role
}

// IsPrimary reports whether the node currently owns writes.
func (s *State) IsPrimary() bool { return s.Role() == RolePrimary }

// Primary returns the best-known primary address ("" if unknown).
func (s *State) Primary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.primary
}

// Snapshot returns epoch, role, and primary as one consistent read.
func (s *State) Snapshot() (uint64, Role, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch, s.role, s.primary
}

// BecomePrimary installs this node as primary under epoch. The epoch
// must not regress: a caller trying to claim with a stale epoch (it
// lost an election race it didn't see) is refused so the higher fence
// stands.
func (s *State) BecomePrimary(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.epoch {
		return fmt.Errorf("cluster: cannot claim primary under deposed epoch %d (current %d)", epoch, s.epoch)
	}
	s.epoch = epoch
	s.role = RolePrimary
	s.primary = s.self
	return nil
}

// Observe folds in another node's claim: a higher fencing epoch always
// wins. If this node was primary, it is deposed to RoleFenced and the
// return value is true — the caller must dump its flight ring and stop
// acknowledging. A replica just re-points at the new primary. Equal or
// lower epochs change nothing, so two primaries minted at one epoch both
// stand (the open split brain in the package comment).
func (s *State) Observe(epoch uint64, primary string) (deposed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch <= s.epoch || primary == s.self {
		return false
	}
	s.epoch = epoch
	s.primary = primary
	if s.role == RolePrimary {
		s.role = RoleFenced
		return true
	}
	if s.role != RoleFenced {
		s.role = RoleReplica
	}
	return false
}
