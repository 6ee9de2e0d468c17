package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

func TestElectLeaderRanking(t *testing.T) {
	cases := []struct {
		name  string
		cands []candidate
		want  string
	}{
		{"empty", nil, ""},
		{"watermark wins over applied",
			[]candidate{{"a", 1, 999}, {"b", 2, 1}}, "b"},
		{"applied breaks watermark tie",
			[]candidate{{"a", 2, 10}, {"b", 2, 20}}, "b"},
		{"address breaks full tie",
			[]candidate{{"b", 2, 20}, {"a", 2, 20}}, "a"},
		{"single", []candidate{{"only", 0, 0}}, "only"},
	}
	for _, c := range cases {
		if got := electLeader(c.cands); got != c.want {
			t.Errorf("%s: electLeader = %q, want %q", c.name, got, c.want)
		}
	}
	// Determinism across input order: every permutation of a slate
	// elects the same leader.
	slate := []candidate{{"n1", 3, 5}, {"n2", 3, 9}, {"n3", 2, 100}}
	perms := [][]candidate{
		{slate[0], slate[1], slate[2]},
		{slate[2], slate[1], slate[0]},
		{slate[1], slate[0], slate[2]},
	}
	for i, p := range perms {
		if got := electLeader(p); got != "n2" {
			t.Errorf("perm %d: electLeader = %q, want n2", i, got)
		}
	}
}

func TestStateObserveAndFence(t *testing.T) {
	st := NewState("n1:7070", []string{"n2:7070", "n1:7070"}, "")
	if got := st.Peers(); len(got) != 1 || got[0] != "n2:7070" {
		t.Fatalf("peers = %v, want self filtered out", got)
	}
	if e, r, p := st.Snapshot(); e != 1 || r != RolePrimary || p != "n1:7070" {
		t.Fatalf("boot without a primary: epoch=%d role=%v primary=%q, want the primary at epoch 1", e, r, p)
	}
	if st.Observe(1, "n2:7070") {
		t.Fatal("equal epoch must not depose")
	}
	if !st.Observe(2, "n2:7070") {
		t.Fatal("higher epoch must depose a primary")
	}
	if e, r, p := st.Snapshot(); e != 2 || r != RoleFenced || p != "n2:7070" {
		t.Fatalf("after deposition: epoch=%d role=%v primary=%q", e, r, p)
	}
	// A fenced node stays fenced on further observations and cannot
	// reclaim with a stale epoch.
	st.Observe(3, "n2:7070")
	if st.Role() != RoleFenced {
		t.Fatal("fenced node must stay fenced")
	}
	if err := st.BecomePrimary(2); err == nil {
		t.Fatal("BecomePrimary with deposed epoch must be refused")
	}
	if err := st.BecomePrimary(4); err != nil {
		t.Fatalf("BecomePrimary(4): %v", err)
	}
}

func TestTopoReplyRoundTrip(t *testing.T) {
	in := TopoReply{Role: "replica", Epoch: 7, Primary: "n1:7070", Self: "n2:7070", Watermark: 6, Applied: 1234}
	got, err := ParseTopoReply(in.Format())
	if err != nil {
		t.Fatalf("ParseTopoReply: %v", err)
	}
	if got != in {
		t.Fatalf("round trip: got %+v, want %+v", got, in)
	}
	noPrimary := TopoReply{Role: "replica", Epoch: 1, Self: "n2:7070"}
	if !strings.Contains(noPrimary.Format(), "primary=-") {
		t.Fatalf("empty primary must render as '-': %q", noPrimary.Format())
	}
	back, err := ParseTopoReply(noPrimary.Format())
	if err != nil || back.Primary != "" {
		t.Fatalf("primary=- must parse to empty, got %+v err=%v", back, err)
	}
	if _, err := ParseTopoReply("ERR not clustered"); err == nil {
		t.Fatal("ERR line must not parse as a TOPO reply")
	}
}

// fakePeer answers TOPO with a fixed reply, counting probes.
func fakePeer(t *testing.T, reply TopoReply) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				r := bufio.NewReader(c)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if strings.TrimSpace(line) == "TOPO" {
						fmt.Fprintf(c, "%s\n", reply.Format())
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestNodeBootProbeFencesRestartedPrimary(t *testing.T) {
	// A peer advertises itself as primary at epoch 2. A restarted old
	// primary booting at epoch 1 must discover it during the
	// synchronous boot probe and fence itself before serving anything.
	addr, stop := fakePeer(t, TopoReply{Role: "primary", Epoch: 2, Self: "new-primary", Watermark: 9, Applied: 9})
	defer stop()
	st := NewState("127.0.0.1:1", []string{addr}, "")
	demoted := make(chan uint64, 1)
	n := NewNode(Config{
		State: st,
		Lease: 200 * time.Millisecond,
		Hooks: Hooks{Demote: func(epoch uint64, primary string) { demoted <- epoch }},
	})
	n.Start() // synchronous boot probe
	defer n.Close()
	select {
	case e := <-demoted:
		if e != 2 {
			t.Fatalf("demoted at epoch %d, want 2", e)
		}
	default:
		t.Fatal("boot probe did not demote the restarted old primary")
	}
	if st.Role() != RoleFenced {
		t.Fatalf("role = %v, want fenced", st.Role())
	}
}

func TestNodeElectsSelfWhenPrimaryDies(t *testing.T) {
	// Single replica, primary address points nowhere: the lease expires
	// and the lone candidate promotes itself at epoch 2.
	st := NewState("127.0.0.1:9", nil, "127.0.0.1:1") // the primary is unreachable
	promoted := make(chan uint64, 1)
	n := NewNode(Config{
		State: st,
		Lease: 100 * time.Millisecond,
		Hooks: Hooks{
			Progress: func() (uint64, uint64) { return 1, 42 },
			Promote: func(epoch uint64) error {
				// Flip the state first, signal second: the test asserts
				// IsPrimary as soon as it receives.
				err := st.BecomePrimary(epoch)
				select {
				case promoted <- epoch:
				default:
				}
				return err
			},
		},
	})
	n.Start()
	defer n.Close()
	select {
	case e := <-promoted:
		if e != 2 {
			t.Fatalf("promoted at epoch %d, want 2", e)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("lease expiry did not trigger promotion")
	}
	if !st.IsPrimary() {
		t.Fatal("state not primary after promotion")
	}
}

func TestNodeRetriesFailedFollow(t *testing.T) {
	// A peer claims primaryship at epoch 2. The replica's first Follow
	// fails (a just-promoted primary may not serve replication yet), so a
	// later contact must retry it; once one succeeds it must not repeat.
	addr, stop := fakePeer(t, TopoReply{Role: "primary", Epoch: 2, Self: "new-primary"})
	defer stop()
	st := NewState("127.0.0.1:9", []string{addr}, "127.0.0.1:1") // the old primary is gone
	follows := make(chan string, 8)
	n := NewNode(Config{
		State: st,
		Lease: 100 * time.Millisecond,
		Hooks: Hooks{Follow: func(primary string) error {
			follows <- primary
			if len(follows) == 1 {
				return fmt.Errorf("not serving replication yet")
			}
			return nil
		}},
	})
	n.Start() // the boot probe learns the claim and fails its first Follow
	defer n.Close()
	if len(follows) != 1 {
		t.Fatalf("boot probe ran %d Follows, want 1", len(follows))
	}
	deadline := time.Now().Add(3 * time.Second)
	for len(follows) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("a failed Follow was never retried")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // several more contacts with the claimant
	if got := len(follows); got != 2 {
		t.Fatalf("%d Follows after one succeeded, want exactly 2", got)
	}
	if st.Primary() != "new-primary" || st.Role() != RoleReplica {
		t.Fatalf("state = %s following %q", st.Role(), st.Primary())
	}
}

func TestNodeElectionDefersToMoreCaughtUpPeer(t *testing.T) {
	// A peer replica with a higher watermark exists: self must NOT
	// promote; it defers and waits for the peer's claim.
	addr, stop := fakePeer(t, TopoReply{Role: "replica", Epoch: 1, Self: "zz-but-more-caught-up", Watermark: 5, Applied: 500})
	defer stop()
	st := NewState("127.0.0.1:9", []string{addr}, "127.0.0.1:1") // unreachable primary
	promoted := make(chan struct{}, 1)
	n := NewNode(Config{
		State: st,
		Lease: 100 * time.Millisecond,
		Hooks: Hooks{
			Progress: func() (uint64, uint64) { return 1, 42 },
			Promote: func(epoch uint64) error {
				select {
				case promoted <- struct{}{}:
				default:
				}
				return st.BecomePrimary(epoch)
			},
		},
	})
	n.Start()
	defer n.Close()
	select {
	case <-promoted:
		t.Fatal("promoted despite a more caught-up peer")
	case <-time.After(600 * time.Millisecond):
	}
	if st.IsPrimary() {
		t.Fatal("state flipped primary despite deferring")
	}
}
