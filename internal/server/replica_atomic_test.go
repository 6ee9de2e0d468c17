// Replica cross-shard atomic visibility: a cross-shard commit must become
// visible on a replica all-shards-at-once. The test hammers balanced
// two-shard transfers into the primary while a poller on the replica
// continuously audits what applying whole records of one commit order
// guarantees — the sum of the transfer keys never moves.
package server

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server/client"
)

func TestReplicaCrossShardAtomicVisibility(t *testing.T) {
	pri, priAddr, rep, repAddr := startReplicaPair(t, 4, time.Hour)

	store := pri.Store()
	k0 := "bar-a"
	k1 := ""
	for i := 0; i < 10000 && k1 == ""; i++ {
		k := fmt.Sprintf("bar-b%d", i)
		if store.ShardOf(k) != store.ShardOf(k0) {
			k1 = k
		}
	}
	pc, err := client.DialMux(priAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	rc, err := client.DialMux(repAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Seed both keys and let the replica see the baseline.
	if _, err := pc.Add(k0, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Add(k1, 100); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pri, rep)
	if sum, err := rc.Sum(k0, k1); err != nil || sum != 200 {
		t.Fatalf("replica baseline sum = %d, %v", sum, err)
	}

	// The auditor: every replica SUM taken while transfers stream in
	// must read the conserved total — a cross-shard commit half-applied
	// on the replica would break it.
	stop := make(chan struct{})
	auditDone := make(chan struct{})
	var audits atomic.Int64
	go func() {
		defer close(auditDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sum, err := rc.Sum(k0, k1)
			if err != nil {
				t.Errorf("replica SUM: %v", err)
				return
			}
			if sum != 200 {
				t.Errorf("replica SUM = %d mid-replication, want 200 (cross-shard commit visible on one shard only)", sum)
				return
			}
			audits.Add(1)
		}
	}()

	const transfers = 150
	for i := 0; i < transfers; i++ {
		amount := int64(1 + i%7)
		res, err := pc.Update([]client.Op{
			{Key: k0, Delta: -amount, Write: true},
			{Key: k1, Delta: amount, Write: true},
		}, client.TxOpts{Value: 1, Deadline: 10 * time.Second})
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		if len(res) != 2 || res[0]+res[1] != 200 {
			t.Fatalf("transfer %d results %v, want balanced", i, res)
		}
	}
	waitCaughtUp(t, pri, rep)
	close(stop)
	<-auditDone
	if t.Failed() {
		return
	}
	if audits.Load() == 0 {
		t.Fatal("auditor never sampled the replica; the test degenerated")
	}

	// Converged: replica and primary agree exactly.
	pSum, err := pc.Sum(k0, k1)
	if err != nil {
		t.Fatal(err)
	}
	rSum, err := rc.Sum(k0, k1)
	if err != nil {
		t.Fatal(err)
	}
	if pSum != 200 || rSum != 200 {
		t.Fatalf("converged sums primary=%d replica=%d, want 200", pSum, rSum)
	}
	for _, k := range []string{k0, k1} {
		pv, pok, _ := pc.Get(k)
		rv, rok, _ := rc.Get(k)
		if !pok || !rok || pv != rv {
			t.Fatalf("%s diverged: primary=%d(%v) replica=%d(%v)", k, pv, pok, rv, rok)
		}
	}
}
