package core

// Hand-built schedules for the WAIT-50 rule and OCC-BC broadcast commit,
// mirroring the paper's Fig. 1(b) and Haritsa's wait-control examples.

import (
	"testing"

	"repro/internal/model"
)

// TestFig1bBroadcastRestart: the paper's Fig. 1(b): T2 read x before T1's
// commit; when T1 commits, T2 is restarted IMMEDIATELY (not at its own
// validation) and re-reads the new version.
func TestFig1bBroadcastRestart(t *testing.T) {
	s := scenarioOf(t, NewOCCBC())
	s.admitBy(0, 1, 100, 1.0, []model.Op{w(1), w(2)})       // commits at 2.0
	s.admitBy(0, 2, 100, 1.5, []model.Op{r(1), r(3), r(4)}) // reads x at 1.5
	s.finish()
	m := s.rt.Metrics
	if m.Restarts != 1 {
		t.Fatalf("restarts = %d, want exactly 1 (broadcast at T1's commit)", m.Restarts)
	}
	if m.Committed != 2 {
		t.Fatalf("committed %d", m.Committed)
	}
	// T2's committed read of page 1 observed T1's version.
	recs := s.rt.History().Records()
	for _, rec := range recs {
		if rec.ID != 2 {
			continue
		}
		for _, obs := range rec.Reads {
			if obs.Page == 1 && obs.Version != 1 {
				t.Fatalf("T2 committed reading version %d of page 1, want T1's", obs.Version)
			}
		}
	}
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestWait50DefersForHigherPriorityMajority: the validator's entire
// conflict set has higher priority, so it waits; when the conflicting
// transaction commits first, the waiter (stale) restarts.
func TestWait50DefersForHigherPriorityMajority(t *testing.T) {
	s := scenarioOf(t, NewWait50())
	// T1: loose deadline, writes page 1, finishes first (at 2.0).
	s.admitBy(0, 1, 100, 1.0, []model.Op{w(1), w(2)})
	// T2: tight deadline (higher priority), READS page 1 at 1.5, still
	// running when T1 validates -> T1's conflict set = {T2}, 100% higher
	// priority -> T1 waits.
	s.admitBy(0, 2, 8, 1.5, []model.Op{r(1), r(3), r(4)})
	s.finish()
	m := s.rt.Metrics
	if m.CommitWaits != 1 {
		t.Fatalf("commit waits = %d, want 1 (T1 deferred)", m.CommitWaits)
	}
	// T2 commits first; T1 then commits with no restart for T2.
	recs := s.rt.History().Records()
	if recs[0].ID != 2 || recs[1].ID != 1 {
		t.Fatalf("commit order [%d %d], want [2 1]", recs[0].ID, recs[1].ID)
	}
	if m.Restarts != 0 {
		t.Fatalf("restarts = %d: waiting should have avoided the restart", m.Restarts)
	}
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestWait50CommitsAgainstLowerPriorityMinority: conflicters are lower
// priority, so the validator commits at once and restarts them.
func TestWait50CommitsAgainstLowerPriorityMinority(t *testing.T) {
	s := scenarioOf(t, NewWait50())
	// T1: TIGHT deadline, writes page 1, finishes at 2.0.
	s.admitBy(0, 1, 5, 1.0, []model.Op{w(1), w(2)})
	// T2: loose deadline, reads page 1 before T1 commits.
	s.admitBy(0, 2, 100, 1.5, []model.Op{r(1), r(3), r(4)})
	s.finish()
	m := s.rt.Metrics
	if m.CommitWaits != 0 {
		t.Fatalf("commit waits = %d, want 0 (validator outranks its conflict set)", m.CommitWaits)
	}
	if m.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (T2 restarted by the broadcast)", m.Restarts)
	}
	recs := s.rt.History().Records()
	if recs[0].ID != 1 {
		t.Fatalf("first commit %d, want the validator", recs[0].ID)
	}
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestWait50NoConflictCommitsImmediately: an unconflicted validator never
// waits regardless of priorities.
func TestWait50NoConflictCommitsImmediately(t *testing.T) {
	s := scenarioOf(t, NewWait50())
	s.admitBy(0, 1, 100, 1.0, []model.Op{w(1)})
	s.admitBy(0, 2, 5, 1.0, []model.Op{r(2), r(3)})
	s.finish()
	if s.rt.Metrics.CommitWaits != 0 {
		t.Fatalf("unconflicted validator waited")
	}
	if s.rt.Metrics.Committed != 2 {
		t.Fatalf("committed %d", s.rt.Metrics.Committed)
	}
}
