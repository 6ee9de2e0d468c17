package core

// Scenario tests replaying the paper's illustrative schedules (Figs. 2 and
// 4-8) against hand-built transactions with exact timing, asserting the
// protocol produces the shadow structures the figures depict.

import (
	"testing"

	"repro/internal/model"
	"repro/internal/rtdbs"
	"repro/internal/sim"
	"repro/internal/workload"
)

type scenario struct {
	t  *testing.T
	c  *SCC
	rt *rtdbs.Runtime
}

func newScenario(t *testing.T, k int, policy Policy) *scenario {
	return scenarioOf(t, NewKS(k, policy))
}

// scenarioOf drives c, with invariant checking on, over hand-built
// transactions.
func scenarioOf(t *testing.T, c *SCC) *scenario {
	c.SelfCheck = true
	cfg := rtdbs.Config{
		Workload:      workload.Baseline(1, 1),
		Target:        100,
		CheckReads:    true,
		RecordHistory: true,
	}
	return &scenario{t: t, c: c, rt: rtdbs.New(cfg, c)}
}

// admitAt schedules a hand-built transaction with a deadline far enough
// out not to matter.
func (s *scenario) admitAt(at float64, id model.TxnID, opTime float64, ops []model.Op) *model.Txn {
	return s.admitBy(at, id, at+1000, opTime, ops)
}

// admitBy schedules a hand-built transaction with the given deadline,
// which sets its EDF priority.
func (s *scenario) admitBy(at float64, id model.TxnID, deadline, opTime float64, ops []model.Op) *model.Txn {
	cl := &model.Class{
		Name: "scenario", NumOps: len(ops), MeanOpTime: opTime,
		SlackFactor: 2, Value: 100, PenaltyPerSlack: 1, Frequency: 1,
	}
	tx := &model.Txn{
		ID: id, Class: cl, Arrival: sim.Time(at),
		Deadline: sim.Time(deadline),
		Ops:      ops, OpTime: opTime,
	}
	s.rt.K.At(sim.Time(at), func() { s.rt.Admit(tx) })
	return tx
}

func (s *scenario) specOf(r, u model.TxnID) *spec {
	st := s.c.txns[r]
	if st == nil {
		return nil
	}
	return st.spec(u)
}

func (s *scenario) finish() {
	s.rt.K.Run()
	if err := s.c.CheckInvariants(); err != nil {
		s.t.Fatal(err)
	}
}

const (
	pX model.PageID = 3
	pY model.PageID = 1
	pZ model.PageID = 2
	pA model.PageID = 4
	pB model.PageID = 5
	pC model.PageID = 6
	pP model.PageID = 7
	pQ model.PageID = 8
)

func r(p model.PageID) model.Op { return model.Op{Page: p} }
func w(p model.PageID) model.Op { return model.Op{Page: p, Write: true} }

// TestFig2aUndevelopedConflict: T2 reads x that T1 wrote (uncommitted), but
// T2 validates first. T2 commits undisturbed; its speculative shadow is
// simply discarded (Fig. 2-a).
func TestFig2aUndevelopedConflict(t *testing.T) {
	s := newScenario(t, 2, LBFO)
	// T1 writes x at 1.0, finishes at 3.0.
	s.admitAt(0, 1, 1.0, []model.Op{w(pX), w(pA), w(pB)})
	// T2 reads x at 1.5 (after T1's uncommitted write), finishes at 1.5*3=...
	t2 := s.admitAt(0, 2, 0.5, []model.Op{r(pX), r(pQ), r(pC)})
	s.finish()

	m := s.rt.Metrics
	if m.Committed != 2 {
		t.Fatalf("committed %d, want 2", m.Committed)
	}
	if m.ShadowForks != 1 {
		t.Fatalf("forks = %d, want 1 (T2's shadow for the x conflict)", m.ShadowForks)
	}
	if m.Promotions != 0 || m.Restarts != 0 {
		t.Fatalf("promotions %d restarts %d, want 0/0", m.Promotions, m.Restarts)
	}
	// T2 committed before T1, reading the initial version of x.
	recs := s.rt.History().Records()
	if recs[0].ID != t2.ID {
		t.Fatalf("first commit was txn %d, want T2", recs[0].ID)
	}
	for _, obs := range recs[0].Reads {
		if obs.Page == pX && obs.Version != 0 {
			t.Fatalf("T2 read x version %d, want initial", obs.Version)
		}
	}
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFig2bDevelopedConflict: T1 validates first; T2's optimistic shadow is
// aborted and its speculative shadow is promoted, resuming from the
// conflicting read instead of restarting (Fig. 2-b).
func TestFig2bDevelopedConflict(t *testing.T) {
	s := newScenario(t, 2, LBFO)
	// T1: Wx at 1.0, finishes and commits at 2.0.
	s.admitAt(0, 1, 1.0, []model.Op{w(pX), w(pA)})
	// T2: Rx at 1.0 (same instant, after T1's write event), Rq at 2.0;
	// T1's commit at 2.0 fires first (earlier scheduling order).
	s.admitAt(0, 2, 1.0, []model.Op{r(pX), r(pQ)})
	s.finish()

	m := s.rt.Metrics
	if m.Committed != 2 {
		t.Fatalf("committed %d, want 2", m.Committed)
	}
	if m.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", m.Promotions)
	}
	if m.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0: SCC resumes, never restarts here", m.Restarts)
	}
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFig4DonorFork: a write-after-read conflict cannot fork off the
// optimistic shadow (it already read the object); the fork comes from the
// latest speculative shadow before the conflict point and re-executes up
// to the new block point.
func TestFig4DonorFork(t *testing.T) {
	s := newScenario(t, 4, LBFO)
	// T1 reads y,z,x,a,b,c at 1..6.
	s.admitAt(0, 1, 1.0, []model.Op{r(pY), r(pZ), r(pX), r(pA), r(pB), r(pC)})
	// T2 writes z at 2.3 (after T1's read of z at 2.0): conflict at idx 1.
	s.admitAt(0, 2, 2.3, []model.Op{w(pZ), w(pP)})
	// T3 writes x at 3.4 (after T1's read of x at 3.0): conflict at idx 2.
	s.admitAt(1.6, 3, 1.8, []model.Op{w(pX), w(pQ)})

	s.rt.K.RunUntil(4.5)
	spA := s.specOf(1, 2)
	spB := s.specOf(1, 3)
	if spA == nil || spB == nil {
		t.Fatalf("expected shadows for both conflicts, got %v %v", spA, spB)
	}
	if spA.blockAt != 1 || spA.sh.StartOp != 0 {
		t.Fatalf("T2-shadow blockAt %d StartOp %d, want 1/0 (scratch fork)", spA.blockAt, spA.sh.StartOp)
	}
	if spB.blockAt != 2 || spB.sh.StartOp != 1 {
		t.Fatalf("T3-shadow blockAt %d StartOp %d, want 2/1 (forked off the T2-shadow)", spB.blockAt, spB.sh.StartOp)
	}
	if spB.sh.NextOp != 2 {
		t.Fatalf("T3-shadow re-executed to %d, want block point 2", spB.sh.NextOp)
	}
	if spB.sh.Log.FirstReadIndex(pY) < 0 {
		t.Fatal("T3-shadow missing inherited read of y")
	}

	// T2 commits at 4.6: the T2-shadow (valid) is promoted; the T3-shadow
	// read z (exposed) and is aborted.
	s.rt.K.RunUntil(4.7)
	st := s.c.txns[1]
	if st == nil {
		t.Fatal("T1 vanished")
	}
	if st.opt != spA.sh {
		t.Fatal("promoted optimistic is not the T2-shadow")
	}
	if !spB.sh.Aborted() {
		t.Fatal("exposed T3-shadow was not aborted")
	}
	if s.rt.Metrics.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", s.rt.Metrics.Promotions)
	}
	s.finish()
	if s.rt.Metrics.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0", s.rt.Metrics.Restarts)
	}
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFig5EarlierConflictReplacesShadow: a second conflict with the same
// transaction at an earlier read replaces the existing shadow with one
// blocked before the earlier read.
func TestFig5EarlierConflictReplacesShadow(t *testing.T) {
	s := newScenario(t, 3, LBFO)
	// T1 reads x,y,z then filler; reads at 1,2,3,...
	s.admitAt(0, 1, 1.0, []model.Op{r(pX), r(pY), r(pZ), r(pA), r(pB), r(pC), r(pP), r(pQ)})
	// T2 writes z at 3.2 then x at 6.4.
	s.admitAt(0, 2, 3.2, []model.Op{w(pZ), w(pX), w(pP)})

	s.rt.K.RunUntil(5.0)
	sp := s.specOf(1, 2)
	if sp == nil || sp.blockAt != 2 {
		t.Fatalf("after Wz: shadow blockAt = %v, want 2", sp)
	}
	s.rt.K.RunUntil(7.0)
	sp2 := s.specOf(1, 2)
	if sp2 == nil || sp2.blockAt != 0 {
		t.Fatalf("after Wx: shadow blockAt = %v, want replacement at 0", sp2)
	}
	if sp2 == sp {
		t.Fatal("shadow was not replaced")
	}
	if !sp.sh.Aborted() {
		t.Fatal("old shadow not aborted")
	}
	if s.rt.Metrics.ShadowAborts < 1 {
		t.Fatal("shadow abort not counted")
	}
	s.finish()
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFig6LBFOReplacement: with the budget exhausted, a new conflict with
// an earlier block point replaces the shadow with the latest block point.
func TestFig6LBFOReplacement(t *testing.T) {
	s := newScenario(t, 3, LBFO) // 2 speculative shadows
	// T1 reads x,y,z + filler at 1,2,3,...
	s.admitAt(0, 1, 1.0, []model.Op{r(pX), r(pY), r(pZ), r(pA), r(pB), r(pC), r(pP), r(pQ)})
	// T3 writes y at 2.5 -> conflict at idx 1. Commits late (10.0).
	s.admitAt(0, 3, 2.5, []model.Op{w(pY), w(model.PageID(60)), w(model.PageID(61)), w(model.PageID(62))})
	// T4 writes z at 3.5 -> conflict at idx 2 (budget now full).
	s.admitAt(0.4, 4, 3.1, []model.Op{w(pZ), w(model.PageID(71)), w(model.PageID(72))})
	// T2 writes x at 4.5 -> conflict at idx 0: LBFO replaces the idx-2 shadow.
	s.admitAt(0.5, 2, 4.0, []model.Op{w(pX), w(model.PageID(73))})

	s.rt.K.RunUntil(5.0)
	if sp := s.specOf(1, 3); sp == nil || sp.blockAt != 1 {
		t.Fatalf("T3 shadow = %v, want kept at blockAt 1", sp)
	}
	if sp := s.specOf(1, 4); sp != nil {
		t.Fatalf("T4 shadow still present (blockAt %d), want LBFO-replaced", sp.blockAt)
	}
	if sp := s.specOf(1, 2); sp == nil || sp.blockAt != 0 {
		t.Fatalf("T2 shadow = %v, want created at blockAt 0", sp)
	}
	s.finish()
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFig6FIFOIgnoresNewConflict: under the FIFO ablation policy the new
// conflict is ignored instead.
func TestFig6FIFOIgnoresNewConflict(t *testing.T) {
	s := newScenario(t, 3, FIFO)
	s.admitAt(0, 1, 1.0, []model.Op{r(pX), r(pY), r(pZ), r(pA), r(pB), r(pC), r(pP), r(pQ)})
	s.admitAt(0, 3, 2.5, []model.Op{w(pY), w(model.PageID(60)), w(model.PageID(61)), w(model.PageID(62))})
	s.admitAt(0.4, 4, 3.1, []model.Op{w(pZ), w(model.PageID(71)), w(model.PageID(72))})
	s.admitAt(0.5, 2, 4.0, []model.Op{w(pX), w(model.PageID(73))})

	s.rt.K.RunUntil(5.0)
	if sp := s.specOf(1, 3); sp == nil {
		t.Fatal("T3 shadow missing")
	}
	if sp := s.specOf(1, 4); sp == nil {
		t.Fatal("T4 shadow missing (FIFO must keep it)")
	}
	if sp := s.specOf(1, 2); sp != nil {
		t.Fatal("T2 shadow created despite exhausted FIFO budget")
	}
	s.finish()
}

// TestFig7CommitRuleCase1: on T2's commit, T1's shadow waiting for T2 is
// promoted; a shadow blocked before the conflict survives; exposed shadows
// abort.
func TestFig7CommitRuleCase1(t *testing.T) {
	s := newScenario(t, 4, LBFO)
	// T1 reads x,y,z then filler pages 40..50; one op per second.
	ops := []model.Op{r(pX), r(pY), r(pZ)}
	for pg := 40; pg <= 50; pg++ {
		ops = append(ops, r(model.PageID(pg)))
	}
	s.admitAt(0, 1, 1.0, ops) // finishes at 14.0 if undisturbed
	// T3 writes x at 4.5 -> conflict at idx 0; T3 commits late (18.0).
	s.admitAt(0, 3, 4.5, []model.Op{w(pX), w(model.PageID(60)), w(model.PageID(61)), w(model.PageID(62))})
	// T2 writes z at 5.5 -> conflict at idx 2; T2 commits at 11.0.
	s.admitAt(0, 2, 5.5, []model.Op{w(pZ), w(model.PageID(70))})

	s.rt.K.RunUntil(10.9)
	spT3 := s.specOf(1, 3)
	spT2 := s.specOf(1, 2)
	if spT3 == nil || spT3.blockAt != 0 {
		t.Fatalf("T3 shadow = %v, want blockAt 0", spT3)
	}
	if spT2 == nil || spT2.blockAt != 2 {
		t.Fatalf("T2 shadow = %v, want blockAt 2", spT2)
	}
	s.rt.K.RunUntil(11.1) // T2 commits at 11.0
	st := s.c.txns[1]
	if st == nil {
		t.Fatal("T1 vanished")
	}
	if st.opt != spT2.sh {
		t.Fatal("shadow waiting for T2 was not promoted")
	}
	if sp := s.specOf(1, 3); sp == nil || sp.sh.Aborted() {
		t.Fatal("unexposed T3 shadow must survive the promotion")
	}
	s.finish()
	if s.rt.Metrics.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0", s.rt.Metrics.Restarts)
	}
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFig8CommitRuleCase2: the committing transaction's conflict was never
// assigned a shadow (budget exhausted); the shadow with the latest valid
// block point is promoted even though it waited for someone else.
func TestFig8CommitRuleCase2(t *testing.T) {
	s := newScenario(t, 2, LBFO) // only 1 speculative shadow
	ops := []model.Op{r(pX), r(pY), r(pZ)}
	for pg := 40; pg <= 48; pg++ {
		ops = append(ops, r(model.PageID(pg)))
	}
	s.admitAt(0, 1, 1.0, ops) // finishes at 12.0 if undisturbed
	// T3 writes y at 2.5 -> conflict at idx 1 takes the only shadow slot;
	// T3 commits late (12.5).
	s.admitAt(0, 3, 2.5, []model.Op{w(pY), w(model.PageID(60)), w(model.PageID(61)), w(model.PageID(62)), w(model.PageID(63))})
	// T2 writes z at 4.1 -> conflict at idx 2; LBFO: 2 > 1, ignored.
	// T2 commits at 8.2.
	s.admitAt(0, 2, 4.1, []model.Op{w(pZ), w(model.PageID(70))})

	s.rt.K.RunUntil(8.0)
	if sp := s.specOf(1, 2); sp != nil {
		t.Fatal("T2 conflict should be unaccounted (budget exhausted)")
	}
	spT3 := s.specOf(1, 3)
	if spT3 == nil || spT3.blockAt != 1 {
		t.Fatalf("T3 shadow = %v, want blockAt 1", spT3)
	}
	s.rt.K.RunUntil(8.3) // T2 commits at 8.2
	st := s.c.txns[1]
	if st == nil {
		t.Fatal("T1 vanished")
	}
	if st.opt != spT3.sh {
		t.Fatal("latest valid shadow (waiting for T3) was not promoted")
	}
	if s.rt.Metrics.Restarts != 0 {
		t.Fatal("case 2 must promote, not restart")
	}
	s.finish()
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartWhenNothingSurvives: with k=1 (no speculative shadows) a
// materialized conflict forces a from-scratch restart — the OCC-BC
// degenerate case.
func TestRestartWhenNothingSurvives(t *testing.T) {
	s := newScenario(t, 1, LBFO)
	s.admitAt(0, 1, 1.0, []model.Op{r(pX), r(pY), r(pZ), r(pA)})
	s.admitAt(0, 2, 1.5, []model.Op{w(pX), w(pQ)})
	s.finish()
	if s.rt.Metrics.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", s.rt.Metrics.Restarts)
	}
	if s.rt.Metrics.Promotions != 0 {
		t.Fatal("k=1 cannot promote")
	}
	if err := s.rt.History().Check(); err != nil {
		t.Fatal(err)
	}
}
