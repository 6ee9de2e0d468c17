package core

// Tests for the Sec. 2.1 extensions: per-transaction shadow budgets
// (SCC-AK) and priority-based shadow replacement.

import (
	"testing"

	"repro/internal/model"
	"repro/internal/rtdbs"
	"repro/internal/workload"
)

func TestValueRationedK(t *testing.T) {
	kf := ValueRationedK(200, 4, 2)
	hi := &model.Txn{Class: &model.Class{Value: 550}}
	lo := &model.Txn{Class: &model.Class{Value: 50}}
	if kf(hi) != 4 || kf(lo) != 2 {
		t.Fatalf("budget split wrong: hi=%d lo=%d", kf(hi), kf(lo))
	}
}

func TestAdaptiveSerializable(t *testing.T) {
	res := rtdbs.Run(rtdbs.Config{
		Workload: workload.TwoClass(110, 1), Target: 400, Warmup: 20,
		CheckReads: true, RecordHistory: true,
	}, newChecked(func() *SCC { return NewAdaptive(ValueRationedK(200, 4, 2), LBFO) }))
	if res.Truncated {
		t.Fatal("truncated")
	}
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Promotions == 0 {
		t.Fatal("adaptive SCC never promoted")
	}
}

func TestAdaptiveBudgetEnforcedPerClass(t *testing.T) {
	// With a hotspot, high-value transactions may hold up to 3 spec
	// shadows, low-value ones at most 1; the invariant checker (budget())
	// enforces exactly that on every event via SelfCheck.
	wl := workload.TwoClass(70, 2)
	wl.DBPages = 40
	res := rtdbs.Run(rtdbs.Config{
		Workload: wl, Target: 300, Warmup: 10,
		CheckReads: true, RecordHistory: true,
	}, newChecked(func() *SCC { return NewAdaptive(ValueRationedK(200, 4, 2), LBFO) }))
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveDegenerateBudgetClamped(t *testing.T) {
	// A budget function returning nonsense must clamp to k=1, not crash.
	res := rtdbs.Run(rtdbs.Config{
		Workload: workload.Baseline(80, 3), Target: 200, Warmup: 10,
		CheckReads: true, RecordHistory: true,
	}, newChecked(func() *SCC { return NewAdaptive(func(*model.Txn) int { return -5 }, LBFO) }))
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ShadowForks != 0 {
		t.Fatal("k clamped to 1 must fork nothing")
	}
}

func TestPriorityPolicySerializable(t *testing.T) {
	res := rtdbs.Run(rtdbs.Config{
		Workload: workload.Baseline(120, 4), Target: 400, Warmup: 20,
		CheckReads: true, RecordHistory: true,
	}, newChecked(func() *SCC { return NewKS(2, Priority) }))
	if res.Truncated {
		t.Fatal("truncated")
	}
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPriorityPolicyKeepsUrgentConflict builds the choice explicitly: the
// only shadow slot is held for a loose-deadline conflicter; a
// tight-deadline conflicter arrives and must take the slot under the
// Priority policy but not under FIFO.
func TestPriorityPolicyKeepsUrgentConflict(t *testing.T) {
	build := func(policy Policy) (sFIFO *scenario) {
		s := newScenario(t, 2, policy) // one speculative slot
		// T1 reads x,y + filler.
		ops := []model.Op{r(pX), r(pY)}
		for pg := 40; pg <= 47; pg++ {
			ops = append(ops, r(model.PageID(pg)))
		}
		s.admitAt(0, 1, 1.0, ops)
		// T3: loose deadline, writes x at 2.4 -> takes the slot.
		t3 := s.admitAt(0, 3, 2.4, []model.Op{w(pX), w(model.PageID(60)), w(model.PageID(61))})
		t3.Deadline = 1000
		// T2: tight deadline, writes y at 3.4.
		t2 := s.admitAt(0.2, 2, 3.2, []model.Op{w(pY), w(model.PageID(70)), w(model.PageID(71))})
		t2.Deadline = 5
		s.rt.K.RunUntil(4.0)
		return s
	}

	prio := build(Priority)
	if sp := prio.specOf(1, 2); sp == nil {
		t.Fatal("Priority policy did not cover the tight-deadline conflicter")
	}
	if sp := prio.specOf(1, 3); sp != nil {
		t.Fatal("Priority policy kept the loose-deadline shadow")
	}

	fifo := build(FIFO)
	if sp := fifo.specOf(1, 3); sp == nil {
		t.Fatal("FIFO must keep the first conflict")
	}
	if sp := fifo.specOf(1, 2); sp != nil {
		t.Fatal("FIFO must ignore the later conflict")
	}
}

// TestPolicyNamesDistinct: at one budget the three replacement policies
// report three names, so a Priority run is never printed as LBFO's SCC-kS.
func TestPolicyNamesDistinct(t *testing.T) {
	for _, k := range []int{2, 3} {
		seen := map[string]Policy{}
		for _, p := range []Policy{LBFO, FIFO, Priority} {
			name := NewKS(k, p).Name()
			if q, dup := seen[name]; dup {
				t.Fatalf("k=%d: policies %d and %d are both named %q", k, q, p, name)
			}
			seen[name] = p
		}
	}
}
