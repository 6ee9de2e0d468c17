package core

import (
	"testing"

	"repro/internal/model"
	"repro/internal/rtdbs"
	"repro/internal/workload"
)

func cfg(rate float64, seed int64, target int) rtdbs.Config {
	return rtdbs.Config{
		Workload:      workload.Baseline(rate, seed),
		Target:        target,
		Warmup:        20,
		CheckReads:    true,
		RecordHistory: true,
	}
}

func newChecked(mk func() *SCC) *SCC {
	c := mk()
	c.SelfCheck = true
	return c
}

func TestTwoShadowSerializable(t *testing.T) {
	for _, rate := range []float64{40, 120} {
		res := rtdbs.Run(cfg(rate, 1, 400), newChecked(NewTwoShadow))
		if res.Truncated {
			t.Fatalf("rate %v: truncated", rate)
		}
		if err := res.History.Check(); err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if res.Metrics.Committed != 400 {
			t.Fatalf("rate %v: committed %d", rate, res.Metrics.Committed)
		}
	}
}

func TestKShadowSerializableAcrossK(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		k := k
		res := rtdbs.Run(cfg(100, 2, 300), newChecked(func() *SCC { return NewKS(k, LBFO) }))
		if res.Truncated {
			t.Fatalf("k=%d: truncated", k)
		}
		if err := res.History.Check(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestFIFOPolicySerializable(t *testing.T) {
	res := rtdbs.Run(cfg(110, 3, 300), newChecked(func() *SCC { return NewKS(3, FIFO) }))
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	a := rtdbs.Run(cfg(90, 4, 300), NewTwoShadow())
	b := rtdbs.Run(cfg(90, 4, 300), NewTwoShadow())
	if *a.Metrics != *b.Metrics {
		t.Fatalf("nondeterministic SCC-2S:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

func TestPromotionsHappen(t *testing.T) {
	res := rtdbs.Run(cfg(130, 5, 400), newChecked(NewTwoShadow))
	m := res.Metrics
	if m.ShadowForks == 0 {
		t.Fatal("no speculative shadows forked under contention")
	}
	if m.Promotions == 0 {
		t.Fatal("no promotions under contention")
	}
	if m.BlockedWaits == 0 {
		t.Fatal("speculative shadows never blocked")
	}
}

func TestK1DegeneratesToRestarts(t *testing.T) {
	// k=1 has no speculative budget: every materialized conflict is a
	// from-scratch restart, exactly OCC-BC behaviour.
	res := rtdbs.Run(cfg(130, 6, 300), newChecked(func() *SCC { return NewKS(1, LBFO) }))
	m := res.Metrics
	if m.ShadowForks != 0 || m.Promotions != 0 {
		t.Fatalf("k=1 forked %d promoted %d, want 0/0", m.ShadowForks, m.Promotions)
	}
	if m.Restarts == 0 {
		t.Fatal("k=1 must restart under contention")
	}
}

// TestSCCBeatsOCCOnMissedRatio is the paper's headline claim (Fig. 13-a):
// speculation resumes conflicting transactions from their block point
// instead of restarting them, so SCC-2S misses fewer deadlines than OCC-BC
// under contention. Compare on matched seeds at a contended load.
func TestSCCBeatsOCCOnMissedRatio(t *testing.T) {
	var sccMiss, occMiss float64
	for seed := int64(1); seed <= 3; seed++ {
		scc := rtdbs.Run(cfg(140, seed, 400), NewTwoShadow())
		if scc.Truncated {
			t.Fatal("SCC truncated")
		}
		sccMiss += scc.Metrics.MissedRatio()
		occR := rtdbs.Run(cfg(140, seed, 400), NewOCCBC())
		occMiss += occR.Metrics.MissedRatio()
	}
	if sccMiss >= occMiss {
		t.Fatalf("SCC-2S missed %.1f%% vs OCC-BC %.1f%% (summed over seeds): speculation gave no benefit", sccMiss/3, occMiss/3)
	}
}

// TestRestartsReducedByK: more speculative shadows -> fewer from-scratch
// restarts (Sec. 2.1: k trades resources for timeliness).
func TestRestartsReducedByK(t *testing.T) {
	prev := -1
	for _, k := range []int{1, 2, 4} {
		k := k
		total := 0
		for seed := int64(1); seed <= 3; seed++ {
			res := rtdbs.Run(cfg(130, seed, 300), func() rtdbs.CCM { return NewKS(k, LBFO) }())
			total += res.Metrics.Restarts
		}
		if prev >= 0 && total > prev {
			t.Fatalf("k=%d produced more restarts (%d) than smaller k (%d)", k, total, prev)
		}
		prev = total
	}
}

func TestHotspotStress(t *testing.T) {
	// A tiny database maximizes multi-way conflicts: every rule fires
	// constantly; run with invariants checked and verify the history.
	wl := workload.Baseline(60, 7)
	wl.DBPages = 24
	wl.Classes[0].NumOps = 6
	res := rtdbs.Run(rtdbs.Config{
		Workload: wl, Target: 400, Warmup: 10,
		CheckReads: true, RecordHistory: true,
	}, newChecked(func() *SCC { return NewKS(4, LBFO) }))
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Promotions == 0 {
		t.Fatal("hotspot produced no promotions")
	}
}

func TestHotspotStress2S(t *testing.T) {
	wl := workload.Baseline(70, 8)
	wl.DBPages = 16
	wl.Classes[0].NumOps = 5
	res := rtdbs.Run(rtdbs.Config{
		Workload: wl, Target: 400, Warmup: 10,
		CheckReads: true, RecordHistory: true,
	}, newChecked(NewTwoShadow))
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestWastedWorkLowerThanOCC(t *testing.T) {
	// Promotions save the prefix before the first conflict; SCC should
	// waste less execution time than pure-restart (k=1) at the same load.
	var sccWaste, occWaste float64
	for seed := int64(1); seed <= 3; seed++ {
		scc := rtdbs.Run(cfg(130, seed, 300), NewTwoShadow())
		occ := rtdbs.Run(cfg(130, seed, 300), NewKS(1, LBFO))
		// Compare wasted fraction: SCC also burns time executing shadows
		// that are later discarded, so compare like-for-like fractions.
		sccWaste += scc.Metrics.WastedTime / (scc.Metrics.WastedTime + scc.Metrics.UsefulTime)
		occWaste += occ.Metrics.WastedTime / (occ.Metrics.WastedTime + occ.Metrics.UsefulTime)
	}
	t.Logf("wasted fraction: SCC-2S %.3f, restart-only %.3f", sccWaste/3, occWaste/3)
	// No hard assertion beyond sanity: SCC trades redundant work for
	// timeliness, so its raw wasted fraction may exceed OCC's; what must
	// hold is that both are finite and the run completed.
	if sccWaste <= 0 || occWaste <= 0 {
		t.Fatal("wasted-time accounting broken")
	}
}

func TestInvariantCheckerCatchesCorruption(t *testing.T) {
	c := NewTwoShadow()
	rt := rtdbs.New(cfg(60, 9, 50), c)
	tx := &model.Txn{
		ID:     1,
		Class:  &workload.Baseline(60, 9).Classes[0],
		Ops:    []model.Op{{Page: 1}, {Page: 2}},
		OpTime: 0.01, Deadline: 1,
	}
	rt.Admit(tx)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	// Corrupt: give the transaction more specs than its budget allows.
	st := c.txns[tx.ID]
	for i := 0; i < 5; i++ {
		id := model.TxnID(10000 + i)
		st.specs = append(st.specs, &spec{sh: st.opt, waitFor: id, blockAt: 1})
	}
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("invariant checker accepted corrupted shadow sets")
	}
}

func TestCBUnboundedShadows(t *testing.T) {
	// SCC-CB gives every conflict its own shadow; under a hotspot it must
	// hold at most one shadow per conflicting transaction and never use
	// LBFO replacement (nothing is ever evicted for budget reasons).
	wl := workload.Baseline(60, 11)
	wl.DBPages = 24
	wl.Classes[0].NumOps = 6
	res := rtdbs.Run(rtdbs.Config{
		Workload: wl, Target: 300, Warmup: 10,
		CheckReads: true, RecordHistory: true,
	}, newChecked(NewCB))
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Promotions == 0 {
		t.Fatal("SCC-CB never promoted under a hotspot")
	}
}

func TestCBNoWorseThan2S(t *testing.T) {
	// More shadows can only improve conflict coverage: SCC-CB should not
	// restart more than SCC-2S on matched seeds.
	var cb, s2 int
	for seed := int64(1); seed <= 3; seed++ {
		cb += rtdbs.Run(cfg(130, seed, 300), NewCB()).Metrics.Restarts
		s2 += rtdbs.Run(cfg(130, seed, 300), NewTwoShadow()).Metrics.Restarts
	}
	if cb > s2 {
		t.Fatalf("SCC-CB restarted more (%d) than SCC-2S (%d)", cb, s2)
	}
}
