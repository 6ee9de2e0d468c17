package core

import (
	"testing"
	"testing/quick"

	"repro/internal/rtdbs"
	"repro/internal/workload"
)

func TestOBShadowCountPaperExample(t *testing.T) {
	// The paper's Fig. 3: three pairwise conflicting transactions require
	// five shadows per transaction under SCC-OB (T_3^0, T_3^1..T_3^4).
	if got := OBShadowCount(3); got != 5 {
		t.Fatalf("OBShadowCount(3) = %d, want 5 (Fig. 3)", got)
	}
}

func TestOBShadowCountSmall(t *testing.T) {
	// n=1: only the optimistic shadow. n=2: optimistic + one speculative.
	cases := map[int]int{1: 1, 2: 2, 4: 16, 5: 65}
	for n, want := range cases {
		if got := OBShadowCount(n); got != want {
			t.Fatalf("OBShadowCount(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestOBFactorialGrowth: the count grows faster than any fixed polynomial
// — the paper's argument for why SCC-OB is impractical.
func TestOBFactorialGrowth(t *testing.T) {
	prevRatio := 0.0
	for n := 3; n <= 9; n++ {
		ratio := float64(OBShadowCount(n)) / float64(OBShadowCount(n-1))
		if ratio <= prevRatio {
			t.Fatalf("growth ratio not increasing at n=%d (%.2f <= %.2f): not superexponential", n, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestCBBoundsLinearAndQuadratic(t *testing.T) {
	if CBLiveShadowBound(7) != 7 {
		t.Fatal("CB live bound must be n")
	}
	if CBTotalShadowBound(7) != 21 {
		t.Fatal("CB total bound must be n(n-1)/2")
	}
	// CB's bound is exponentially below OB's from modest n.
	if OBShadowCount(8) <= 100*CBTotalShadowBound(8) {
		t.Fatalf("OB (%d) should dwarf CB (%d) at n=8", OBShadowCount(8), CBTotalShadowBound(8))
	}
}

// Property: OBShadowCount dominates CB's bounds for every n >= 3, and all
// counts are positive.
func TestOBvsCBProperty(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%8) + 3 // 3..10
		ob := OBShadowCount(n)
		return ob > 0 && ob >= CBTotalShadowBound(n) && CBTotalShadowBound(n) >= CBLiveShadowBound(n)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCBRespectsLiveBound verifies the executable SCC-CB never holds more
// live shadows for a transaction than it has conflicting transactions
// (the paper's "no more than n shadows per transaction"). The invariant
// checker runs on every event; here we additionally sample live states.
func TestCBRespectsLiveBound(t *testing.T) {
	c := NewCB()
	c.SelfCheck = true
	wl := workload.Baseline(60, 21)
	wl.DBPages = 30
	wl.Classes[0].NumOps = 5
	rt := rtdbs.New(rtdbs.Config{
		Workload: wl, Target: 200, Warmup: 0,
		CheckReads: true,
	}, c)
	// Drive manually so we can sample mid-run.
	type starter interface{ Start() }
	_ = starter(nil)
	res := rtdbs.Run(rtdbs.Config{
		Workload: wl, Target: 200, Warmup: 0, CheckReads: true,
	}, c2forBoundCheck(t))
	_ = rt
	if res.Metrics.Committed < 200 {
		t.Fatalf("committed %d", res.Metrics.Committed)
	}
}

// c2forBoundCheck wraps SCC-CB with a per-event live-bound assertion.
type boundCheckCCM struct {
	*SCC
	t *testing.T
}

func c2forBoundCheck(t *testing.T) rtdbs.CCM {
	c := NewCB()
	c.SelfCheck = true
	return &boundCheckCCM{SCC: c, t: t}
}

func (b *boundCheckCCM) OnOpDone(sh *rtdbs.Shadow) {
	b.SCC.OnOpDone(sh)
	// The paper's bound: at any time at most n shadows per transaction,
	// n = number of conflicting (hence active) transactions. A shadow may
	// briefly outlive its conflict's evidence (the writer rolled back to
	// an earlier prefix) but never the conflicting transaction itself, so
	// the active population bounds the shadow set.
	nActive := len(b.SCC.rt.ActiveIDs())
	for id, st := range b.SCC.txns {
		if len(st.specs) > nActive-1 {
			b.t.Fatalf("txn %d holds %d speculative shadows with only %d other active transactions",
				id, len(st.specs), nActive-1)
		}
	}
}
