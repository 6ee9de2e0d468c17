package core

// OCC-BC and WAIT-50, the optimistic baselines of the evaluation, built
// on this runtime with k = 1.

import (
	"testing"

	"repro/internal/rtdbs"
)

func TestBCSerializable(t *testing.T) {
	for _, rate := range []float64{40, 120} {
		res := rtdbs.Run(cfg(rate, 1, 400), NewOCCBC())
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

func TestBCDeterministic(t *testing.T) {
	a := rtdbs.Run(cfg(80, 3, 300), NewOCCBC())
	b := rtdbs.Run(cfg(80, 3, 300), NewOCCBC())
	if *a.Metrics != *b.Metrics {
		t.Fatalf("nondeterministic OCC-BC:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

func TestBCRestartsUnderContention(t *testing.T) {
	res := rtdbs.Run(cfg(150, 2, 300), NewOCCBC())
	if res.Metrics.Restarts == 0 {
		t.Fatal("expected restarts at high load")
	}
	if res.Metrics.Promotions != 0 || res.Metrics.ShadowForks != 0 {
		t.Fatal("OCC-BC must not fork or promote shadows")
	}
}

func TestBCLowLoadFewMisses(t *testing.T) {
	res := rtdbs.Run(cfg(10, 4, 300), NewOCCBC())
	if mr := res.Metrics.MissedRatio(); mr > 5 {
		t.Fatalf("missed ratio at 10 tps = %v%%, want near zero", mr)
	}
}

func TestWait50Serializable(t *testing.T) {
	for _, rate := range []float64{40, 120} {
		res := rtdbs.Run(cfg(rate, 5, 400), NewWait50())
		if res.Truncated {
			t.Fatalf("rate %v: truncated", rate)
		}
		if err := res.History.Check(); err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
	}
}

func TestWait50Deterministic(t *testing.T) {
	a := rtdbs.Run(cfg(90, 6, 300), NewWait50())
	b := rtdbs.Run(cfg(90, 6, 300), NewWait50())
	if *a.Metrics != *b.Metrics {
		t.Fatalf("nondeterministic WAIT-50:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

func TestWait50ActuallyWaits(t *testing.T) {
	res := rtdbs.Run(cfg(130, 7, 400), NewWait50())
	if res.Metrics.CommitWaits == 0 {
		t.Fatal("WAIT-50 never deferred a commit under high contention")
	}
}

func TestWait50CompletesAtHighLoad(t *testing.T) {
	// The waiting rule must never wedge the system.
	res := rtdbs.Run(cfg(180, 8, 300), NewWait50())
	if res.Truncated {
		t.Fatal("WAIT-50 wedged at high load")
	}
	if res.Metrics.Committed != 300 {
		t.Fatalf("committed %d", res.Metrics.Committed)
	}
}

func TestWait50TardinessBeatsBCAtModerateLoad(t *testing.T) {
	// The paper's Fig. 13-b: WAIT-50's deadline cognizance gives it better
	// tardiness than OCC-BC at low/moderate loads. Use matched seeds.
	var bcT, wT float64
	for seed := int64(1); seed <= 3; seed++ {
		bc := rtdbs.Run(cfg(100, seed, 400), NewOCCBC())
		w50 := rtdbs.Run(cfg(100, seed, 400), NewWait50())
		bcT += bc.Metrics.AvgTardiness()
		wT += w50.Metrics.AvgTardiness()
	}
	if wT > bcT*1.5 {
		t.Fatalf("WAIT-50 tardiness %v much worse than OCC-BC %v at moderate load", wT/3, bcT/3)
	}
}
