package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMetricsRatios(t *testing.T) {
	m := &Metrics{Committed: 200, Missed: 30, TardinessSum: 10, ValueSum: 5000, MaxValueSum: 20000}
	if got := m.MissedRatio(); got != 15 {
		t.Fatalf("MissedRatio = %v, want 15", got)
	}
	if got := m.AvgTardiness(); got != 0.05 {
		t.Fatalf("AvgTardiness = %v, want 0.05", got)
	}
	if got := m.SystemValuePct(); got != 25 {
		t.Fatalf("SystemValuePct = %v, want 25", got)
	}
}

func TestMetricsEmpty(t *testing.T) {
	m := &Metrics{}
	if m.MissedRatio() != 0 || m.AvgTardiness() != 0 || m.SystemValuePct() != 0 ||
		m.WastedFraction() != 0 || m.RestartsPerCommit() != 0 {
		t.Fatal("empty metrics must return zeros, not NaN")
	}
}

func TestSystemValueClamp(t *testing.T) {
	m := &Metrics{ValueSum: -1e9, MaxValueSum: 1000}
	if got := m.SystemValuePct(); got != -100 {
		t.Fatalf("SystemValuePct = %v, want clamp at -100", got)
	}
}

func TestWastedFraction(t *testing.T) {
	m := &Metrics{WastedTime: 1, UsefulTime: 3}
	if got := m.WastedFraction(); got != 0.25 {
		t.Fatalf("WastedFraction = %v, want 0.25", got)
	}
}

func TestWelfordAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	var w Welford
	sum := 0.0
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
		sum += xs[i]
	}
	mean := sum / float64(len(xs))
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("Welford mean %v, direct %v", w.Mean(), mean)
	}
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	direct := varSum / float64(len(xs)-1)
	if math.Abs(w.Var()-direct) > 1e-9 {
		t.Fatalf("Welford var %v, direct %v", w.Var(), direct)
	}
}

func TestWelfordSmallN(t *testing.T) {
	var w Welford
	if w.Var() != 0 {
		t.Fatal("variance of empty accumulator must be 0")
	}
	w.Add(5)
	if w.Var() != 0 || w.Mean() != 5 {
		t.Fatal("single observation: var 0, mean x")
	}
	if !math.IsInf(w.CI90(), 1) {
		t.Fatal("CI with n<2 must be infinite")
	}
}

func TestTCrit90(t *testing.T) {
	if got := TCrit90(1); got != 6.314 {
		t.Fatalf("TCrit90(1) = %v", got)
	}
	if got := TCrit90(4); got != 2.132 {
		t.Fatalf("TCrit90(4) = %v", got)
	}
	if got := TCrit90(100); got != 1.645 {
		t.Fatalf("TCrit90(100) = %v", got)
	}
	if !math.IsInf(TCrit90(0), 1) {
		t.Fatal("TCrit90(0) must be infinite")
	}
}

func TestCI90CoversTrueMean(t *testing.T) {
	// With normally distributed seeds, the 90% CI should cover the true
	// mean about 90% of the time. Allow generous slack: this is a sanity
	// check of the formula, not a calibration experiment.
	rng := rand.New(rand.NewSource(7))
	covered := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		var w Welford
		for i := 0; i < 8; i++ {
			w.Add(rng.NormFloat64()*2 + 50)
		}
		if math.Abs(w.Mean()-50) <= w.CI90() {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("90%% CI covered true mean %.1f%% of the time", 100*frac)
	}
}

func TestAggregate(t *testing.T) {
	e := Aggregate([]float64{10, 12, 14})
	if e.Mean != 12 || e.N != 3 {
		t.Fatalf("Aggregate = %+v", e)
	}
	if e.CI <= 0 {
		t.Fatalf("CI = %v, want positive", e.CI)
	}
	s := e.String()
	if s == "" {
		t.Fatal("empty String")
	}
	single := Aggregate([]float64{5})
	if single.String() != "5.00" {
		t.Fatalf("single-run String = %q, want bare mean", single.String())
	}
}

// Property: Welford mean is always within [min, max] of inputs.
func TestWelfordMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		lo, hi := math.Inf(1), math.Inf(-1)
		ok := false
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue
			}
			ok = true
			w.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if !ok {
			return true
		}
		return w.Mean() >= lo-1e-6 && w.Mean() <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is never negative.
func TestWelfordVarNonNegative(t *testing.T) {
	f := func(xs []float32) bool {
		var w Welford
		for _, x := range xs {
			w.Add(float64(x))
		}
		return w.Var() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
