// Package stats collects the performance measures of Sec. 4: Missed Ratio,
// Average Tardiness and System Value as primary measures, plus the
// secondary measures (restarts, wasted computation) the paper uses to
// explain protocol behaviour, and Student-t confidence intervals across
// replicated runs.
package stats

import (
	"fmt"
	"math"
)

// Metrics accumulates the outcome of one simulation run.
type Metrics struct {
	Committed    int     // transactions committed
	Missed       int     // committed after their deadline
	TardinessSum float64 // sum over committed of max(0, commit - deadline)
	ValueSum     float64 // sum of V_u(commit time)
	MaxValueSum  float64 // sum of v_u (value if everything committed on time)

	Restarts      int     // from-scratch restarts (OCC aborts, 2PL-PA aborts)
	Promotions    int     // SCC shadow promotions (aborts avoided)
	ShadowForks   int     // speculative shadows created
	ShadowAborts  int     // speculative shadows aborted before promotion
	WastedTime    float64 // execution time of aborted shadows/runs
	UsefulTime    float64 // execution time of committed shadows
	CommitWaits   int     // commits deferred at least once (WAIT-50, DC, VW)
	BlockedWaits  int     // times a shadow blocked (2PL queue or SCC block point)
	DeadlockAvert int     // 2PL-PA priority aborts issued
}

// MissedRatio returns the percentage of committed transactions that missed
// their deadline.
func (m *Metrics) MissedRatio() float64 {
	if m.Committed == 0 {
		return 0
	}
	return 100 * float64(m.Missed) / float64(m.Committed)
}

// AvgTardiness returns the mean tardiness in seconds over committed
// transactions (on-time transactions contribute zero, matching the paper's
// definition).
func (m *Metrics) AvgTardiness() float64 {
	if m.Committed == 0 {
		return 0
	}
	return m.TardinessSum / float64(m.Committed)
}

// SystemValuePct returns accrued value as a percentage of the maximum
// attainable value, clamped below at -100 to match the paper's Fig. 14
// axis (value losses beyond one full workload's worth saturate the plot).
func (m *Metrics) SystemValuePct() float64 {
	if m.MaxValueSum == 0 {
		return 0
	}
	v := 100 * m.ValueSum / m.MaxValueSum
	if v < -100 {
		return -100
	}
	return v
}

// WastedFraction returns wasted execution time as a fraction of all
// execution time spent.
func (m *Metrics) WastedFraction() float64 {
	total := m.WastedTime + m.UsefulTime
	if total == 0 {
		return 0
	}
	return m.WastedTime / total
}

// RestartsPerCommit returns the average number of from-scratch restarts
// per committed transaction.
func (m *Metrics) RestartsPerCommit() float64 {
	if m.Committed == 0 {
		return 0
	}
	return float64(m.Restarts) / float64(m.Committed)
}

// Welford is an online mean/variance accumulator.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add accumulates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Var()) }

// tTable90 holds two-sided 90% Student-t critical values by degrees of
// freedom (index = df); df > 30 uses the normal approximation 1.645.
var tTable90 = []float64{
	0, 6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
	1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729,
	1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
}

// TCrit90 returns the two-sided 90% critical value for df degrees of
// freedom.
func TCrit90(df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(tTable90) {
		return tTable90[df]
	}
	return 1.645
}

// CI90 returns the half-width of the 90% confidence interval of the mean.
func (w *Welford) CI90() float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return TCrit90(w.n-1) * w.StdDev() / math.Sqrt(float64(w.n))
}

// Estimate is a mean with a 90% confidence half-width, produced by
// aggregating one measure across seeds.
type Estimate struct {
	Mean float64
	CI   float64
	N    int
}

func (e Estimate) String() string {
	if math.IsInf(e.CI, 1) {
		return fmt.Sprintf("%.2f", e.Mean)
	}
	return fmt.Sprintf("%.2f±%.2f", e.Mean, e.CI)
}

// Aggregate reduces per-seed observations to an Estimate.
func Aggregate(xs []float64) Estimate {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return Estimate{Mean: w.Mean(), CI: w.CI90(), N: w.N()}
}
