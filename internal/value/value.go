// Package value implements the value-cognizant machinery of Sec. 3 of the
// paper: value functions with penalty gradients (Defs. 1-2), per-class
// execution-time distributions and finish probabilities (Defs. 3-4), and
// the expected-finish / expected-value functions (Defs. 6-7) that SCC-DC's
// Termination Rule evaluates.
package value

import (
	"math"

	"repro/internal/dist"
)

// Shape selects a value function's post-deadline behavior. The zero
// value is the paper's Def. 2 linear decline; the other shapes are the
// soft-deadline families of the scenario matrix. Every shape is constant
// V before the deadline and monotone non-increasing after it — the
// invariant the wire codec (internal/server/opts) enforces, and what
// keeps ZeroCrossing meaningful as a shed horizon.
type Shape int

const (
	// The zero Shape declines at Gradient per second past the deadline
	// (Def. 2; may go negative, like model.Txn.Value).
	_ Shape = iota
	// ShapeCliff drops to zero immediately past the deadline (a hard
	// firm-deadline transaction: late work is worthless).
	ShapeCliff
	// ShapeStep retains V*StepFrac for one Window past the deadline,
	// then drops to zero (a grace period at reduced worth).
	ShapeStep
	// ShapeRenewal halves the value each Window past the deadline —
	// window k is worth V/2^(k+1) — for Renewals windows, then zero
	// (a deadline-renewal chain of ever-cheaper extensions).
	ShapeRenewal
)

// Fn is a Def. 2 value function: constant value v until the deadline,
// then a shape-dependent decline (linear at the penalty gradient by
// default).
type Fn struct {
	V        float64 // value when committed on time
	Deadline float64 // absolute soft deadline
	Gradient float64 // zero Shape: value lost per second past the deadline
	Shape    Shape
	Window   float64 // ShapeStep/ShapeRenewal: post-deadline window width, seconds
	StepFrac float64 // ShapeStep: fraction of V retained during the window
	Renewals int     // ShapeRenewal: number of half-value windows
}

// At returns V(t).
func (f Fn) At(t float64) float64 {
	if t <= f.Deadline {
		return f.V
	}
	switch f.Shape {
	case ShapeCliff:
		return 0
	case ShapeStep:
		if f.Window > 0 && t <= f.Deadline+f.Window {
			return f.V * f.StepFrac
		}
		return 0
	case ShapeRenewal:
		if f.Window <= 0 {
			return 0
		}
		k := int((t - f.Deadline) / f.Window)
		if k < f.Renewals {
			return f.V * math.Pow(0.5, float64(k+1))
		}
		return 0
	}
	return f.V - (t-f.Deadline)*f.Gradient
}

// ZeroCrossing returns the earliest time from which the function stays
// <= 0 (where late work stops being worth scheduling), or +Inf for a
// non-critical function that never reaches zero.
func (f Fn) ZeroCrossing() float64 {
	switch f.Shape {
	case ShapeCliff:
		return f.Deadline
	case ShapeStep:
		if f.Window <= 0 || f.StepFrac <= 0 {
			return f.Deadline
		}
		return f.Deadline + f.Window
	case ShapeRenewal:
		if f.Window <= 0 {
			return f.Deadline
		}
		return f.Deadline + float64(f.Renewals)*f.Window
	}
	if f.Gradient <= 0 {
		return math.Inf(1)
	}
	return f.Deadline + f.V/f.Gradient
}

// ExecDist is the per-class execution-time distribution behind the paper's
// finish probability density F_u(x) = P[execution time > x] (Def. 3).
//
// We model total execution time as a normal truncated below at Min (a
// transaction cannot finish faster than its access list allows). Mean and
// Sigma come from class statistics "obtained off-line from the previous
// history of the system" (Sec. 3.2).
type ExecDist struct {
	Mean  float64
	Sigma float64
	Min   float64
}

// Survival returns F_u(x) = P[exec > x], the paper's finish probability
// density function, with the truncation renormalized.
func (d ExecDist) Survival(x float64) float64 {
	if x <= d.Min {
		return 1
	}
	if d.Sigma <= 0 {
		if x < d.Mean {
			return 1
		}
		return 0
	}
	denom := dist.NormalSurvival(d.Min, d.Mean, d.Sigma)
	if denom <= 0 {
		return 0
	}
	s := dist.NormalSurvival(x, d.Mean, d.Sigma) / denom
	if s > 1 {
		return 1
	}
	return s
}

// FinishBy returns the Def. 4 shadow finish probability: the probability
// that a shadow which has already executed for tau time units finishes
// within the next dt units,
//
//	P[E <= tau+dt | E > tau] = (F(tau) - F(tau+dt)) / F(tau).
//
// dt < 0 returns 0 (cannot have finished in the past).
func (d ExecDist) FinishBy(tau, dt float64) float64 {
	if dt < 0 {
		return 0
	}
	ft := d.Survival(tau)
	if ft <= 0 {
		// The shadow has outlived the modeled distribution; treat the
		// remaining time as memoryless-at-zero: it finishes immediately.
		return 1
	}
	return (ft - d.Survival(tau+dt)) / ft
}

// TailHorizon returns the smallest x (in execution-time units) with
// Survival(x) <= eps. SCC-DC uses it to bound the infinite V_now/V_later
// summations: past this horizon a transaction has finished with
// probability >= 1-eps (the paper's l_i bound).
func (d ExecDist) TailHorizon(eps float64) float64 {
	if d.Sigma <= 0 {
		return math.Max(d.Mean, d.Min)
	}
	// Survival is monotone decreasing; bisect on [Min, Mean+10*Sigma].
	lo, hi := d.Min, d.Mean+10*d.Sigma
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if d.Survival(mid) > eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// ShadowState describes one shadow of a transaction for the expected-
// finish computation: how long it has executed and its adoption
// probability P_i_u(t) (Def. 5).
type ShadowState struct {
	Executed float64 // tau: accumulated execution time
	Adoption float64 // P_i_u(t)
	Finished bool    // a finished shadow contributes F=1 for any dt >= 0
}

// ExpectedFinish returns EF_u(now+dt) per Def. 6: the probability that
// some shadow of the transaction finishes within dt, as the adoption-
// weighted sum of per-shadow finish probabilities. Speculative shadows are
// assumed to resume immediately (paper footnote 6).
func ExpectedFinish(d ExecDist, shadows []ShadowState, dt float64) float64 {
	ef := 0.0
	for _, s := range shadows {
		if s.Finished {
			if dt >= 0 {
				ef += s.Adoption
			}
			continue
		}
		ef += s.Adoption * d.FinishBy(s.Executed, dt)
	}
	if ef > 1 {
		return 1
	}
	return ef
}

// ExpectedValue returns EV_u(x) = V_u(x) * EF_u(x) per Def. 7, where x is
// now+dt.
func ExpectedValue(f Fn, d ExecDist, shadows []ShadowState, now, dt float64) float64 {
	return f.At(now+dt) * ExpectedFinish(d, shadows, dt)
}

// Adoption computes the Def. 5 shadow adoption probabilities for a
// transaction u that conflicts with transactions r_1..r_m.
//
// vU is V_u(t); vConf[i] is V_{r_i}(t); pConf[i] is P_o_{r_i}(t), the
// adoption probability of each conflicting transaction's own optimistic
// shadow. It returns P_o_u(t) and P_i_u(t) for each conflict, which sum
// (with P_o_u) to at most 1.
//
// Negative values (transactions deep past their deadline) are clamped to a
// small positive floor first: the formula is a relative-worth weighting
// and breaks down with negative or all-zero weights.
func Adoption(vU float64, vConf, pConf []float64) (pOpt float64, pSpec []float64) {
	const floor = 1e-9
	clamp := func(v float64) float64 {
		if v < floor {
			return floor
		}
		return v
	}
	vU = clamp(vU)
	denom := vU
	for i := range vConf {
		denom += clamp(vConf[i]) * pConf[i]
	}
	pOpt = vU / denom
	pSpec = make([]float64, len(vConf))
	for i := range vConf {
		pSpec[i] = clamp(vConf[i]) * pConf[i] / denom
	}
	return pOpt, pSpec
}
