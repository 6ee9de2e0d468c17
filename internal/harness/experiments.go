// This file holds the experiment registry: one entry per figure of the
// paper's Sec. 4 plus ablations of the design choices Secs. 2-3 leave
// open (shadow budget, replacement policy, adaptive budgets, the
// Termination Rule's approximation).

package harness

import (
	"fmt"
	"strings"

	"repro/internal/rtdbs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// paperRates are the arrival-rate sweep points of Figs. 13-15 (0..200
// transactions per second).
var paperRates = []float64{10, 25, 50, 75, 100, 125, 150, 175, 200}

// specs resolves the registry's protocol names, which are constants: an
// unknown one is a bug in this file.
func specs(names ...string) []ProtocolSpec {
	out := make([]ProtocolSpec, len(names))
	for i, n := range names {
		p, err := Protocol(n)
		if err != nil {
			panic("harness: " + err.Error())
		}
		out[i] = p
	}
	return out
}

func missedRatio(m *stats.Metrics) float64  { return m.MissedRatio() }
func avgTardiness(m *stats.Metrics) float64 { return m.AvgTardiness() }
func systemValue(m *stats.Metrics) float64  { return m.SystemValuePct() }

// Experiments returns the full registry keyed by experiment id.
func Experiments() map[string]*Experiment {
	full := func(e *Experiment) *Experiment {
		if e.Target == 0 {
			e.Target = 4000 // "each simulation runs until at least 4000 transactions had completed"
		}
		if e.Warmup == 0 {
			e.Warmup = 200
		}
		if e.Seeds == 0 {
			e.Seeds = 3 // replications for the 90% confidence intervals
		}
		if e.Rates == nil {
			e.Rates = paperRates
		}
		if e.Workload == nil {
			e.Workload = workload.Baseline
		}
		return e
	}
	reg := map[string]*Experiment{
		"fig13a": full(&Experiment{
			ID: "fig13a", Title: "Baseline Missed Ratio",
			Paper:  "SCC-2S lowest at all loads (≈1% @70, ≈30% @150); WAIT-50 collapses past ~125 (92% @150) above OCC-BC (78% @150); 2PL-PA worst, degrading earliest and steepest",
			Protos: specs("SCC-2S", "OCC-BC", "WAIT-50", "2PL-PA"),
			Metric: missedRatio, YLabel: "Missed Ratio (%)", YMin: 0, YMax: 100,
		}),
		"fig13b": full(&Experiment{
			ID: "fig13b", Title: "Baseline Average Tardiness",
			Paper:  "SCC-2S beats OCC-BC at every load; WAIT-50 has the best tardiness at low loads and loses it above ~125 txn/s; 2PL-PA worst (up to ~48s)",
			Protos: specs("SCC-2S", "OCC-BC", "WAIT-50", "2PL-PA"),
			Metric: avgTardiness, YLabel: "Average Tardiness (s)",
		}),
		"fig14a": full(&Experiment{
			ID: "fig14a", Title: "System Value, one class",
			Paper:  "SCC-VW only marginally above SCC-2S (speculation shrinks the payoff of deferment); both above OCC-BC and WAIT-50",
			Protos: specs("SCC-VW", "SCC-2S", "OCC-BC", "WAIT-50"),
			Metric: systemValue, YLabel: "System Value (%)", YMin: -100, YMax: 100,
		}),
		"fig14b": full(&Experiment{
			ID: "fig14b", Title: "System Value, two classes",
			Paper:    "with 10% long/tight/high-value transactions, SCC-VW clearly best: value cognizance pays off with heterogeneous classes",
			Workload: workload.TwoClass,
			Protos:   specs("SCC-VW", "SCC-2S", "OCC-BC", "WAIT-50"),
			Metric:   systemValue, YLabel: "System Value (%)", YMin: -100, YMax: 100,
		}),
		"fig15a": full(&Experiment{
			ID: "fig15a", Title: "SCC-VW Missed Ratio",
			Paper:  "SCC-VW misses MORE deadlines than SCC-2S (it maximizes value, not deadline satisfaction)",
			Protos: specs("SCC-VW", "SCC-2S", "OCC-BC", "WAIT-50"),
			Metric: missedRatio, YLabel: "Missed Ratio (%)", YMin: 0, YMax: 100,
		}),
		"fig15b": full(&Experiment{
			ID: "fig15b", Title: "SCC-VW Average Tardiness",
			Paper:  "but SCC-VW misses them by a SMALLER margin: lower average tardiness than SCC-2S",
			Protos: specs("SCC-VW", "SCC-2S", "OCC-BC", "WAIT-50"),
			Metric: avgTardiness, YLabel: "Average Tardiness (s)",
		}),
		"ablk": full(&Experiment{
			ID: "ablk", Title: "Ablation: shadow budget k (SCC-kS)",
			Paper:  "Sec. 2.1: k rations redundancy for timeliness; k=1 degenerates to OCC-BC, returns diminish with k",
			Protos: specs("SCC-kS(1)", "SCC-kS(2)", "SCC-kS(3)", "SCC-kS(5)"),
			Metric: missedRatio, YLabel: "Missed Ratio (%)", YMin: 0, YMax: 100,
		}),
		"ablpolicy": full(&Experiment{
			ID: "ablpolicy", Title: "Ablation: shadow replacement policy (LBFO / FIFO / Priority)",
			Paper:  "Sec. 2.1: LBFO covers the earliest conflicts; alternatives can use deadline/priority information to cover the most probable serialization orders",
			Protos: specs("SCC-kS(2)", "SCC-kS-FIFO(2)", "SCC-kS-PRIO(2)", "SCC-kS(3)", "SCC-kS-FIFO(3)", "SCC-kS-PRIO(3)"),
			Metric: missedRatio, YLabel: "Missed Ratio (%)", YMin: 0, YMax: 100,
		}),
		"ablak": full(&Experiment{
			ID: "ablak", Title: "Ablation: adaptive shadow budgets (SCC-AK) on two classes",
			Paper:    "Sec. 2.1: k rations redundancy by urgency/criticalness; giving high-value transactions more shadows should buy system value cheaper than raising k uniformly",
			Workload: workload.TwoClass,
			Protos:   specs("SCC-AK", "SCC-2S", "SCC-kS(4)", "SCC-CB"),
			Metric:   systemValue, YLabel: "System Value (%)", YMin: -100, YMax: 100,
		}),
		"abldelta": full(&Experiment{
			ID: "abldelta", Title: "Ablation: SCC-DC vs SCC-VW vs SCC-2S (system value)",
			Paper: "Sec. 3.2-3.3: DC is the exact (expensive) rule, VW its cheap approximation",
			// SCC-DC is evaluated in its stable region: at high load its
			// deferral bias inflates the active set and the O(active^2)
			// expected-value computation becomes impractical — which is
			// precisely why the paper introduces SCC-VW as "an
			// approximation heuristic to reduce the computational
			// complexity of SCC-DC" (Sec. 3.3).
			Rates:     []float64{25, 50, 75, 100},
			Target:    1200,
			Warmup:    100,
			MaxActive: 800,
			Protos:    specs("SCC-DC", "SCC-VW", "SCC-2S"),
			Metric:    systemValue, YLabel: "System Value (%)", YMin: -100, YMax: 100,
		}),
	}
	return reg
}

// ExperimentIDs returns the registry keys in report order.
func ExperimentIDs() []string {
	return []string{"fig13a", "fig13b", "fig14a", "fig14b", "fig15a", "fig15b", "ablk", "ablpolicy", "ablak", "abldelta"}
}

// SecondaryRow is one protocol's secondary measures (Sec. 4: restarts,
// wasted computation, and the SCC-specific counters that explain them).
type SecondaryRow struct {
	Protocol          string
	MissedRatio       float64
	AvgTardiness      float64
	RestartsPerCommit float64
	WastedFraction    float64
	Promotions        int
	ShadowForks       int
	CommitWaits       int
	PriorityAborts    int
}

// Secondary runs the secondary-measures table at a single contended rate.
func Secondary(rate float64, target int, quick bool) []SecondaryRow {
	if quick {
		target = 300
	}
	protos := specs("SCC-2S", "SCC-VW", "OCC-BC", "WAIT-50", "2PL-PA")
	rows := make([]SecondaryRow, len(protos))
	for i, p := range protos {
		cfg := rtdbs.Config{
			Workload:  workload.Baseline(rate, 1),
			Target:    target,
			Warmup:    target / 10,
			MaxActive: 4000,
		}
		res := rtdbs.Run(cfg, p.New())
		m := res.Metrics
		rows[i] = SecondaryRow{
			Protocol:          p.Name,
			MissedRatio:       m.MissedRatio(),
			AvgTardiness:      m.AvgTardiness(),
			RestartsPerCommit: m.RestartsPerCommit(),
			WastedFraction:    m.WastedFraction(),
			Promotions:        m.Promotions,
			ShadowForks:       m.ShadowForks,
			CommitWaits:       m.CommitWaits,
			PriorityAborts:    m.DeadlockAvert,
		}
	}
	return rows
}

// SecondaryTable formats the secondary measures.
func SecondaryTable(rows []SecondaryRow, rate float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "secondary measures at %.0f txn/s (baseline workload)\n", rate)
	fmt.Fprintf(&b, "%-10s %10s %10s %12s %10s %10s %10s %10s %10s\n",
		"protocol", "missed%", "tardy(s)", "restarts/c", "wasted", "promos", "forks", "waits", "p-aborts")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.2f %10.3f %12.3f %10.3f %10d %10d %10d %10d\n",
			r.Protocol, r.MissedRatio, r.AvgTardiness, r.RestartsPerCommit,
			r.WastedFraction, r.Promotions, r.ShadowForks, r.CommitWaits, r.PriorityAborts)
	}
	return b.String()
}

// ResourceRow is one (protocol, servers) sample of the resource ablation.
type ResourceRow struct {
	Protocol    string
	Servers     int // 0 = infinite
	MissedRatio float64
	Truncated   bool
}

// ResourceAblation tests the paper's Sec. 1 claim that SCC (like OCC)
// targets resource-rich systems: with operations queueing for a finite
// server pool, speculative shadows consume capacity that 2PL-PA's blocking
// conserves, so SCC's advantage should shrink as servers get scarce and
// grow as they abound.
func ResourceAblation(rate float64, servers []int, quick bool) []ResourceRow {
	target := 2000
	if quick {
		target = 300
	}
	var rows []ResourceRow
	for _, n := range servers {
		for _, p := range specs("SCC-2S", "OCC-BC", "2PL-PA") {
			res := rtdbs.Run(rtdbs.Config{
				Workload:  workload.Baseline(rate, 1),
				Target:    target,
				Warmup:    target / 10,
				MaxActive: 3000,
				Servers:   n,
			}, p.New())
			rows = append(rows, ResourceRow{
				Protocol: p.Name, Servers: n,
				MissedRatio: res.Metrics.MissedRatio(),
				Truncated:   res.Truncated,
			})
		}
	}
	return rows
}

// ResourceTable formats the resource ablation.
func ResourceTable(rows []ResourceRow, rate float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "resource ablation at %.0f txn/s: missed ratio %% by server-pool size\n", rate)
	fmt.Fprintf(&b, "%-10s", "servers")
	protos := []string{"SCC-2S", "OCC-BC", "2PL-PA"}
	for _, p := range protos {
		fmt.Fprintf(&b, " %12s", p)
	}
	b.WriteByte('\n')
	byKey := map[string]ResourceRow{}
	seen := map[int]bool{}
	var order []int
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.Protocol, r.Servers)] = r
		if !seen[r.Servers] {
			seen[r.Servers] = true
			order = append(order, r.Servers)
		}
	}
	for _, n := range order {
		label := fmt.Sprintf("%d", n)
		if n == 0 {
			label = "inf"
		}
		fmt.Fprintf(&b, "%-10s", label)
		for _, p := range protos {
			r := byKey[fmt.Sprintf("%s/%d", p, n)]
			cell := fmt.Sprintf("%.1f", r.MissedRatio)
			if r.Truncated {
				cell += "†"
			}
			fmt.Fprintf(&b, " %12s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
