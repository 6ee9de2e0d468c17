// Package harness defines and runs the paper's experiments: one
// Experiment per figure of Sec. 4, sweeping arrival rates over a set of
// protocols with replicated seeds, and formatting the results as tables
// and ASCII charts next to the paper's reported shapes. `sccsim -exp`
// (cmd/sccsim) runs them.
package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/pcc"
	"repro/internal/plot"
	"repro/internal/rtdbs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Delta is the Termination Rule period used by the value-cognizant
// protocols: a quarter of the baseline mean execution time.
const Delta = 0.06

// ProtocolSpec names a protocol and builds fresh CCM instances.
type ProtocolSpec struct {
	Name string
	New  func() rtdbs.CCM
}

// protocols are the protocols Protocol knows by a fixed name.
var protocols = []struct {
	name string
	new  func() rtdbs.CCM
}{
	{"2PL-PA", func() rtdbs.CCM { return pcc.New() }},
	{"OCC-BC", func() rtdbs.CCM { return core.NewOCCBC() }},
	{"WAIT-50", func() rtdbs.CCM { return core.NewWait50() }},
	{"SCC-2S", func() rtdbs.CCM { return core.NewTwoShadow() }},
	{"SCC-CB", func() rtdbs.CCM { return core.NewCB() }},
	// Ration redundancy by worth: high-value classes get 4 shadows,
	// routine ones 2 (Sec. 2.1's proposal).
	{"SCC-AK", func() rtdbs.CCM { return core.NewAdaptive(core.ValueRationedK(200, 4, 2), core.LBFO) }},
	{"SCC-VW", func() rtdbs.CCM { return core.NewVW(2, Delta) }},
	{"SCC-DC", func() rtdbs.CCM { return core.NewDC(2, Delta) }},
}

// kShadowFamilies are the SCC-kS protocols, one per shadow replacement
// policy: a name is the format with a shadow budget k >= 1 for %d.
var kShadowFamilies = []struct {
	format string
	policy core.Policy
}{
	{"SCC-kS(%d)", core.LBFO},
	{"SCC-kS-FIFO(%d)", core.FIFO},
	{"SCC-kS-PRIO(%d)", core.Priority},
}

// Protocol returns the named protocol's spec. Valid names: 2PL-PA, OCC-BC,
// WAIT-50, SCC-2S, SCC-CB, SCC-AK, SCC-VW, SCC-DC, and SCC-kS(<k>),
// SCC-kS-FIFO(<k>), SCC-kS-PRIO(<k>) for a shadow budget k >= 1. An
// unknown name's error lists them.
func Protocol(name string) (ProtocolSpec, error) {
	for _, p := range protocols {
		if p.name == name {
			return ProtocolSpec{Name: name, New: p.new}, nil
		}
	}
	for _, f := range kShadowFamilies {
		var k int
		if _, err := fmt.Sscanf(name, f.format, &k); err == nil && k >= 1 && fmt.Sprintf(f.format, k) == name {
			policy := f.policy
			return ProtocolSpec{Name: name, New: func() rtdbs.CCM { return core.NewKS(k, policy) }}, nil
		}
	}
	names := make([]string, 0, len(protocols)+len(kShadowFamilies))
	for _, p := range protocols {
		names = append(names, p.name)
	}
	for _, f := range kShadowFamilies {
		names = append(names, strings.Replace(f.format, "%d", "<k>", 1))
	}
	return ProtocolSpec{}, fmt.Errorf("unknown protocol %q (valid: %s)", name, strings.Join(names, " "))
}

// Experiment is one figure-style sweep: metric vs arrival rate per
// protocol.
type Experiment struct {
	ID       string
	Title    string
	Paper    string // the paper's reported shape, for the report
	Rates    []float64
	Workload func(rate float64, seed int64) workload.Config
	Protos   []ProtocolSpec
	Metric   func(*stats.Metrics) float64
	YLabel   string
	YMin     float64
	YMax     float64

	Target    int
	Warmup    int
	Seeds     int
	MaxActive int
}

// Point is one (rate, estimate) sample of a series.
type Point struct {
	Rate      float64
	Est       stats.Estimate
	Truncated bool // some seed hit the population cap (saturated regime)
}

// SeriesResult is one protocol's curve.
type SeriesResult struct {
	Protocol string
	Points   []Point
}

// Result is a completed experiment.
type Result struct {
	Exp    *Experiment
	Series []SeriesResult
}

// Run executes the sweep. quick scales the run down for tests and smoke
// benchmarks (fewer commits, seeds and rates) while keeping the shape.
func (e *Experiment) Run(quick bool) Result {
	target, warmup, seeds, rates := e.Target, e.Warmup, e.Seeds, e.Rates
	if quick {
		target, warmup, seeds = 250, 25, 2
		if len(rates) > 5 {
			idx := []int{0, len(rates) / 4, len(rates) / 2, 3 * len(rates) / 4, len(rates) - 1}
			var rs []float64
			for _, i := range idx {
				rs = append(rs, rates[i])
			}
			rates = rs
		}
	}
	maxActive := e.MaxActive
	if maxActive == 0 {
		maxActive = 4000
	}

	type job struct{ pi, ri, si int }
	type outcome struct {
		job
		metric    float64
		truncated bool
	}
	var jobs []job
	for pi := range e.Protos {
		for ri := range rates {
			for si := 0; si < seeds; si++ {
				jobs = append(jobs, job{pi, ri, si})
			}
		}
	}
	results := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for ji, j := range jobs {
		wg.Add(1)
		go func(ji int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cfg := rtdbs.Config{
				Workload:  e.Workload(rates[j.ri], int64(j.si)+1),
				Target:    target,
				Warmup:    warmup,
				MaxActive: maxActive,
			}
			res := rtdbs.Run(cfg, e.Protos[j.pi].New())
			results[ji] = outcome{job: j, metric: e.Metric(res.Metrics), truncated: res.Truncated}
		}(ji, j)
	}
	wg.Wait()

	out := Result{Exp: e}
	for pi, p := range e.Protos {
		sr := SeriesResult{Protocol: p.Name}
		for ri, rate := range rates {
			var xs []float64
			trunc := false
			for _, oc := range results {
				if oc.pi == pi && oc.ri == ri {
					xs = append(xs, oc.metric)
					trunc = trunc || oc.truncated
				}
			}
			sort.Float64s(xs)
			sr.Points = append(sr.Points, Point{Rate: rate, Est: stats.Aggregate(xs), Truncated: trunc})
		}
		out.Series = append(out.Series, sr)
	}
	return out
}

// Table renders the result as an aligned text table (one row per rate, one
// column per protocol; saturated points are marked with †).
func (r Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", r.Exp.ID, r.Exp.Title, r.Exp.YLabel)
	fmt.Fprintf(&b, "%-8s", "rate")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %16s", s.Protocol)
	}
	b.WriteByte('\n')
	for ri := range r.Series[0].Points {
		fmt.Fprintf(&b, "%-8.0f", r.Series[0].Points[ri].Rate)
		for _, s := range r.Series {
			p := s.Points[ri]
			cell := p.Est.String()
			if p.Truncated {
				cell += "†"
			}
			fmt.Fprintf(&b, " %16s", cell)
		}
		b.WriteByte('\n')
	}
	if anyTruncated(r) {
		b.WriteString("† saturated: arrival rate exceeded sustainable throughput; metric taken over the commits before the population cap\n")
	}
	return b.String()
}

func anyTruncated(r Result) bool {
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Truncated {
				return true
			}
		}
	}
	return false
}

// Chart renders the result as an ASCII chart.
func (r Result) Chart() string {
	c := plot.Chart{
		Title:  fmt.Sprintf("%s — %s", r.Exp.ID, r.Exp.Title),
		XLabel: "arrival rate (txn/s)",
		YLabel: r.Exp.YLabel,
		YMin:   r.Exp.YMin,
		YMax:   r.Exp.YMax,
	}
	for _, s := range r.Series {
		var xs, ys []float64
		for _, p := range s.Points {
			xs = append(xs, p.Rate)
			ys = append(ys, p.Est.Mean)
		}
		c.Series = append(c.Series, plot.Series{Label: s.Protocol, X: xs, Y: ys})
	}
	return c.Render()
}
