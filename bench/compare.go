package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// manifestFile is the part of BENCHMARK.json the comparator reads.
type manifestFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bounded `json:"end_to_end"`
}

// bounded is one end-to-end metric with the share of the baseline's
// median by which it may get worse before that counts as a regression.
type bounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// absFloor is the absolute change a metric must also exceed to count as
// regressed: a tenth of a 50 ms set-up is not worth a red row.
var absFloor = map[string]float64{"setup_s": 0.25}

// failedPctBound is failed_pct's bound. It is absolute (percentage
// points), not relative, because the expected value is 0 — which is also
// why BENCHMARK.json, whose bounds are shares of a median, cannot list it.
const failedPctBound = 0.1

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// quartiles returns the three quartile cut points of values the way
// Python's statistics.quantiles(values, n=4) does (exclusive method).
// Fewer than two values have no spread: all three are the single value.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // may leave [0,4]: the ends extrapolate
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// judge compares the runs of one metric on one workload. The change is
// measured between medians in the direction that is worse. A spread
// wider than the bound on either side means the runs cannot resolve a
// change of that size, so the row is unresolved rather than ok.
func judge(b bounded, base, cand []float64) (v verdict, worse, widest float64) {
	_, mb, _ := quartiles(base)
	_, mc, _ := quartiles(cand)
	diff := mc - mb
	if b.Better == "higher" {
		diff = -diff
	}
	worse = ratio(diff, mb)
	widest = max(spread(base), spread(cand))
	switch {
	case widest > b.Bound:
		v = verdictUnresolved
	case worse > b.Bound && diff > absFloor[b.Name]:
		v = verdictRegressed
	default:
		v = verdictOK
	}
	return v, worse, widest
}

// judgeFailed is judge for failed_pct, whose bound is absolute.
func judgeFailed(base, cand []float64) (verdict, float64) {
	_, mb, _ := quartiles(base)
	_, mc, _ := quartiles(cand)
	if mc-mb > failedPctBound {
		return verdictRegressed, mc - mb
	}
	return verdictOK, mc - mb
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the process exit code: 1 when any row regressed.
func compareFiles(manifestPath, basePath, candPath string) int {
	var mf manifestFile
	var base, cand resultFile
	for path, into := range map[string]any{manifestPath: &mf, basePath: &base, candPath: &cand} {
		if err := readJSON(path, into); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	fmt.Printf("base %s\n     %s\ncand %s\n     %s\n", basePath, mustJSON(base.Env), candPath, mustJSON(cand.Env))
	fmt.Printf("%-14s %-16s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "base", "cand", "worse", "spread", "bound", "verdict")
	code := 0
	for _, w := range mf.Workloads {
		bw, cw := base.Workloads[w.Name], cand.Workloads[w.Name]
		if bw == nil || cw == nil {
			fmt.Printf("%-14s missing from a result file\n", w.Name)
			code = 2
			continue
		}
		for _, b := range mf.EndToEnd {
			bs, cs := bw.EndToEnd[b.Name], cw.EndToEnd[b.Name]
			if bs == nil || cs == nil {
				fmt.Printf("%-14s %-16s missing from a result file\n", w.Name, b.Name)
				code = 2
				continue
			}
			v, worse, widest := judge(b, bs.Values, cs.Values)
			_, mb, _ := quartiles(bs.Values)
			_, mc, _ := quartiles(cs.Values)
			fmt.Printf("%-14s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, b.Name, mb, mc, 100*worse, 100*widest, 100*b.Bound, v)
			if v == verdictRegressed && code == 0 {
				code = 1
			}
		}
		if bs, cs := bw.EndToEnd["failed_pct"], cw.EndToEnd["failed_pct"]; bs != nil && cs != nil {
			v, diff := judgeFailed(bs.Values, cs.Values)
			_, mb, _ := quartiles(bs.Values)
			_, mc, _ := quartiles(cs.Values)
			fmt.Printf("%-14s %-16s %12.4f %12.4f %+6.2fpp %8s %5.1fpp  %s\n",
				w.Name, "failed_pct", mb, mc, diff, "-", failedPctBound, v)
			if v == verdictRegressed && code == 0 {
				code = 1
			}
		}
	}
	return code
}
