// Command sccsim runs the discrete-event RTDBS simulator (internal/rtdbs)
// in one of three modes, chosen by which flag is set:
//
//	sccsim -exp fig13a              # one Sec. 4 sweep (Figs. 13-15), full scale
//	sccsim -exp all -quick          # every sweep and table, scaled down
//	sccsim -exp fig14b -nochart     # table only
//	sccsim -fig 2b                  # replay one of the Sec. 2 schedules (Figs. 1-8)
//	sccsim -fig all
//	sccsim -protocol SCC-2S -rate 120 -txns 4000   # neither: one run, every measure
//	sccsim -protocol "SCC-kS(4)" -rate 150 -pages 500 -ops 24 -writeprob 0.4
//	sccsim -protocol SCC-VW -rate 100 -twoclass -check
//
// Full-scale sweeps use the paper's parameters (4000 committed
// transactions per point, 3 seeds, rates 10..200 txn/s) and can take
// several minutes; -quick keeps the shape at a fraction of the cost. An
// unknown -exp, -fig or -protocol exits 2 with the list of valid names.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/rtdbs"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes results to out and
// diagnostics to stderr, and returns the exit status.
func run(args []string, out, stderr io.Writer) int {
	exps := append(harness.ExperimentIDs(), "secondary", "ablres")
	figs := make([]string, len(figures))
	for i, f := range figures {
		figs[i] = f.id
	}
	fs := flag.NewFlagSet("sccsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "run an experiment: "+strings.Join(exps, " ")+", or all")
	fig := fs.String("fig", "", "replay a figure's schedule: "+strings.Join(figs, " ")+", or all")
	quick := fs.Bool("quick", false, "-exp: scaled-down run (fewer commits, seeds, rates)")
	nochart := fs.Bool("nochart", false, "-exp: suppress ASCII charts")
	rate := fs.Float64("rate", 100, "arrival rate (txn/s) of the single run and of -exp secondary and ablres")
	proto := fs.String("protocol", "SCC-2S", "single run: protocol name")
	txns := fs.Int("txns", 4000, "single run: committed transactions to measure")
	warmup := fs.Int("warmup", 200, "single run: warm-up commits excluded from metrics")
	seed := fs.Int64("seed", 1, "single run: random seed")
	pages := fs.Int("pages", 1000, "single run: database size in pages")
	ops := fs.Int("ops", 16, "single run: page accesses per transaction")
	writeProb := fs.Float64("writeprob", 0.25, "single run: probability an access is a write")
	slack := fs.Float64("slack", 2, "single run: deadline slack factor")
	twoClass := fs.Bool("twoclass", false, "single run: use the two-class value mix of Fig. 14(b)")
	check := fs.Bool("check", false, "single run: verify serializability of the committed history")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	switch {
	case *exp != "" && *fig != "":
		fmt.Fprintln(stderr, "sccsim: set -exp or -fig, not both")
		return 2
	case *exp != "":
		if *exp != "all" && !slices.Contains(exps, *exp) {
			fmt.Fprintf(stderr, "sccsim: unknown experiment %q (valid: %s all)\n", *exp, strings.Join(exps, " "))
			return 2
		}
		for _, id := range exps {
			if *exp == "all" || *exp == id {
				runExperiment(out, id, *rate, *quick, *nochart)
			}
		}
		return 0
	case *fig != "":
		if *fig != "all" && !slices.Contains(figs, *fig) {
			fmt.Fprintf(stderr, "sccsim: unknown figure %q (valid: %s all)\n", *fig, strings.Join(figs, " "))
			return 2
		}
		for _, f := range figures {
			if *fig != "all" && *fig != f.id {
				continue
			}
			if err := replay(out, f); err != nil {
				fmt.Fprintf(stderr, "sccsim: fig %s: %v\n", f.id, err)
				return 1
			}
		}
		return 0
	}

	spec, err := harness.Protocol(*proto)
	if err != nil {
		fmt.Fprintf(stderr, "sccsim: %v\n", err)
		return 2
	}
	var wl workload.Config
	if *twoClass {
		wl = workload.TwoClass(*rate, *seed)
	} else {
		wl = workload.Baseline(*rate, *seed)
		wl.DBPages = *pages
		wl.Classes[0].NumOps = *ops
		wl.Classes[0].WriteProb = *writeProb
		wl.Classes[0].SlackFactor = *slack
	}
	if err := wl.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	res := rtdbs.Run(rtdbs.Config{
		Workload:      wl,
		Target:        *txns,
		Warmup:        *warmup,
		CheckReads:    *check,
		RecordHistory: *check,
		MaxActive:     8000,
	}, spec.New())
	m := res.Metrics
	fmt.Fprintf(out, "protocol           %s\n", res.Protocol)
	fmt.Fprintf(out, "arrival rate       %.1f txn/s\n", *rate)
	fmt.Fprintf(out, "simulated time     %.1f s\n", float64(res.SimTime))
	fmt.Fprintf(out, "committed          %d (warm-up excluded: %d)\n", m.Committed, *warmup)
	if res.Truncated {
		fmt.Fprintf(out, "NOTE               saturated: population cap reached before the target\n")
	}
	fmt.Fprintf(out, "missed ratio       %.2f %%\n", m.MissedRatio())
	fmt.Fprintf(out, "avg tardiness      %.3f s\n", m.AvgTardiness())
	fmt.Fprintf(out, "system value       %.1f %%\n", m.SystemValuePct())
	fmt.Fprintf(out, "restarts           %d (%.3f per commit)\n", m.Restarts, m.RestartsPerCommit())
	fmt.Fprintf(out, "wasted fraction    %.3f\n", m.WastedFraction())
	fmt.Fprintf(out, "shadow forks       %d\n", m.ShadowForks)
	fmt.Fprintf(out, "shadow aborts      %d\n", m.ShadowAborts)
	fmt.Fprintf(out, "promotions         %d\n", m.Promotions)
	fmt.Fprintf(out, "commit waits       %d\n", m.CommitWaits)
	fmt.Fprintf(out, "blocked waits      %d\n", m.BlockedWaits)
	fmt.Fprintf(out, "priority aborts    %d\n", m.DeadlockAvert)
	if *check {
		if err := res.History.Check(); err != nil {
			fmt.Fprintf(stderr, "SERIALIZABILITY VIOLATION: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "serializability    OK (%d commits verified)\n", res.History.Len())
	}
	return 0
}

// runExperiment prints one -exp id: a registry sweep as a table (and
// chart), or the secondary-measures or finite-resource table at rate.
func runExperiment(out io.Writer, id string, rate float64, quick, nochart bool) {
	switch id {
	case "secondary":
		fmt.Fprintf(out, "== secondary: restarts / wasted work / shadow counters ==\n\n")
		fmt.Fprint(out, harness.SecondaryTable(harness.Secondary(rate, 2000, quick), rate))
		fmt.Fprintln(out)
		return
	case "ablres":
		fmt.Fprintf(out, "== ablres: finite resources (the paper assumes an infinite pool) ==\n\n")
		fmt.Fprint(out, harness.ResourceTable(harness.ResourceAblation(rate, []int{0, 60, 40, 30, 25}, quick), rate))
		fmt.Fprintln(out, "scarce servers make speculation's redundant work expensive;")
		fmt.Fprintln(out, "abundance is where SCC (and OCC) pull ahead — the paper's Sec. 1 argument.")
		fmt.Fprintln(out)
		return
	}
	e := harness.Experiments()[id]
	fmt.Fprintf(out, "== %s: %s ==\n", e.ID, e.Title)
	fmt.Fprintf(out, "paper: %s\n\n", e.Paper)
	start := time.Now()
	res := e.Run(quick)
	fmt.Fprint(out, res.Table())
	if !nochart {
		fmt.Fprintln(out)
		fmt.Fprint(out, res.Chart())
	}
	scale := "full scale"
	if quick {
		scale = "quick mode"
	}
	fmt.Fprintf(out, "(%s in %.1fs)\n\n", scale, time.Since(start).Seconds())
}
