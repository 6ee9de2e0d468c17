package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestProtocolRegistry(t *testing.T) {
	for _, name := range []string{"2PL-PA", "OCC-BC", "WAIT-50", "SCC-2S", "SCC-CB", "SCC-AK", "SCC-VW", "SCC-DC",
		"SCC-kS(3)", "SCC-kS-FIFO(2)", "SCC-kS-PRIO(2)"} {
		p, err := Protocol(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name || p.New() == nil {
			t.Fatalf("%s: spec %q with a nil CCM", name, p.Name)
		}
		// Fresh instances each call.
		if p.New() == p.New() {
			t.Fatalf("%s: New returned a shared instance", name)
		}
	}
}

// TestUnknownProtocolErrors: a name Protocol does not parse is an error
// that lists every valid name, budget families included.
func TestUnknownProtocolErrors(t *testing.T) {
	for _, name := range []string{"MVCC", "SCC-kS(0)", "SCC-kS(2)x", "SCC-kS-PRIO()"} {
		_, err := Protocol(name)
		if err == nil {
			t.Fatalf("Protocol(%q) accepted", name)
		}
		for _, want := range []string{"SCC-AK", "SCC-DC", "SCC-kS(<k>)", "SCC-kS-PRIO(<k>)"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("Protocol(%q) error %q does not list %s", name, err, want)
			}
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	reg := Experiments()
	for _, id := range ExperimentIDs() {
		e, ok := reg[id]
		if !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
		if e.ID != id {
			t.Fatalf("experiment %s has ID %s", id, e.ID)
		}
		if e.Metric == nil || len(e.Protos) == 0 || len(e.Rates) == 0 {
			t.Fatalf("experiment %s incomplete", id)
		}
		if e.Target < 1000 {
			t.Fatalf("experiment %s full-scale target %d too small", id, e.Target)
		}
		if e.Paper == "" {
			t.Fatalf("experiment %s lacks the paper's expected shape", id)
		}
	}
}

// TestQuickSweepShape runs every registered experiment at a tiny scale
// and checks the structure of its output: one series per protocol, each
// sampled at every rate, and a table and chart that name them. fig13a
// then runs larger for the headline ordering (SCC-2S <= OCC-BC missed
// ratio at the top rate).
func TestQuickSweepShape(t *testing.T) {
	reg := Experiments()
	for _, id := range ExperimentIDs() {
		t.Run(id, func(t *testing.T) {
			e := reg[id]
			e.Rates = []float64{e.Rates[0], e.Rates[len(e.Rates)-1]}
			e.Target, e.Warmup, e.Seeds = 40, 5, 1
			checkSweepShape(t, e.Run(false))
		})
	}

	e := reg["fig13a"]
	// Shrink further than quick mode for test speed.
	e.Rates = []float64{20, 120}
	e.Target, e.Warmup, e.Seeds = 250, 25, 2
	res := e.Run(false)
	checkSweepShape(t, res)
	byName := map[string][]Point{}
	for _, s := range res.Series {
		byName[s.Protocol] = s.Points
	}
	scc := byName["SCC-2S"][1].Est.Mean
	occb := byName["OCC-BC"][1].Est.Mean
	if scc > occb {
		t.Fatalf("SCC-2S missed %.1f%% > OCC-BC %.1f%% at 120 txn/s", scc, occb)
	}
	// Missed ratios grow with load for every protocol.
	for name, pts := range byName {
		if pts[1].Est.Mean+1e-9 < pts[0].Est.Mean {
			t.Fatalf("%s: missed ratio fell with load (%.2f -> %.2f)", name, pts[0].Est.Mean, pts[1].Est.Mean)
		}
	}
}

// checkSweepShape checks that res has one series per protocol of its
// experiment, in order, each with a point per rate, and that its table
// and chart name the experiment, every protocol, the top rate and the
// y label.
func checkSweepShape(t *testing.T, res Result) {
	t.Helper()
	e := res.Exp
	if len(res.Series) != len(e.Protos) {
		t.Fatalf("%s: series = %d, want %d", e.ID, len(res.Series), len(e.Protos))
	}
	tbl, chart := res.Table(), res.Chart()
	for i, s := range res.Series {
		if s.Protocol != e.Protos[i].Name {
			t.Fatalf("%s: series %d is %s, want %s", e.ID, i, s.Protocol, e.Protos[i].Name)
		}
		if len(s.Points) != len(e.Rates) {
			t.Fatalf("%s: %s has %d points, want %d", e.ID, s.Protocol, len(s.Points), len(e.Rates))
		}
		if !strings.Contains(tbl, s.Protocol) {
			t.Fatalf("%s: table missing %q:\n%s", e.ID, s.Protocol, tbl)
		}
	}
	top := fmt.Sprintf("%.0f", e.Rates[len(e.Rates)-1])
	for _, want := range []string{e.ID, e.YLabel, top} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("%s: table missing %q:\n%s", e.ID, want, tbl)
		}
	}
	if !strings.Contains(chart, e.YLabel) {
		t.Fatalf("%s: chart missing y label %q:\n%s", e.ID, e.YLabel, chart)
	}
}

func TestSecondaryQuick(t *testing.T) {
	rows := Secondary(100, 2000, true)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	var sccRow, occRow, pccRow SecondaryRow
	for _, r := range rows {
		switch r.Protocol {
		case "SCC-2S":
			sccRow = r
		case "OCC-BC":
			occRow = r
		case "2PL-PA":
			pccRow = r
		}
	}
	if sccRow.Promotions == 0 || sccRow.ShadowForks == 0 {
		t.Fatalf("SCC-2S secondary counters empty: %+v", sccRow)
	}
	if occRow.RestartsPerCommit <= sccRow.RestartsPerCommit {
		t.Fatalf("OCC-BC restarts/commit %.3f not above SCC-2S %.3f",
			occRow.RestartsPerCommit, sccRow.RestartsPerCommit)
	}
	if pccRow.PriorityAborts == 0 {
		t.Fatalf("2PL-PA priority aborts missing: %+v", pccRow)
	}
	tbl := SecondaryTable(rows, 100)
	if !strings.Contains(tbl, "SCC-2S") || !strings.Contains(tbl, "p-aborts") {
		t.Fatalf("secondary table malformed:\n%s", tbl)
	}
}

// TestResourceAblationQuick: a scarce server pool makes every protocol
// miss at least as many deadlines as the paper's infinite resources, and
// the table gives one row per pool size, the infinite one as "inf".
func TestResourceAblationQuick(t *testing.T) {
	rows := ResourceAblation(50, []int{0, 15}, true)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 2 pool sizes x 3 protocols", len(rows))
	}
	for i, r := range rows[:3] {
		scarce := rows[3+i]
		if r.Servers != 0 || scarce.Servers != 15 || scarce.Protocol != r.Protocol {
			t.Fatalf("row order: %+v then %+v", r, scarce)
		}
		if scarce.MissedRatio < r.MissedRatio {
			t.Fatalf("%s missed %.1f%% with 15 servers, %.1f%% with infinite ones",
				r.Protocol, scarce.MissedRatio, r.MissedRatio)
		}
	}
	tbl := ResourceTable(rows, 50)
	inf, scarce := strings.Index(tbl, "\ninf "), strings.Index(tbl, "\n15 ")
	if inf < 0 || scarce < inf || !strings.Contains(tbl, "OCC-BC") {
		t.Fatalf("resource table malformed:\n%s", tbl)
	}
}

func TestAggregatePointEstimates(t *testing.T) {
	e := stats.Aggregate([]float64{4, 6})
	if e.Mean != 5 {
		t.Fatalf("mean %v", e.Mean)
	}
}
