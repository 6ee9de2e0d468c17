package rtdbs

import (
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// testOCC is a minimal broadcast-commit OCC used to exercise the runtime
// mechanics; the real protocol is internal/core's NewOCCBC.
type testOCC struct {
	rt     *Runtime
	shadow map[model.TxnID]*Shadow
}

func newTestOCC() *testOCC { return &testOCC{shadow: make(map[model.TxnID]*Shadow)} }

func (c *testOCC) Name() string       { return "test-occ" }
func (c *testOCC) Attach(rt *Runtime) { c.rt = rt }
func (c *testOCC) OnArrival(t *model.Txn) {
	sh := c.rt.Spawn(t, 0, nil)
	c.shadow[t.ID] = sh
	c.rt.Kick(sh)
}
func (c *testOCC) CanProceed(*Shadow) bool { return true }
func (c *testOCC) OnOpDone(*Shadow)        {}
func (c *testOCC) OnFinish(sh *Shadow)     { c.rt.Commit(sh) }
func (c *testOCC) OnCommitted(t *model.Txn, committed *Shadow) {
	delete(c.shadow, t.ID)
	// Restart every survivor that read a page the committer wrote.
	ws := committed.Log.WritePages()
	for _, id := range c.rt.ActiveIDs() {
		if sh := c.shadow[id]; sh != nil && !sh.Aborted() && sh.Log.FirstReadOfAny(ws) >= 0 {
			c.shadow[id] = c.rt.Restart(sh.Txn)
		}
	}
}

func smallCfg(rate float64, seed int64, target int) Config {
	wl := workload.Baseline(rate, seed)
	return Config{
		Workload:      wl,
		Target:        target,
		Warmup:        10,
		CheckReads:    true,
		RecordHistory: true,
	}
}

func TestRunCommitsTarget(t *testing.T) {
	res := Run(smallCfg(30, 1, 300), newTestOCC())
	if res.Truncated {
		t.Fatal("run truncated")
	}
	if res.Metrics.Committed != 300 {
		t.Fatalf("Committed = %d, want 300", res.Metrics.Committed)
	}
	if res.Protocol != "test-occ" {
		t.Fatalf("Protocol = %q", res.Protocol)
	}
	if res.SimTime <= 0 {
		t.Fatal("sim time did not advance")
	}
}

func TestHistorySerializable(t *testing.T) {
	res := Run(smallCfg(80, 2, 400), newTestOCC())
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
	// Warmup commits are recorded too.
	if res.History.Len() != 400+10 {
		t.Fatalf("history has %d records, want 410", res.History.Len())
	}
}

func TestDeterministicReplay(t *testing.T) {
	a := Run(smallCfg(60, 7, 200), newTestOCC())
	b := Run(smallCfg(60, 7, 200), newTestOCC())
	if *a.Metrics != *b.Metrics {
		t.Fatalf("same seed, different metrics:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	if a.SimTime != b.SimTime {
		t.Fatalf("sim times differ: %v vs %v", a.SimTime, b.SimTime)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := Run(smallCfg(60, 1, 200), newTestOCC())
	b := Run(smallCfg(60, 2, 200), newTestOCC())
	if a.SimTime == b.SimTime {
		t.Fatal("different seeds produced identical sim times (suspicious)")
	}
}

func TestTardinessAndMissedConsistency(t *testing.T) {
	res := Run(smallCfg(120, 3, 400), newTestOCC())
	m := res.Metrics
	if m.Missed > m.Committed {
		t.Fatalf("Missed %d > Committed %d", m.Missed, m.Committed)
	}
	if m.Missed == 0 && m.TardinessSum > 0 {
		t.Fatal("tardiness without misses")
	}
	if m.Missed > 0 && m.TardinessSum <= 0 {
		t.Fatal("misses without tardiness")
	}
	if m.MissedRatio() < 0 || m.MissedRatio() > 100 {
		t.Fatalf("MissedRatio = %v", m.MissedRatio())
	}
}

func TestValueAccounting(t *testing.T) {
	res := Run(smallCfg(30, 4, 200), newTestOCC())
	m := res.Metrics
	if m.MaxValueSum != float64(m.Committed)*100 {
		t.Fatalf("MaxValueSum = %v, want committed*100", m.MaxValueSum)
	}
	if m.ValueSum > m.MaxValueSum {
		t.Fatal("accrued value exceeds maximum")
	}
}

func TestRestartsCountedUnderContention(t *testing.T) {
	res := Run(smallCfg(150, 5, 300), newTestOCC())
	if res.Metrics.Restarts == 0 {
		t.Fatal("expected restarts at high load under broadcast-commit OCC")
	}
	if res.Metrics.WastedTime <= 0 {
		t.Fatal("restarts must account wasted time")
	}
}

func TestForkPrefixSemantics(t *testing.T) {
	// Build a tiny runtime manually to test fork mechanics.
	cfg := smallCfg(10, 6, 5)
	rt := New(cfg, newTestOCC())
	tx := &model.Txn{
		ID:    999,
		Class: &cfg.Workload.Classes[0],
		Ops: []model.Op{
			{Page: 1}, {Page: 2}, {Page: 3, Write: true}, {Page: 4},
		},
		OpTime: 0.01,
	}
	tx.Deadline = 1
	rt.active[tx.ID] = &TxnState{Txn: tx}
	sh := rt.Spawn(tx, 0, nil)
	rt.Kick(sh)
	// Execute three ops.
	for i := 0; i < 3; i++ {
		rt.K.Step()
	}
	if sh.NextOp != 3 {
		t.Fatalf("NextOp = %d, want 3", sh.NextOp)
	}
	f := rt.ForkPrefix(sh, 2)
	if f.StartOp != 2 || f.NextOp != 2 {
		t.Fatalf("fork Start/Next = %d/%d, want 2/2", f.StartOp, f.NextOp)
	}
	if f.Log.FirstReadIndex(1) < 0 || f.Log.FirstReadIndex(2) < 0 {
		t.Fatal("fork missing inherited prefix reads")
	}
	if slices.Contains(f.Log.WritePages(), 3) {
		t.Fatal("fork inherited an access past the cut")
	}
	if f.OwnExecTime() != 0 {
		t.Fatalf("fresh fork OwnExecTime = %v, want 0", f.OwnExecTime())
	}
	full := rt.Fork(sh)
	if full.NextOp != 3 || !slices.Contains(full.Log.WritePages(), 3) {
		t.Fatal("Fork must clone donor's full progress")
	}
}

func TestForkPrefixBeyondProgressPanics(t *testing.T) {
	cfg := smallCfg(10, 6, 5)
	rt := New(cfg, newTestOCC())
	tx := &model.Txn{ID: 1000, Class: &cfg.Workload.Classes[0],
		Ops: []model.Op{{Page: 1}}, OpTime: 0.01}
	rt.active[tx.ID] = &TxnState{Txn: tx}
	sh := rt.Spawn(tx, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("ForkPrefix beyond progress did not panic")
		}
	}()
	rt.ForkPrefix(sh, 1)
}

func TestAbortShadowIdempotent(t *testing.T) {
	cfg := smallCfg(10, 6, 5)
	rt := New(cfg, newTestOCC())
	tx := &model.Txn{ID: 1001, Class: &cfg.Workload.Classes[0],
		Ops: []model.Op{{Page: 1}, {Page: 2}}, OpTime: 0.01}
	rt.active[tx.ID] = &TxnState{Txn: tx}
	sh := rt.Spawn(tx, 0, nil)
	rt.Kick(sh)
	rt.K.Step()
	rt.AbortShadow(sh)
	w := rt.Metrics.WastedTime
	rt.AbortShadow(sh)
	if rt.Metrics.WastedTime != w {
		t.Fatal("double abort double-counted wasted time")
	}
	if len(rt.active[tx.ID].Shadows) != 0 {
		t.Fatal("aborted shadow still registered")
	}
}

func TestActiveIDsSorted(t *testing.T) {
	cfg := smallCfg(10, 6, 5)
	rt := New(cfg, newTestOCC())
	for _, id := range []model.TxnID{5, 3, 9, 1} {
		rt.Admit(&model.Txn{ID: id, Ops: []model.Op{{Page: 1}}})
	}
	ids := rt.ActiveIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("ActiveIDs not sorted: %v", ids)
		}
	}
	if len(ids) != 4 {
		t.Fatalf("ActiveIDs len = %d", len(ids))
	}
}

func TestMaxActiveTruncates(t *testing.T) {
	cfg := smallCfg(200, 8, 100000)
	cfg.MaxActive = 20
	res := Run(cfg, &stallCCM{})
	if !res.Truncated {
		t.Fatal("run with stalled CCM must truncate on MaxActive")
	}
}

// stallCCM admits transactions but never lets them run: the active set
// grows without bound.
type stallCCM struct{ rt *Runtime }

func (c *stallCCM) Name() string                    { return "stall" }
func (c *stallCCM) Attach(rt *Runtime)              { c.rt = rt }
func (c *stallCCM) OnArrival(t *model.Txn)          { c.rt.Kick(c.rt.Spawn(t, 0, nil)) }
func (c *stallCCM) CanProceed(*Shadow) bool         { return false }
func (c *stallCCM) OnOpDone(*Shadow)                {}
func (c *stallCCM) OnFinish(sh *Shadow)             {}
func (c *stallCCM) OnCommitted(*model.Txn, *Shadow) {}

func TestBlockedWaitsCounted(t *testing.T) {
	cfg := smallCfg(50, 9, 10)
	cfg.MaxActive = 30
	res := Run(cfg, &stallCCM{})
	if res.Metrics.BlockedWaits == 0 {
		t.Fatal("stalled shadows must count blocked waits")
	}
}

func TestCommitPanicsOnUnfinished(t *testing.T) {
	cfg := smallCfg(10, 6, 5)
	rt := New(cfg, newTestOCC())
	tx := &model.Txn{ID: 1002, Class: &cfg.Workload.Classes[0],
		Ops: []model.Op{{Page: 1}}, OpTime: 0.01}
	rt.active[tx.ID] = &TxnState{Txn: tx}
	sh := rt.Spawn(tx, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Commit of unfinished shadow did not panic")
		}
	}()
	rt.Commit(sh)
}

func TestWarmupExcluded(t *testing.T) {
	cfg := smallCfg(30, 10, 50)
	cfg.Warmup = 25
	res := Run(cfg, newTestOCC())
	if res.Metrics.Committed != 50 {
		t.Fatalf("Committed = %d, want 50 measured", res.Metrics.Committed)
	}
	if res.History.Len() != 75 {
		t.Fatalf("history %d, want warmup+target = 75", res.History.Len())
	}
}

func TestFiniteServersStillCorrect(t *testing.T) {
	cfg := smallCfg(40, 11, 300)
	cfg.Servers = 12 // offered load ~9.6 server-seconds/s: stable but queueing
	res := Run(cfg, newTestOCC())
	if res.Truncated {
		t.Fatal("truncated")
	}
	if err := res.History.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Committed != 300 {
		t.Fatalf("committed %d", res.Metrics.Committed)
	}
}

func TestFiniteServersSlowDownExecution(t *testing.T) {
	// The same workload must take longer in simulated time when ops queue
	// for a small server pool.
	base := smallCfg(60, 12, 300)
	inf := Run(base, newTestOCC())
	scarce := base
	scarce.Servers = 16 // offered load ~14.4: stable, yet ops queue
	fin := Run(scarce, newTestOCC())
	if fin.SimTime <= inf.SimTime {
		t.Fatalf("finite servers (%v) not slower than infinite (%v)", fin.SimTime, inf.SimTime)
	}
	if fin.Metrics.MissedRatio() <= inf.Metrics.MissedRatio() {
		t.Fatalf("resource contention should raise missed ratio (%v vs %v)",
			fin.Metrics.MissedRatio(), inf.Metrics.MissedRatio())
	}
}

func TestFiniteServersDeterministic(t *testing.T) {
	cfg := smallCfg(50, 13, 200)
	cfg.Servers = 13
	a := Run(cfg, newTestOCC())
	b := Run(cfg, newTestOCC())
	if *a.Metrics != *b.Metrics {
		t.Fatalf("nondeterministic under finite servers:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}
