package core

// Randomized cross-protocol schedules: testing/quick generates small
// transaction sets (op lists, timings) and every protocol must produce a
// serializable history with intact invariants. This complements the
// workload-driven tests with adversarial shapes the generator would rarely
// produce (tiny page universes, blind-write-only transactions, wildly
// mixed op times).

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/rtdbs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// rawTxn is the quick-generated seed of one transaction.
type rawTxn struct {
	Pages   []uint8 // page per op (mod 6: a tiny, hot universe)
	Writes  uint16  // bitmask: op i is a write
	Arrival uint8   // tenths of a second
	Speed   uint8   // op time: 0.05s + Speed/255 * 0.3s
}

func (r rawTxn) ops() []model.Op {
	n := len(r.Pages)
	if n > 12 {
		n = 12
	}
	ops := make([]model.Op, 0, n)
	seen := map[model.PageID]bool{}
	for i := 0; i < n; i++ {
		p := model.PageID(r.Pages[i] % 6)
		if seen[p] {
			continue // the model accesses each page once
		}
		seen[p] = true
		ops = append(ops, model.Op{Page: p, Write: r.Writes&(1<<i) != 0})
	}
	return ops
}

func runRandomSchedule(t *testing.T, mk func() *SCC, txns []rawTxn) bool {
	c := mk()
	c.SelfCheck = true
	rt := rtdbs.New(rtdbs.Config{
		Workload:      workload.Baseline(1, 1),
		Target:        1000,
		CheckReads:    true,
		RecordHistory: true,
	}, c)
	admitted := 0
	for i, r := range txns {
		ops := r.ops()
		if len(ops) == 0 {
			continue
		}
		opTime := 0.05 + float64(r.Speed)/255*0.3
		cl := &model.Class{
			Name: "fuzz", NumOps: len(ops), MeanOpTime: opTime,
			SlackFactor: 2, Value: 100, PenaltyPerSlack: 1, Frequency: 1,
		}
		tx := &model.Txn{
			ID: model.TxnID(i + 1), Class: cl,
			Arrival:  sim.Time(float64(r.Arrival) / 10),
			Deadline: sim.Time(float64(r.Arrival)/10 + 10),
			Ops:      ops, OpTime: opTime,
		}
		rt.K.At(tx.Arrival, func() { rt.Admit(tx) })
		admitted++
	}
	// RunUntil, not Run: the deferred protocols' Termination-Rule tick
	// loops keep the event queue nonempty forever.
	rt.K.RunUntil(500)
	if len(rt.ActiveIDs()) != 0 {
		t.Logf("schedule wedged: %d transactions never finished", len(rt.ActiveIDs()))
		return false
	}
	if rt.History().Len() != admitted {
		t.Logf("committed %d of %d", rt.History().Len(), admitted)
		return false
	}
	if err := rt.History().Check(); err != nil {
		t.Log(err)
		return false
	}
	return true
}

func TestRandomSchedulesAllProtocolVariants(t *testing.T) {
	variants := []struct {
		name string
		mk   func() *SCC
	}{
		{"SCC-1S", func() *SCC { return NewKS(1, LBFO) }},
		{"SCC-2S", NewTwoShadow},
		{"SCC-3S", func() *SCC { return NewKS(3, LBFO) }},
		{"SCC-CB", NewCB},
		{"SCC-3S-FIFO", func() *SCC { return NewKS(3, FIFO) }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			f := func(txns []rawTxn) bool {
				if len(txns) > 6 {
					txns = txns[:6]
				}
				return runRandomSchedule(t, v.mk, txns)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRandomSchedulesDeferredVariants(t *testing.T) {
	variants := []struct {
		name string
		mk   func() *SCC
	}{
		{"SCC-VW", func() *SCC { return NewVW(2, 0.1) }},
		{"SCC-DC", func() *SCC { return NewDC(2, 0.1) }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			f := func(txns []rawTxn) bool {
				if len(txns) > 5 {
					txns = txns[:5]
				}
				return runRandomSchedule(t, v.mk, txns)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
