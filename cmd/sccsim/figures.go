package main

import (
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/rtdbs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// figure is one of the paper's illustrative schedules (Figs. 1-2 and
// 4-8): fixed transactions admitted at fixed instants under one protocol.
// -fig replays it through the real protocol implementation and prints
// the event timeline — forks, block points, promotions, aborts and
// commits, the textual equivalent of the figure.
type figure struct {
	id, proto, describe string
	txns                []figTxn
}

type figTxn struct {
	at     float64
	id     model.TxnID
	opTime float64
	ops    []model.Op
}

func r(p model.PageID) model.Op { return model.Op{Page: p} }
func w(p model.PageID) model.Op { return model.Op{Page: p, Write: true} }

const (
	pX model.PageID = 3
	pY model.PageID = 1
	pZ model.PageID = 2
)

// reads appends n reads of the pages from base on to ops.
func reads(ops []model.Op, base, n int) []model.Op {
	for i := 0; i < n; i++ {
		ops = append(ops, r(model.PageID(base+i)))
	}
	return ops
}

var figures = []figure{
	{"1b", "OCC-BC", "Fig 1(b): OCC-BC — T2 read x before T1 commits; T1's broadcast commit RESTARTS T2 from scratch", []figTxn{
		{0, 1, 1.0, []model.Op{w(pX), w(4)}},
		{0, 2, 1.0, []model.Op{r(pX), r(5)}},
	}},
	{"2a", "SCC-kS(2)", "Fig 2(a): SCC, undeveloped conflict — T2 validates first; its shadow is discarded unused", []figTxn{
		{0, 1, 1.0, []model.Op{w(pX), w(4), w(5)}},
		{0, 2, 0.5, []model.Op{r(pX), r(6), r(7)}},
	}},
	{"2b", "SCC-kS(2)", "Fig 2(b): SCC, developed conflict — T1 commits first; T2's shadow is PROMOTED and resumes (no restart)", []figTxn{
		{0, 1, 1.0, []model.Op{w(pX), w(4)}},
		{0, 2, 1.0, []model.Op{r(pX), r(5)}},
	}},
	{"4", "SCC-kS(4)", "Fig 4: write-after-read conflict forks off the latest earlier shadow and re-executes to the new block point", []figTxn{
		{0, 1, 1.0, reads([]model.Op{r(pY), r(pZ), r(pX)}, 40, 3)},
		{0, 2, 2.3, []model.Op{w(pZ), w(50)}},
		{1.6, 3, 1.8, []model.Op{w(pX), w(51)}},
	}},
	{"5", "SCC-kS(3)", "Fig 5: an earlier conflict with the same transaction replaces the existing shadow", []figTxn{
		{0, 1, 1.0, reads([]model.Op{r(pX), r(pY), r(pZ)}, 40, 5)},
		{0, 2, 3.2, []model.Op{w(pZ), w(pX), w(50)}},
	}},
	{"6", "SCC-kS(3)", "Fig 6: LBFO — budget exhausted; a new earlier conflict replaces the latest-blocked shadow", []figTxn{
		{0, 1, 1.0, reads([]model.Op{r(pX), r(pY), r(pZ)}, 40, 5)},
		{0, 3, 2.5, []model.Op{w(pY), w(60), w(61), w(62)}},
		{0.4, 4, 3.1, []model.Op{w(pZ), w(71), w(72)}},
		{0.5, 2, 4.0, []model.Op{w(pX), w(73)}},
	}},
	{"7", "SCC-kS(4)", "Fig 7: Commit Rule case 1 — the shadow waiting for the committer is promoted; exposed shadows abort", []figTxn{
		{0, 1, 1.0, reads([]model.Op{r(pX), r(pY), r(pZ)}, 40, 11)},
		{0, 3, 4.5, []model.Op{w(pX), w(60), w(61), w(62)}},
		{0, 2, 5.5, []model.Op{w(pZ), w(70)}},
	}},
	{"8", "SCC-kS(2)", "Fig 8: Commit Rule case 2 — unaccounted conflict; the latest valid shadow is promoted instead", []figTxn{
		{0, 1, 1.0, reads([]model.Op{r(pX), r(pY), r(pZ)}, 40, 9)},
		{0, 3, 2.5, []model.Op{w(pY), w(60), w(61), w(62), w(63)}},
		{0, 2, 4.1, []model.Op{w(pZ), w(70)}},
	}},
}

// replay runs f's schedule to completion, printing every runtime event,
// and checks the committed history is serializable.
func replay(out io.Writer, f figure) error {
	spec, err := harness.Protocol(f.proto)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== %s ==\n", f.describe)
	rt := rtdbs.New(rtdbs.Config{
		Workload:      workload.Baseline(1, 1),
		Target:        100,
		CheckReads:    true,
		RecordHistory: true,
	}, spec.New())
	rt.Trace = func(at sim.Time, format string, args ...any) {
		fmt.Fprintf(out, "  %6.2f  %s\n", float64(at), fmt.Sprintf(format, args...))
	}
	for _, t := range f.txns {
		cl := &model.Class{
			Name: "trace", NumOps: len(t.ops), MeanOpTime: t.opTime,
			SlackFactor: 2, Value: 100, PenaltyPerSlack: 1, Frequency: 1,
		}
		tx := &model.Txn{
			ID: t.id, Class: cl, Arrival: sim.Time(t.at),
			Deadline: sim.Time(t.at) + sim.Time(2*t.opTime*float64(len(t.ops))),
			Ops:      t.ops, OpTime: t.opTime,
		}
		rt.K.At(sim.Time(t.at), func() { rt.Admit(tx) })
	}
	rt.K.Run()
	if err := rt.History().Check(); err != nil {
		return fmt.Errorf("serializability violation: %v", err)
	}
	fmt.Fprintf(out, "  (history of %d commits verified serializable)\n\n", rt.History().Len())
	return nil
}
