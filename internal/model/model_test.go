package model

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func baseClass() *Class {
	return &Class{
		Name: "base", NumOps: 16, WriteProb: 0.25,
		MeanOpTime: 0.015, ExecJitter: 0.2, SlackFactor: 2,
		Value: 100, PenaltyPerSlack: 1, Frequency: 1,
	}
}

func mkTxn(id TxnID, arrival, deadline sim.Time) *Txn {
	return &Txn{
		ID: id, Class: baseClass(), Arrival: arrival, Deadline: deadline,
		Ops:    []Op{{Page: 1}, {Page: 2, Write: true}},
		OpTime: 0.015,
	}
}

func TestMeanExec(t *testing.T) {
	c := baseClass()
	if got, want := c.MeanExec(), 0.24; math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanExec = %v, want %v", got, want)
	}
}

func TestValueFunction(t *testing.T) {
	tx := mkTxn(1, 0, 0.48) // relative deadline 0.48s, v=100, full loss per 0.48s
	if v := tx.Value(0); v != 100 {
		t.Fatalf("value at arrival = %v, want 100", v)
	}
	if v := tx.Value(0.48); v != 100 {
		t.Fatalf("value at deadline = %v, want 100", v)
	}
	if v := tx.Value(0.96); math.Abs(v) > 1e-9 {
		t.Fatalf("value one relative-deadline late = %v, want 0", v)
	}
	if v := tx.Value(1.44); math.Abs(v+100) > 1e-9 {
		t.Fatalf("value two relative-deadlines late = %v, want -100", v)
	}
}

func TestValueZeroGradientClass(t *testing.T) {
	tx := mkTxn(1, 0, 0.48)
	tx.Class = &Class{Value: 50, PenaltyPerSlack: 0}
	if v := tx.Value(100); v != 50 {
		t.Fatalf("non-critical transaction lost value: %v", v)
	}
}

func TestPenaltyGradientDegenerateDeadline(t *testing.T) {
	tx := mkTxn(1, 5, 5) // zero relative deadline
	if g := tx.PenaltyGradient(); g != 0 {
		t.Fatalf("gradient with zero relative deadline = %v, want 0", g)
	}
}

func TestHigherPriorityEDF(t *testing.T) {
	a := mkTxn(1, 0, 10)
	b := mkTxn(2, 0, 20)
	if !a.HigherPriority(b) || b.HigherPriority(a) {
		t.Fatal("EDF: earlier deadline must win")
	}
	// Tie on deadline: earlier arrival wins.
	c := mkTxn(3, 1, 10)
	if !a.HigherPriority(c) || c.HigherPriority(a) {
		t.Fatal("deadline tie must break by arrival")
	}
	// Full tie: lower ID wins; order must be total.
	d := mkTxn(4, 0, 10)
	if !a.HigherPriority(d) || d.HigherPriority(a) {
		t.Fatal("full tie must break by ID")
	}
	if a.HigherPriority(a) {
		t.Fatal("priority must be irreflexive")
	}
}

func TestPriorityIsTotalOrder(t *testing.T) {
	f := func(d1, d2 uint16, id1, id2 uint8) bool {
		a := mkTxn(TxnID(id1), 0, sim.Time(d1))
		b := mkTxn(TxnID(id2), 0, sim.Time(d2))
		if a.ID == b.ID && a.Deadline == b.Deadline {
			return !a.HigherPriority(b) && !b.HigherPriority(a)
		}
		return a.HigherPriority(b) != b.HigherPriority(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccessLogBasics(t *testing.T) {
	l := NewAccessLog()
	l.AddRead(5, 0, 0)
	l.AddRead(7, 2, 3)
	l.AddWrite(9, 1)
	l.AddWrite(9, 4) // duplicate write keeps first index
	if got := l.FirstReadIndex(5); got != 0 {
		t.Fatalf("FirstReadIndex(5) = %d", got)
	}
	if got := l.FirstReadIndex(99); got != -1 {
		t.Fatalf("FirstReadIndex(absent) = %d, want -1", got)
	}
	if w := l.WritePages(); !slices.Contains(w, 9) || slices.Contains(w, 5) {
		t.Fatal("write set wrong")
	}
	if l.FirstReadIndex(7) < 0 || l.FirstReadIndex(9) >= 0 {
		t.Fatal("read set wrong")
	}
	if got := len(l.WritePages()); got != 1 {
		t.Fatalf("WritePages len = %d, want 1 (dedup)", got)
	}
	if got := len(l.Reads()); got != 2 {
		t.Fatalf("Reads len = %d", got)
	}
}

func TestAccessLogEarlierReadWins(t *testing.T) {
	l := NewAccessLog()
	l.AddRead(5, 8, 0)
	l.AddRead(5, 3, 0)
	if got := l.FirstReadIndex(5); got != 3 {
		t.Fatalf("FirstReadIndex = %d, want earliest 3", got)
	}
}

func TestPrefix(t *testing.T) {
	l := NewAccessLog()
	l.AddRead(1, 0, 0)
	l.AddRead(2, 1, 0)
	l.AddWrite(3, 2)
	l.AddRead(4, 3, 7)
	p := l.Prefix(2)
	if p.FirstReadIndex(1) < 0 || p.FirstReadIndex(2) < 0 {
		t.Fatal("prefix dropped early reads")
	}
	if slices.Contains(p.WritePages(), 3) || p.FirstReadIndex(4) >= 0 {
		t.Fatal("prefix kept accesses at or past the cut")
	}
	// Original unchanged.
	if !slices.Contains(l.WritePages(), 3) {
		t.Fatal("Prefix mutated the donor log")
	}
}

func TestPrefixZero(t *testing.T) {
	l := NewAccessLog()
	l.AddRead(1, 0, 0)
	p := l.Prefix(0)
	if len(p.Reads()) != 0 || len(p.WritePages()) != 0 {
		t.Fatal("Prefix(0) must be empty")
	}
}

func TestFirstReadOfAny(t *testing.T) {
	l := NewAccessLog()
	l.AddRead(1, 4, 0)
	l.AddRead(2, 2, 0)
	l.AddRead(3, 6, 0)
	if got := l.FirstReadOfAny([]PageID{3, 2}); got != 2 {
		t.Fatalf("FirstReadOfAny = %d, want 2", got)
	}
	if got := l.FirstReadOfAny([]PageID{9, 10}); got != -1 {
		t.Fatalf("FirstReadOfAny(miss) = %d, want -1", got)
	}
	if got := l.FirstReadOfAny(nil); got != -1 {
		t.Fatalf("FirstReadOfAny(nil) = %d, want -1", got)
	}
}

// Property: Prefix(k) contains exactly the reads with OpIndex < k.
func TestPrefixProperty(t *testing.T) {
	f := func(idxs []uint8, cut uint8) bool {
		l := NewAccessLog()
		for i, raw := range idxs {
			l.AddRead(PageID(i), int(raw), 0)
		}
		p := l.Prefix(int(cut))
		want := 0
		for _, raw := range idxs {
			if int(raw) < int(cut) {
				want++
			}
		}
		return len(p.Reads()) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	if s := (Op{Page: 3}).String(); s != "R3" {
		t.Fatalf("read op String = %q", s)
	}
	if s := (Op{Page: 4, Write: true}).String(); s != "W4" {
		t.Fatalf("write op String = %q", s)
	}
}
