// Package model defines the transaction model shared by every concurrency
// control protocol in this repository: page-level operations, transaction
// classes with real-time attributes, and the read/write set bookkeeping the
// paper's SCC rules are defined over.
package model

import (
	"fmt"

	"repro/internal/sim"
)

// PageID identifies a page of the simulated database.
type PageID int

// TxnID identifies a logical transaction. Restarts and shadow promotions
// preserve the TxnID; only the executing shadow changes.
type TxnID int

// Op is a single page access. The paper's model is deferred-update: reads
// observe the last committed version, writes go to a private workspace and
// are installed at commit.
type Op struct {
	Page  PageID
	Write bool
}

func (o Op) String() string {
	if o.Write {
		return fmt.Sprintf("W%d", o.Page)
	}
	return fmt.Sprintf("R%d", o.Page)
}

// Class groups transactions with the same run-time characteristics
// (Sec. 3.2 "we classify transactions in different classes according to
// their run-time characteristics").
type Class struct {
	Name string

	// NumOps is the number of page accesses (baseline: 16).
	NumOps int
	// WriteProb is the probability an access is a write (baseline: 0.25).
	WriteProb float64
	// MeanOpTime is the average service time of one access in seconds
	// (CPU + disk under infinite resources).
	MeanOpTime float64
	// ExecJitter is the relative stddev of a transaction's private
	// execution-rate factor, drawn once at arrival. It makes actual
	// execution times differ from the class mean, which is what gives the
	// finish-probability machinery of SCC-DC something to predict.
	ExecJitter float64
	// SlackFactor sets the deadline: D = A + SlackFactor * MeanExec
	// (baseline: 2).
	SlackFactor float64

	// Value is v_u of Def. 2: the value added if the transaction commits
	// by its deadline.
	Value float64
	// PenaltyPerSlack is the penalty gradient (tan alpha of Def. 1)
	// expressed per relative-deadline unit: the absolute gradient for a
	// transaction is PenaltyPerSlack * Value / (D - A) per second, so a
	// transaction with PenaltyPerSlack = 1 loses its entire value one
	// relative deadline past D. This keeps "45 degrees" meaningful across
	// classes with different execution lengths.
	PenaltyPerSlack float64

	// Frequency is the fraction of the arrival stream from this class.
	Frequency float64

	// ValueFamily optionally selects a post-deadline value shape beyond
	// the Def. 2 linear decline, in the wire codec's vf= syntax: "" or
	// "linear" (default), "cliff", "step:<frac>", "renew:<n>". The
	// simulator's protocols ignore it — Value/PenaltyGradient stay the
	// linear model — but live-server drivers (internal/scenario,
	// cmd/sccload) forward it on the wire, where internal/server/opts
	// validates it.
	ValueFamily string
}

// MeanExec returns the class's average total execution time E_Cu.
func (c *Class) MeanExec() float64 {
	return float64(c.NumOps) * c.MeanOpTime
}

// Txn is one logical transaction instance.
type Txn struct {
	ID      TxnID
	Class   *Class
	Arrival sim.Time
	// Deadline is the soft deadline D_u. Late transactions still run to
	// completion; they just accrue tardiness and value penalties.
	Deadline sim.Time
	// Ops is the fixed access list. A restart re-executes the same list.
	Ops []Op
	// OpTime is this transaction's actual per-op service time (the class
	// mean scaled by a private jitter factor). The scheduler does not see
	// it; value-cognizant protocols work from class statistics.
	OpTime float64
}

// RelDeadline returns D - A, the relative deadline.
func (t *Txn) RelDeadline() float64 { return float64(t.Deadline - t.Arrival) }

// PenaltyGradient returns the absolute penalty gradient tan(alpha_u) in
// value per second (Def. 1), derived from the class parameters.
func (t *Txn) PenaltyGradient() float64 {
	rd := t.RelDeadline()
	if rd <= 0 {
		return 0
	}
	return t.Class.PenaltyPerSlack * t.Class.Value / rd
}

// Value returns V_u(t) per Def. 2: the full value up to the deadline, then
// a linear decline at the penalty gradient (it may go negative).
func (t *Txn) Value(at sim.Time) float64 {
	if at <= t.Deadline {
		return t.Class.Value
	}
	return t.Class.Value - float64(at-t.Deadline)*t.PenaltyGradient()
}

// HigherPriority reports whether t has strictly higher EDF priority than o
// (earlier deadline; ties broken by earlier arrival, then lower ID, so the
// order is total and deterministic).
func (t *Txn) HigherPriority(o *Txn) bool {
	if t.Deadline != o.Deadline {
		return t.Deadline < o.Deadline
	}
	if t.Arrival != o.Arrival {
		return t.Arrival < o.Arrival
	}
	return t.ID < o.ID
}

// ReadObs records one executed read: which page, at which op index, and
// which committed version was observed (the TxnID of the last committed
// writer, 0 for the initial version). The version is what the
// serializability guard checks at commit time.
type ReadObs struct {
	Page    PageID
	OpIndex int
	Version TxnID
}

// AccessLog is the executed-prefix bookkeeping of one shadow: the paper's
// ReadSet(T_i_r) with read order, plus WriteSet(T_i_r).
type AccessLog struct {
	reads      []ReadObs
	firstRead  map[PageID]int // page -> earliest op index read
	writes     map[PageID]int // page -> earliest op index written
	writeOrder []PageID
}

// NewAccessLog returns an empty log.
func NewAccessLog() *AccessLog {
	return &AccessLog{
		firstRead: make(map[PageID]int),
		writes:    make(map[PageID]int),
	}
}

// AddRead records a read observation.
func (l *AccessLog) AddRead(p PageID, opIdx int, ver TxnID) {
	l.reads = append(l.reads, ReadObs{Page: p, OpIndex: opIdx, Version: ver})
	if old, ok := l.firstRead[p]; !ok || opIdx < old {
		l.firstRead[p] = opIdx
	}
}

// AddWrite records a write.
func (l *AccessLog) AddWrite(p PageID, opIdx int) {
	if _, ok := l.writes[p]; !ok {
		l.writes[p] = opIdx
		l.writeOrder = append(l.writeOrder, p)
	}
}

// Reads returns the read observations in execution order.
func (l *AccessLog) Reads() []ReadObs { return l.reads }

// FirstReadIndex returns the earliest op index at which page p was read,
// or -1 if it was not read.
func (l *AccessLog) FirstReadIndex(p PageID) int {
	if i, ok := l.firstRead[p]; ok {
		return i
	}
	return -1
}

// WritePages returns the write set in first-write order.
func (l *AccessLog) WritePages() []PageID { return l.writeOrder }

// Prefix returns a copy of the log truncated to ops with index < upto.
// This is the fork operation of the paper's Read/Write rules: a new shadow
// inherits exactly the donor's accesses before the block point.
func (l *AccessLog) Prefix(upto int) *AccessLog {
	n := NewAccessLog()
	for _, r := range l.reads {
		if r.OpIndex < upto {
			n.AddRead(r.Page, r.OpIndex, r.Version)
		}
	}
	for _, p := range l.writeOrder {
		if idx := l.writes[p]; idx < upto {
			n.AddWrite(p, idx)
		}
	}
	return n
}

// FirstReadOfAny returns the earliest op index at which the log read any of
// the given pages, or -1 if none was read. This is the block-point /
// validity computation used by the Commit Rule: a shadow is invalidated by
// the commit of T_u iff it read a page in WriteSet(T_u).
func (l *AccessLog) FirstReadOfAny(pages []PageID) int {
	best := -1
	for _, p := range pages {
		if i, ok := l.firstRead[p]; ok && (best == -1 || i < best) {
			best = i
		}
	}
	return best
}
