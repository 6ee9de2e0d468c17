package loadgen

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/server/client"
)

// Every key carries the run's id: counters so each run audits its own
// commits, and page keys so each run's conservation sum is
// self-contained — a prior run on the same server balances its deltas
// only over its own full span, so sharing pages across runs would leave
// residue in any narrower window. A pinned id makes the namespace
// reproducible, so a later process can re-audit the same keys — across
// a server crash and recovery.

// PageKey names one page of the run's keyspace; pages carry the
// balanced deltas the conservation audit sums.
func PageKey(runID int64, page int) string { return fmt.Sprintf("k%d.%d", runID, page) }

// CounterKey names one ledger counter. Counters are sharded per
// in-flight slot: every transaction of a pipelined batch (or every
// concurrent interactive session) writes a different counter, so a
// client's own pipeline never self-conflicts on its audit key. Slot is
// always 0 for blocking round trips.
func CounterKey(runID int64, w, slot int) string {
	return fmt.Sprintf("cnt%d.%d.%d", runID, w, slot)
}

// Render converts a workload transaction into wire ops: reads become
// dependencies, writes become balanced ± deltas (sum zero; an odd write
// count parks a zero delta on the last write), and a trailing +1 on the
// client's slot counter turns every committed transaction into an
// auditable event. With pages false only the counter write is rendered.
func Render(t *model.Txn, runID int64, pages bool, w, slot int) []client.Op {
	cnt := client.Op{Key: CounterKey(runID, w, slot), Delta: 1, Write: true}
	if !pages {
		return []client.Op{cnt}
	}
	ops := make([]client.Op, 0, len(t.Ops)+1)
	sign, last := int64(1), 0
	for _, o := range t.Ops {
		op := client.Op{Key: PageKey(runID, int(o.Page))}
		if o.Write {
			op.Write, op.Delta = true, sign*int64(1+t.ID%7)
			sign, last = -sign, len(ops)
		}
		ops = append(ops, op)
	}
	if sign < 0 {
		ops[last].Delta = 0 // odd write count: the last write has no partner
	}
	return append(ops, cnt)
}

// AuditConservation sums the run's page keyspace: every committed
// transaction's deltas were balanced, so any nonzero total is a torn or
// half-visible cross-shard commit. Summed in chunks to stay under the
// server's request-line bound; chunking is sound because the run's
// namespaced keys are quiescent once its clients have finished.
func AuditConservation(c *client.Mux, runID int64, pages int) (sum int64, err error) {
	const chunk = 2048
	for lo := 0; lo < pages; lo += chunk {
		keys := make([]string, 0, chunk)
		for p := lo; p < min(lo+chunk, pages); p++ {
			keys = append(keys, PageKey(runID, p))
		}
		s, err := c.Sum(keys...)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// Acked is the acked-commit ledger: Counts[w] acknowledged commits for
// client w, spread over Slots counter keys per client.
type Acked struct {
	RunID  int64   `json:"run_id"`
	Slots  int     `json:"slots"`
	Counts []int64 `json:"counts"`
}

// AuditLedger re-reads every client's slot counters against its acked
// count and returns one line per violating client. A counter below the
// acked count is a lost acknowledged commit — the durability lie, always
// a violation. A counter above it is a commit whose ack never reached
// the client: lost in transit, swallowed by a crash that its log record
// survived, or double-landed by a failover retry. That is
// correct for unacked work, so atLeast tolerates it; the exact form is
// for runs where nothing was killed and it can only be a phantom commit.
func AuditLedger(c *client.Mux, a Acked, atLeast bool) (violations []string, err error) {
	for w, want := range a.Counts {
		keys := make([]string, a.Slots)
		for slot := range keys {
			keys[slot] = CounterKey(a.RunID, w, slot)
		}
		// One snapshot request per client; unwritten slot keys read as 0.
		got, err := c.Sum(keys...)
		if err != nil {
			return nil, fmt.Errorf("counters of client %d: %w", w, err)
		}
		switch {
		case got < want:
			violations = append(violations, fmt.Sprintf("LOST UPDATES: client %d got %d acks but counters show %d", w, want, got))
		case got > want && !atLeast:
			violations = append(violations, fmt.Sprintf("PHANTOM COMMITS: client %d counters %d exceed %d acks", w, got, want))
		}
	}
	return violations, nil
}

// Save persists the ledger (as JSON) for a later process's AuditLedger;
// tmp+rename so a concurrent kill leaves either nothing or a complete
// file.
func (a Acked) Save(path string) error {
	b, err := json.Marshal(a)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path+".tmp", b, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// LoadAcked reads a Save file, validating it against the run being
// audited.
func LoadAcked(path string, runID int64) (a Acked, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(raw, &a); err != nil || a.Slots <= 0 {
		return a, fmt.Errorf("malformed acked file %s", path)
	}
	if a.RunID != runID {
		return a, fmt.Errorf("acked file %s records run %d, auditing run %d", path, a.RunID, runID)
	}
	return a, nil
}
