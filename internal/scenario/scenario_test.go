package scenario

import (
	"testing"
	"time"

	"repro/internal/workload"
)

// TestGridPresetsValidate keeps every preset cell well-formed without
// paying to run the nightly grid: names unique, workload/family
// parameters accepted by the same validation Run uses.
func TestGridPresetsValidate(t *testing.T) {
	for _, preset := range Presets() {
		cells, err := Grid(preset)
		if err != nil {
			t.Fatalf("Grid(%q): %v", preset, err)
		}
		if len(cells) == 0 {
			t.Fatalf("Grid(%q): empty", preset)
		}
		seen := map[string]bool{}
		for _, c := range cells {
			if c.Name == "" || seen[c.Name] {
				t.Errorf("Grid(%q): missing or duplicate cell name %q", preset, c.Name)
			}
			seen[c.Name] = true
			if err := c.withDefaults().validate(); err != nil {
				t.Errorf("Grid(%q): cell %q: %v", preset, c.Name, err)
			}
		}
	}
	if _, err := Grid("no-such-preset"); err == nil {
		t.Error("Grid accepted an unknown preset")
	}
}

// TestSmokeGrid runs the tier-1 two-cell grid against live servers: one
// one-shot uniform cell and one interactive Zipfian cliff cell, each
// audited for conservation and the acked-commit ledger.
func TestSmokeGrid(t *testing.T) {
	art, err := RunGrid("smoke", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if art.Schema != SchemaV1 {
		t.Fatalf("schema %q, want %q", art.Schema, SchemaV1)
	}
	if art.CPUs < 1 {
		t.Fatalf("cpus %d", art.CPUs)
	}
	if len(art.Cells) != 2 {
		t.Fatalf("smoke grid emitted %d rows, want 2", len(art.Cells))
	}
	for _, row := range art.Cells {
		if row.Committed == 0 {
			t.Errorf("cell %q: no commits", row.Cell)
		}
		if row.Errors != 0 {
			t.Errorf("cell %q: %d errors", row.Cell, row.Errors)
		}
		if !row.ConservationOK {
			t.Errorf("cell %q: conservation audit failed", row.Cell)
		}
		if !row.LedgerOK {
			t.Errorf("cell %q: acked-commit ledger audit failed", row.Cell)
		}
		if row.ValueRealized <= 0 || row.ValueRatio <= 0 || row.ValueRatio > 1 {
			t.Errorf("cell %q: value realized %.2f ratio %.3f", row.Cell, row.ValueRealized, row.ValueRatio)
		}
	}
}

// TestReplicaCell runs the primary+replica cell the nightly grid runs:
// load on the primary, then the catch-up barrier (waitCaughtUp), then
// the conservation and acked-commit ledger audits, which read the
// replica's copy.
func TestReplicaCell(t *testing.T) {
	row, err := Run(Cell{
		Name:     "replica",
		Role:     RolePrimaryReplica,
		Family:   "step:0.5",
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.Committed == 0 {
		t.Fatal("replica cell committed nothing")
	}
	if row.Errors != 0 {
		t.Errorf("replica cell saw %d errors", row.Errors)
	}
	if !row.ConservationOK {
		t.Error("conservation audit failed on the replica")
	}
	if !row.LedgerOK {
		t.Error("acked-commit ledger audit failed on the replica")
	}
}

// TestFailoverCell runs the primary+replica+failover cell: the primary
// is killed at half the duration, the replica's lease monitor promotes
// it, the workers ride the redirects, and the row carries the measured
// promotion latency with both audits green.
func TestFailoverCell(t *testing.T) {
	row, err := Run(Cell{
		Name:     "failover",
		Role:     RoleFailover,
		Skew:     workload.KeyDist{Kind: workload.KeyZipf, Theta: 0.90},
		Deadline: 5 * time.Second,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.Committed == 0 {
		t.Fatal("failover cell committed nothing")
	}
	if !row.ConservationOK {
		t.Error("conservation audit failed across the failover")
	}
	if !row.LedgerOK {
		t.Error("acked-commit ledger audit failed across the failover")
	}
	if row.PromoteMs <= 0 {
		t.Errorf("promotion latency %.2fms, want > 0", row.PromoteMs)
	}
	if row.Redirects == 0 {
		t.Error("no redirects followed; the workers never chased the new primary")
	}
}

// TestOracleCell replays a high-contention interactive Zipfian cell
// (θ=0.99 over a small hot set) through the serializability oracle
// against the live server.
func TestOracleCell(t *testing.T) {
	row, err := Run(Cell{
		Name:        "oracle",
		Skew:        workload.KeyDist{Kind: workload.KeyZipf, Theta: 0.99},
		Interactive: true,
		Oracle:      true,
		Deadline:    10 * time.Second,
		Duration:    800 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.OracleOK == nil || !*row.OracleOK {
		t.Fatal("oracle verdict missing or failed")
	}
	if row.Committed == 0 {
		t.Fatal("oracle cell committed nothing")
	}
	if row.Errors != 0 {
		t.Fatalf("oracle cell saw %d errors", row.Errors)
	}
}
