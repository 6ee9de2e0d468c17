// Package scenario drives the live server through a declarative matrix
// of workload × value-function cells — the CCBench-style counterpart to
// the simulator's figure sweeps. Each cell boots a fresh server in the
// role it names (primary, durable, or primary+replica), runs a
// fixed-duration closed load whose key skew, session shape, think time,
// and value-function family come from the cell spec, then audits the
// store: every transaction's page deltas are balanced so conservation
// demands the keyspace sums to zero, and every acked commit bumped a
// per-worker ledger counter the audit re-reads. One cell emits one Row;
// a grid of cells emits one scc-scenario/v1 Artifact.
//
// The harness deliberately reuses the production stack end to end: keys
// are drawn by internal/workload generators, options ride the
// internal/server/opts token codec through the real client, and the
// server under test listens on a real TCP loopback socket — nothing is
// stubbed.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server/opts"
	"repro/internal/workload"
)

// SchemaV1 names the artifact schema emitted by grids.
const SchemaV1 = "scc-scenario/v1"

// Server roles a cell can boot.
const (
	RolePrimary        = "primary"
	RoleDurable        = "durable"
	RolePrimaryReplica = "primary+replica"
	// RoleFailover boots a clustered primary+replica pair with a
	// lease-based failover monitor on the replica, kills the primary at
	// half the cell duration, and keeps driving: workers follow the ERR
	// not-primary redirects onto the promoted replica, the row records
	// the kill-to-promotion latency, and the ledger audit runs in its
	// >= form (retries may double-land; lost acked commits still fail).
	RoleFailover = "primary+replica+failover"
)

// Cell is one point of the scenario matrix. The zero value of most
// fields means "the default"; withDefaults fills them in.
type Cell struct {
	Name string
	// Mix selects the class mix: "" or "base" is the paper's one-class
	// baseline, "two" is the Fig. 14(b) long/short value mix.
	Mix string
	// Skew is the key distribution (workload.KeyUniform/KeyZipf/KeyHot).
	Skew workload.KeyDist
	// Family is the value-function family in wire vf= syntax: "" or
	// "linear", "cliff", "step:<frac>", "renew:<n>". It is validated by
	// opts.ParseFamily — the same single gate the server uses.
	Family string
	// Interactive drives each transaction as a TXN session (BEGIN, one
	// round trip per op with think time between ops, COMMIT) instead of
	// a pipelined one-shot UPD.
	Interactive bool
	// Think is the per-op client think time (interactive cells only).
	Think workload.ThinkTime
	// Role is the server topology: RolePrimary (default), RoleDurable
	// (WAL + checkpoints in a temp dir), or RolePrimaryReplica (load on
	// the primary, audits on the caught-up replica).
	Role string
	// Oracle replays the cell's committed history through the
	// serializability oracle (internal/history) instead of the
	// conservation audit: sessions increment a shared sequencer and a
	// Zipfian hot key, and the commit results must form an acyclic
	// conflict graph.
	Oracle bool

	Clients  int           // client connections (one mux each)
	Sessions int           // pipelined batch size, or interactive sessions per client
	Keys     int           // keyspace size (workload DBPages)
	Deadline time.Duration // per-transaction soft deadline
	Duration time.Duration // wall-clock load duration
	Seed     int64
}

// withDefaults fills zero fields with the matrix defaults.
func (c Cell) withDefaults() Cell {
	if c.Mix == "" {
		c.Mix = "base"
	}
	if c.Role == "" {
		c.Role = RolePrimary
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Sessions <= 0 {
		if c.Interactive {
			c.Sessions = 4
		} else {
			c.Sessions = 8
		}
	}
	if c.Keys <= 0 {
		c.Keys = 128
	}
	if c.Deadline <= 0 {
		c.Deadline = 500 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Role == RoleFailover && c.Duration < 2*time.Second {
		// The kill lands at Duration/2 and the post-kill half must cover
		// lease expiry, election, and catch-up; a shorter cell would
		// measure only noise.
		c.Duration = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// family parses the cell's Family through the shared codec; "" means
// linear (the zero opts.Family).
func (c Cell) family() (opts.Family, error) {
	if c.Family == "" {
		return opts.Family{}, nil
	}
	f, err := opts.ParseFamily(c.Family)
	if err != nil {
		return opts.Family{}, fmt.Errorf("cell %q: %w", c.Name, err)
	}
	if f.Kind == opts.FamilyLinear {
		return opts.Family{}, nil
	}
	return f, nil
}

// validate rejects cells the harness cannot run. Workload parameters are
// validated by workload.Config.Validate at generator build time.
func (c Cell) validate() error {
	switch c.Role {
	case RolePrimary, RoleDurable, RolePrimaryReplica:
	case RoleFailover:
		if c.Interactive || c.Oracle {
			return fmt.Errorf("cell %q: failover cells drive one-shot loads only", c.Name)
		}
	default:
		return fmt.Errorf("cell %q: unknown role %q", c.Name, c.Role)
	}
	if _, err := c.family(); err != nil {
		return err
	}
	if c.Oracle && !c.Interactive {
		return fmt.Errorf("cell %q: oracle cells must be interactive", c.Name)
	}
	return c.workloadConfig(c.Seed).Validate()
}

// workloadConfig builds the cell's generator configuration for one
// worker seed. Interactive cells trim transactions to 4 ops so a session
// with think time finishes well inside its deadline.
func (c Cell) workloadConfig(seed int64) workload.Config {
	var cfg workload.Config
	if c.Mix == "two" {
		cfg = workload.TwoClass(1000, seed)
	} else {
		cfg = workload.Baseline(1000, seed)
	}
	cfg.DBPages = c.Keys
	cfg.Keys = c.Skew
	cfg.Think = c.Think
	for i := range cfg.Classes {
		if c.Interactive && cfg.Classes[i].NumOps > 4 {
			cfg.Classes[i].NumOps = 4
		}
		if cfg.Classes[i].NumOps > c.Keys {
			cfg.Classes[i].NumOps = c.Keys
		}
		cfg.Classes[i].ValueFamily = c.Family
	}
	return cfg
}

// skewLabel renders the cell's key distribution for the artifact row.
func skewLabel(k workload.KeyDist) string {
	switch k.Kind {
	case workload.KeyZipf:
		return fmt.Sprintf("zipf:%.2f", k.Theta)
	case workload.KeyHot:
		return fmt.Sprintf("hot:%d:%.2f", k.HotKeys, k.HotFrac)
	default:
		return "uniform"
	}
}

// StageRow is the load driver's own row type; the artifact embeds it
// unchanged.
type StageRow = loadgen.StageRow

// Row is one cell's emitted result.
type Row struct {
	Cell        string  `json:"cell"`
	Skew        string  `json:"skew"`
	Family      string  `json:"family"`
	Session     string  `json:"session"` // "oneshot" | "interactive"
	Role        string  `json:"role"`
	DurationSec float64 `json:"duration_sec"`
	Clients     int     `json:"clients"`

	Requests  int64 `json:"requests"`
	Committed int64 `json:"committed"`
	Shed      int64 `json:"shed"`
	Errors    int64 `json:"errors"`

	ThroughputTPS float64 `json:"throughput_tps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`

	// ValueSubmitted is the sum of V over every submitted transaction;
	// ValueRealized re-evaluates each committed transaction's value
	// function at its observed client-side latency (family-aware), so
	// ValueRatio is the realized-vs-submitted fraction of Def. 7 value.
	ValueSubmitted float64 `json:"value_submitted"`
	ValueRealized  float64 `json:"value_realized"`
	ValueRatio     float64 `json:"value_ratio"`

	ConservationOK bool  `json:"conservation_ok"`
	LedgerOK       bool  `json:"ledger_ok"`
	OracleOK       *bool `json:"oracle_ok,omitempty"`

	// Failover cells: latency from the primary's kill to the replica's
	// successful promotion, and the ERR not-primary redirects workers
	// followed while chasing the new primary.
	PromoteMs float64 `json:"promote_ms,omitempty"`
	Redirects int64   `json:"redirects,omitempty"`

	Server map[string]string `json:"server_stats,omitempty"`

	// Stages attributes latency to server-side lifecycle stages from
	// sampled trace= timelines (stage name -> offset quantiles).
	Stages map[string]StageRow `json:"stages,omitempty"`
}

// Artifact is the scc-scenario/v1 JSON document: one grid run.
type Artifact struct {
	Schema string `json:"schema"`
	Preset string `json:"preset"`
	CPUs   int    `json:"cpus"`
	Cells  []Row  `json:"cells"`
}

// Presets lists the named grids.
func Presets() []string { return []string{"smoke", "full"} }

// Grid returns the named cell grid.
//
// "smoke" is the two-cell tier-1 grid (one one-shot uniform cell, one
// interactive Zipfian cell) kept fast enough for go test ./...; "full"
// is the nightly matrix: the 3×3 skew × family core plus renewal,
// think-time, durable, replica, oracle, and failover cells.
func Grid(preset string) ([]Cell, error) {
	switch preset {
	case "smoke":
		return []Cell{
			{Name: "smoke-uniform-linear", Duration: 400 * time.Millisecond},
			{
				Name:        "smoke-zipf99-cliff",
				Skew:        workload.KeyDist{Kind: workload.KeyZipf, Theta: 0.99},
				Family:      "cliff",
				Interactive: true,
				Duration:    400 * time.Millisecond,
			},
		}, nil
	case "full":
		skews := []struct {
			tag string
			k   workload.KeyDist
		}{
			{"u", workload.KeyDist{}},
			{"z80", workload.KeyDist{Kind: workload.KeyZipf, Theta: 0.80}},
			{"z99", workload.KeyDist{Kind: workload.KeyZipf, Theta: 0.99}},
		}
		families := []string{"linear", "cliff", "step:0.5"}
		var cells []Cell
		for _, s := range skews {
			for _, f := range families {
				cells = append(cells, Cell{
					Name:   s.tag + "-" + f,
					Skew:   s.k,
					Family: f,
				})
			}
		}
		cells = append(cells,
			Cell{
				Name:   "hot-renewal",
				Skew:   workload.KeyDist{Kind: workload.KeyHot, HotKeys: 16, HotFrac: 0.8},
				Family: "renew:4",
			},
			Cell{
				Name:        "interactive-think",
				Mix:         "two",
				Skew:        workload.KeyDist{Kind: workload.KeyZipf, Theta: 0.90},
				Interactive: true,
				Think:       workload.ThinkTime{Kind: workload.ThinkExp, Mean: 0.002},
			},
			Cell{
				Name:   "durable-linear",
				Role:   RoleDurable,
				Skew:   workload.KeyDist{Kind: workload.KeyZipf, Theta: 0.80},
				Family: "linear",
			},
			Cell{
				Name:   "replica-step",
				Role:   RolePrimaryReplica,
				Family: "step:0.5",
			},
			Cell{
				Name:        "oracle-z99",
				Skew:        workload.KeyDist{Kind: workload.KeyZipf, Theta: 0.99},
				Interactive: true,
				Oracle:      true,
				Deadline:    10 * time.Second,
			},
			Cell{
				Name:     "failover-z90",
				Role:     RoleFailover,
				Skew:     workload.KeyDist{Kind: workload.KeyZipf, Theta: 0.90},
				Deadline: 5 * time.Second,
				Duration: 3 * time.Second,
			},
		)
		return cells, nil
	}
	return nil, fmt.Errorf("scenario: unknown preset %q (want one of %v)", preset, Presets())
}
