// Command bench is the repository's benchmark: one process boots an
// in-process server.Server on loopback TCP and drives it through
// internal/server/client, closed loop, over five serving workloads. It
// reports the end-to-end metrics from an untraced run, the per-layer
// metrics from a traced run plus direct layer probes, audits every run
// for correctness, and compares two result files against the bounds in
// BENCHMARK.json. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print one JSON result line (the driver contract); empty runs all five")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds      = flag.Float64("seconds", 20, "length of the timed window, seconds")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		values       = flag.String("values", "one_class", "hot_shard only: two_class mixes 10% v=100 requests in and reproduces the engine's park/defer hang")
		runs         = flag.Int("runs", 1, "without -workload: repeat every workload this many times (seed, seed+1, ...)")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for result JSON, span files and goroutine dumps")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare A.json B.json")
		}
		os.Exit(compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments: %v", flag.Args())
	}
	if *seconds <= 0 || *runs < 1 {
		fatal(2, "-seconds and -runs must be positive")
	}
	twoClass := false
	switch *values {
	case "one_class":
	case "two_class":
		if *workloadName != "hot_shard" {
			fatal(2, "-values two_class applies to -workload hot_shard only")
		}
		twoClass = true
	default:
		fatal(2, "-values must be one_class or two_class")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	o := runOpts{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		outDir: *outDir, twoClass: twoClass, probes: true,
	}
	stamp := envStamp(*outDir, o)
	fmt.Printf("env %s\n", mustJSON(stamp))

	if *workloadName != "" {
		wl := findWorkload(*workloadName)
		if wl == nil {
			fatal(2, "unknown workload %q", *workloadName)
		}
		os.Exit(runContract(wl, o, *trace == 1))
	}
	os.Exit(runAll(o, *runs, stamp))
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers reach here
	}
	return string(b)
}

// contractLine is the last line of standard output in -workload mode.
type contractLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runContract runs one workload the way the benchmark driver asks for it
// and prints the result object as the last line. The exit code is
// non-zero when an audit failed or the run was abandoned.
func runContract(wl *workload, o runOpts, traced bool) int {
	run := runUntraced
	if traced {
		run = runTraced
	}
	res, err := run(wl, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	printMetrics(res)
	fmt.Println(mustJSON(contractLine{res.Correct, max(res.Attempted, 1), res.Failed, res.Metrics}))
	if !res.Correct {
		return 1
	}
	return 0
}

// environment is the stamp every result carries: numbers from two
// stamps that differ are not comparable.
type environment struct {
	NProc         int     `json:"nproc"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"git_commit"`
	Seed          int64   `json:"seed"`
	WindowSeconds float64 `json:"timed_window_s"`
	WarmupSeconds float64 `json:"warmup_s"`
	Conns         int     `json:"connections"`
	InFlight      int     `json:"in_flight_per_connection"`
	DurableFS     string  `json:"durable_fs"`
	DurableFsync  string  `json:"durable_fsync"`
}

func envStamp(outDir string, o runOpts) environment {
	commit := os.Getenv("SCCBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: o.seed,
		WindowSeconds: o.window.Seconds(), WarmupSeconds: warmup(o.window).Seconds(),
		Conns: numConns, InFlight: slotsPerConn,
		DurableFS: fsName(outDir), DurableFsync: serverConfig("x").Durable.Fsync.String(),
	}
}

// fsName names the filesystem holding dir (where the durable workload's
// data directory lives) by its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Schema    string                      `json:"schema"`
	Env       environment                 `json:"env"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// workloadResults holds every run of one workload: per metric, one value
// per run, so a reader can take medians and spreads.
type workloadResults struct {
	Runs      int                `json:"runs"`
	Seeds     []int64            `json:"seeds"`
	Attempted []int64            `json:"attempted"`
	Failed    []int64            `json:"failed"`
	Samples   []int              `json:"samples"`
	Correct   bool               `json:"correct"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
	Audits    [][]auditResult    `json:"audits"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

const resultSchema = "scc-bench/v1"

func addSeries(dst map[string]*series, m metricSet) {
	for n, v := range m {
		s := dst[n]
		if s == nil {
			s = &series{Unit: v.Unit}
			dst[n] = s
		}
		s.Values = append(s.Values, v.Value)
	}
}

// runAll runs every workload runs times, untraced then traced, prints
// every metric, and writes the result file. The layer probe does not
// depend on the workload, so it runs with the first traced run only.
func runAll(o runOpts, runs int, stamp environment) int {
	out := resultFile{Schema: resultSchema, Env: stamp, Workloads: map[string]*workloadResults{}}
	code := 0
	probed := false
	for _, wl := range workloads {
		wr := &workloadResults{Correct: true, EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
		out.Workloads[wl.name] = wr
		for r := 0; r < runs; r++ {
			ro := o
			ro.seed = o.seed + int64(r)
			e2e, err := runUntraced(wl, ro)
			if err != nil {
				fatal(1, "%s: %v", wl.name, err)
			}
			printMetrics(e2e)
			ro.probes = !probed
			layer, err := runTraced(wl, ro)
			if err != nil {
				fatal(1, "%s: %v", wl.name, err)
			}
			probed = true
			printMetrics(layer)

			wr.Runs++
			wr.Seeds = append(wr.Seeds, ro.seed)
			wr.Attempted = append(wr.Attempted, e2e.Attempted)
			wr.Failed = append(wr.Failed, e2e.Failed)
			wr.Samples = append(wr.Samples, e2e.Samples)
			wr.Audits = append(wr.Audits, append(e2e.Audits, layer.Audits...))
			e2e.Metrics.put("failed_pct", 100*ratio(float64(e2e.Failed), float64(e2e.Attempted)), "%")
			addSeries(wr.EndToEnd, e2e.Metrics)
			addSeries(wr.PerLayer, layer.Metrics)
			if !e2e.Correct || !layer.Correct {
				wr.Correct = false
				code = 1
			}
		}
	}
	path := filepath.Join(o.outDir, "result.json")
	b, err := json.MarshalIndent(out, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal(1, "write result: %v", err)
	}
	fmt.Printf("result written to %s\n", path)
	return code
}
