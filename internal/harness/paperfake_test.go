//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// The engine on the paper's workload, in fake time. Run with
// `make paper-fake` (GOEXPERIMENT=synctest); plain `go test ./...` skips
// this file. go.mod says 1.22, which keeps the pre-1.23 timer channels
// that synctest cannot use, hence the go:debug line; only one file in
// the package may carry it.

package harness

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/engine"
	"repro/internal/rtdbs"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	fakeArrivals = 2200
	fakeWarmup   = 200 // arrivals (engine) or commits (core) left out of missed % and tardiness
)

// fakeCell is one run's outcome. Forks and restarts are per commit over
// the whole run, warm-up included; missed and tardiness cover measured
// transactions only.
type fakeCell struct {
	measured, missed, failed int
	tardiness                float64 // mean, seconds
	forks, restarts          float64
}

func (c fakeCell) String() string {
	return fmt.Sprintf("%6.2f %% %6.3f s %5.2f %5.2f %3d", 100*float64(c.missed)/float64(c.measured), c.tardiness, c.forks, c.restarts, c.failed)
}

func fakeDuration(t sim.Time) time.Duration { return time.Duration(float64(t) * float64(time.Second)) }

// runEngineFake replays fakeArrivals transactions of wl on one
// engine.Store in a synctest bubble. Each transaction is a goroutine
// started at its arrival instant; its closure does a Get or Set of the
// page's key for each access and then sleeps the transaction's OpTime,
// the paper's service time under infinite resources. A transaction
// misses if Update returns after its deadline; one that fails (an
// *engine.AttemptsError) counts as missed. wg.Wait returns only once
// every arrival's Update has returned: one stuck for good leaves every
// goroutine of the bubble blocked, and synctest.Run panics.
func runEngineFake(mode engine.Mode, wl workload.Config) fakeCell {
	// The cell leaves the bubble through a channel made outside it: the
	// race detector does not order synctest.Run's return after the
	// bubble's writes.
	out := make(chan fakeCell, 1)
	synctest.Run(func() {
		var c fakeCell
		st := engine.Open(engine.Config{Mode: mode})
		gen := workload.NewGenerator(wl)
		start := time.Now()
		done := make([]time.Duration, fakeArrivals)
		errs := make([]error, fakeArrivals)
		deadlines := make([]time.Duration, fakeArrivals)
		var wg sync.WaitGroup
		for i := range fakeArrivals {
			txn := gen.Next()
			deadlines[i] = fakeDuration(txn.Deadline)
			keys := make([]string, len(txn.Ops))
			for j, op := range txn.Ops {
				keys[j] = strconv.Itoa(int(op.Page))
			}
			val := []byte(strconv.Itoa(int(txn.ID)))
			opTime := fakeDuration(sim.Time(txn.OpTime))
			time.Sleep(time.Until(start.Add(fakeDuration(txn.Arrival))))
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = st.Update(func(tx *engine.Tx) error {
					for j, op := range txn.Ops {
						var err error
						if op.Write {
							err = tx.Set(keys[j], val)
						} else {
							_, err = tx.Get(keys[j])
						}
						if err != nil {
							return err
						}
						time.Sleep(opTime)
					}
					return nil
				})
				done[i] = time.Since(start)
			}()
		}
		wg.Wait()
		s := st.Stats()
		st.Close()

		var tardy time.Duration
		for i := range fakeArrivals {
			if errs[i] != nil {
				c.failed++
			}
			if i < fakeWarmup {
				continue
			}
			c.measured++
			if errs[i] != nil || done[i] > deadlines[i] {
				c.missed++
			}
			if errs[i] == nil {
				tardy += max(0, done[i]-deadlines[i])
			}
		}
		c.tardiness = tardy.Seconds() / float64(c.measured)
		c.forks = float64(s.Forks) / float64(s.Commits)
		c.restarts = float64(s.Restarts) / float64(s.Commits)
		out <- c
	})
	return <-out
}

// runCoreFake runs the simulator's protocol on the same arrival stream.
func runCoreFake(t *testing.T, protocol string, wl workload.Config) fakeCell {
	spec, err := Protocol(protocol)
	if err != nil {
		t.Fatal(err)
	}
	res := rtdbs.Run(rtdbs.Config{Workload: wl, Target: fakeArrivals - fakeWarmup, Warmup: fakeWarmup}, spec.New())
	m := res.Metrics
	commits := float64(m.Committed + fakeWarmup)
	return fakeCell{
		measured:  m.Committed,
		missed:    m.Missed,
		tardiness: m.AvgTardiness(),
		forks:     float64(m.ShadowForks) / commits,
		restarts:  float64(m.Restarts) / commits,
	}
}

// TestPaperWorkloadFakeTime prints the engine's SCC-2S and OCC-BC beside
// the simulator's on the paper's baseline workload (seeds 1-2, 50 / 100 /
// 150 txn/s). It asserts what holds today: every arrival resolves, no
// goroutine outlives its bubble (synctest.Run checks that), and a second
// run of each engine cell reproduces the first exactly. The numbers
// themselves are printed, not asserted.
func TestPaperWorkloadFakeTime(t *testing.T) {
	var out strings.Builder
	fmt.Fprintf(&out, "%-16s %4s %4s %8s %8s %5s %5s %3s\n", "runtime", "seed", "rate", "missed", "tardy", "forks", "rest", "err")
	for _, seed := range []int64{1, 2} {
		for _, rate := range []float64{50, 100, 150} {
			wl := workload.Baseline(rate, seed)
			for _, mode := range []engine.Mode{engine.SCC2S, engine.OCCBC} {
				first, second := runEngineFake(mode, wl), runEngineFake(mode, wl)
				if first != second {
					t.Errorf("engine %v seed %d rate %.0f: two runs differ:\n%v\n%v", mode, seed, rate, first, second)
				}
				fmt.Fprintf(&out, "%-16s %4d %4.0f %v\n", "engine "+mode.String(), seed, rate, first)
			}
			for _, p := range []string{"SCC-2S", "OCC-BC"} {
				fmt.Fprintf(&out, "%-16s %4d %4.0f %v\n", "core "+p, seed, rate, runCoreFake(t, p, wl))
			}
		}
	}
	t.Logf("missed %% and mean tardiness over arrivals %d..%d; forks and restarts per commit; err = failed transactions\n%s",
		fakeWarmup+1, fakeArrivals, out.String())
}
