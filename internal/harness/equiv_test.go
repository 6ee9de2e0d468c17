package harness

import (
	"fmt"
	"testing"

	"repro/internal/rtdbs"
	"repro/internal/workload"
)

// equivShapes are single-run workloads spanning low and saturating load,
// the two-class value mix, a small hot database and an all-write one.
//
// Each runs to 1 500 measured commits except the hot database, which
// thrashes (almost every commit misses its deadline, about 200 restarts
// per measured commit) and so costs far more per commit: 150 commits take
// as long as the other six shapes together.
var equivShapes = []struct {
	name   string
	target int
	wl     func() workload.Config
}{
	{"rate50-seed1", 1500, func() workload.Config { return workload.Baseline(50, 1) }},
	{"rate150-seed1", 1500, func() workload.Config { return workload.Baseline(150, 1) }},
	{"rate100-seed2", 1500, func() workload.Config { return workload.Baseline(100, 2) }},
	{"rate200-seed3", 1500, func() workload.Config { return workload.Baseline(200, 3) }},
	{"twoclass120-seed4", 1500, func() workload.Config { return workload.TwoClass(120, 4) }},
	{"pages200-ops24-w0.6", 150, func() workload.Config {
		wl := workload.Baseline(100, 1)
		wl.DBPages, wl.Classes[0].NumOps, wl.Classes[0].WriteProb = 200, 24, 0.6
		return wl
	}},
	{"pages100-ops8-w1", 1500, func() workload.Config {
		wl := workload.Baseline(100, 1)
		wl.DBPages, wl.Classes[0].NumOps, wl.Classes[0].WriteProb = 100, 8, 1
		return wl
	}},
}

// TestOCCBaselinesPinned pins every measure of OCC-BC and WAIT-50 on the
// shapes above, so a change to how either protocol is built has to leave
// the simulator's output exactly as it was.
func TestOCCBaselinesPinned(t *testing.T) {
	for _, name := range []string{"OCC-BC", "WAIT-50"} {
		spec, err := Protocol(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range equivShapes {
			key := name + "/" + sh.name
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				res := rtdbs.Run(rtdbs.Config{
					Workload:   sh.wl(),
					Target:     sh.target,
					Warmup:     200,
					CheckReads: true,
					MaxActive:  8000,
				}, spec.New())
				got := fmt.Sprintf("%s t=%.6f trunc=%v %+v", res.Protocol, float64(res.SimTime), res.Truncated, *res.Metrics)
				if got != pinnedOCC[key] {
					t.Errorf("%s:\n got %s\nwant %s", key, got, pinnedOCC[key])
				}
			})
		}
	}
}

// pinnedOCC holds what the runs above printed when OCC-BC and WAIT-50
// were first pinned: protocol name, simulated time, truncation and every
// counter of stats.Metrics.
var pinnedOCC = map[string]string{
	"OCC-BC/rate50-seed1":         `OCC-BC t=34.361340 trunc=false {Committed:1500 Missed:134 TardinessSum:21.543392773824316 ValueSum:145511.7931721199 MaxValueSum:150000 Restarts:575 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:88.16293903983599 UsefulTime:357.1088415252335 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"OCC-BC/rate150-seed1":        `OCC-BC t=11.755084 trunc=false {Committed:1500 Missed:462 TardinessSum:154.64846397816183 ValueSum:117781.57000454966 MaxValueSum:150000 Restarts:2204 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:328.75462262447707 UsefulTime:356.9794086592243 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"OCC-BC/rate100-seed2":        `OCC-BC t=17.514369 trunc=false {Committed:1500 Missed:308 TardinessSum:67.95017505633928 ValueSum:135843.71352992943 MaxValueSum:150000 Restarts:1211 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:183.8278190189013 UsefulTime:361.4291405306655 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"OCC-BC/rate200-seed3":        `OCC-BC t=9.154565 trunc=false {Committed:1500 Missed:601 TardinessSum:255.3015879201615 ValueSum:96812.16918329967 MaxValueSum:150000 Restarts:3329 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:477.3182162914993 UsefulTime:359.60596508535747 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"OCC-BC/twoclass120-seed4":    `OCC-BC t=14.907581 trunc=false {Committed:1500 Missed:215 TardinessSum:69.67932155790358 ValueSum:36719.12620882287 MaxValueSum:156000 Restarts:855 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:134.57581881349256 UsefulTime:299.1693333522151 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"OCC-BC/pages200-ops24-w0.6":  `OCC-BC t=10.578193 trunc=false {Committed:150 Missed:125 TardinessSum:306.73003062903655 ValueSum:-27601.39314292176 MaxValueSum:15000 Restarts:27600 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:3775.143167800636 UsefulTime:48.201230713649906 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"OCC-BC/pages100-ops8-w1":     `OCC-BC t=17.036883 trunc=false {Committed:1500 Missed:0 TardinessSum:0 ValueSum:150000 MaxValueSum:150000 Restarts:0 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:0 UsefulTime:179.8144691107382 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"WAIT-50/rate50-seed1":        `WAIT-50 t=34.355626 trunc=false {Committed:1501 Missed:64 TardinessSum:4.68829359609831 ValueSum:149123.27216747947 MaxValueSum:150100 Restarts:417 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:59.13479864409838 UsefulTime:357.4822346691224 CommitWaits:150 BlockedWaits:0 DeadlockAvert:0}`,
	"WAIT-50/rate150-seed1":       `WAIT-50 t=11.752484 trunc=false {Committed:1502 Missed:547 TardinessSum:103.25642501195733 ValueSum:128688.24478917553 MaxValueSum:150200 Restarts:2020 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:295.1087652055043 UsefulTime:357.56100278184005 CommitWaits:575 BlockedWaits:0 DeadlockAvert:0}`,
	"WAIT-50/rate100-seed2":       `WAIT-50 t=17.514369 trunc=false {Committed:1500 Missed:261 TardinessSum:29.441734299428724 ValueSum:143866.30535428572 MaxValueSum:150000 Restarts:999 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:147.72756311036656 UsefulTime:361.5242084988821 CommitWaits:350 BlockedWaits:0 DeadlockAvert:0}`,
	"WAIT-50/rate200-seed3":       `WAIT-50 t=9.260795 trunc=false {Committed:1500 Missed:849 TardinessSum:257.20748829201074 ValueSum:96415.10660583107 MaxValueSum:150000 Restarts:3458 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:517.9455141692331 UsefulTime:359.8983064884166 CommitWaits:825 BlockedWaits:0 DeadlockAvert:0}`,
	"WAIT-50/twoclass120-seed4":   `WAIT-50 t=14.858196 trunc=false {Committed:1500 Missed:194 TardinessSum:28.23787647454573 ValueSum:117027.88305109505 MaxValueSum:157000 Restarts:609 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:84.59166432146108 UsefulTime:299.84007756132473 CommitWaits:231 BlockedWaits:0 DeadlockAvert:0}`,
	"WAIT-50/pages200-ops24-w0.6": `WAIT-50 t=11.525816 trunc=false {Committed:150 Missed:150 TardinessSum:645.943497465623 ValueSum:-74714.37464800323 MaxValueSum:15000 Restarts:30937 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:4605.3571785211525 UsefulTime:49.801563526608376 CommitWaits:492 BlockedWaits:0 DeadlockAvert:0}`,
	"WAIT-50/pages100-ops8-w1":    `WAIT-50 t=17.036883 trunc=false {Committed:1500 Missed:0 TardinessSum:0 ValueSum:150000 MaxValueSum:150000 Restarts:0 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:0 UsefulTime:179.8144691107382 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
}
