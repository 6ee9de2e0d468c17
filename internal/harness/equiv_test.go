package harness

import (
	"fmt"
	"runtime"
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

// pinnedSCCCells lists the SCC family's pinned runs: which protocols run
// on which equivShapes. The hot database is pinned for SCC-2S only (each
// SCC protocol takes seconds there, SCC-CB more than eight), and the
// deferral policies on one single-class and one two-class shape.
var pinnedSCCCells = []struct {
	protocols []string
	shapes    []string
}{
	{[]string{"SCC-2S", "SCC-kS(3)", "SCC-kS-FIFO(3)", "SCC-kS-PRIO(2)", "SCC-AK", "SCC-CB"},
		[]string{"rate50-seed1", "rate150-seed1", "rate100-seed2", "rate200-seed3", "twoclass120-seed4", "pages100-ops8-w1"}},
	{[]string{"SCC-2S"}, []string{"pages200-ops24-w0.6"}},
	{[]string{"SCC-DC", "SCC-VW"}, []string{"rate50-seed1", "twoclass120-seed4"}},
}

// TestSCCFamilyPinned pins every measure of the SCC protocols on the
// cells above, as TestOCCBaselinesPinned does for OCC-BC and WAIT-50, so
// a change to how the speculative protocols keep their conflict state has
// to leave the simulator's output exactly as it was.
func TestSCCFamilyPinned(t *testing.T) {
	shapes := make(map[string]int, len(equivShapes))
	for i, sh := range equivShapes {
		shapes[sh.name] = i
	}
	for _, cell := range pinnedSCCCells {
		for _, name := range cell.protocols {
			spec, err := Protocol(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, shape := range cell.shapes {
				sh := equivShapes[shapes[shape]]
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
					if got != pinnedSCC[key] {
						t.Errorf("%s:\n got %s\nwant %s", key, got, pinnedSCC[key])
					}
				})
			}
		}
	}
}

// pinnedSCC holds what the runs above printed when the SCC family was
// first pinned: protocol name, simulated time, truncation and every
// counter of stats.Metrics.
var pinnedSCC = map[string]string{
	"SCC-2S/rate50-seed1":              `SCC-2S t=34.328439 trunc=false {Committed:1500 Missed:77 TardinessSum:9.84223244183869 ValueSum:147949.5349079502 MaxValueSum:150000 Restarts:0 Promotions:556 ShadowForks:1068 ShadowAborts:39 WastedTime:92.94219923967701 UsefulTime:337.64034872198334 CommitWaits:0 BlockedWaits:821 DeadlockAvert:0}`,
	"SCC-2S/rate150-seed1":             `SCC-2S t=11.680319 trunc=false {Committed:1500 Missed:338 TardinessSum:79.67998468693756 ValueSum:133400.00319022132 MaxValueSum:150000 Restarts:0 Promotions:1994 ShadowForks:3716 ShadowAborts:466 WastedTime:300.93954623223226 UsefulTime:319.1018571948429 CommitWaits:0 BlockedWaits:2909 DeadlockAvert:0}`,
	"SCC-2S/rate100-seed2":             `SCC-2S t=17.473137 trunc=false {Committed:1500 Missed:194 TardinessSum:33.95115014804318 ValueSum:142926.84371915756 MaxValueSum:150000 Restarts:0 Promotions:1171 ShadowForks:2232 ShadowAborts:183 WastedTime:182.087736833393 UsefulTime:331.8046803243434 CommitWaits:0 BlockedWaits:1707 DeadlockAvert:0}`,
	"SCC-2S/rate200-seed3":             `SCC-2S t=9.049217 trunc=false {Committed:1500 Missed:440 TardinessSum:161.70964832221816 ValueSum:116310.48993287119 MaxValueSum:150000 Restarts:0 Promotions:3139 ShadowForks:5418 ShadowAborts:808 WastedTime:438.6863039083844 UsefulTime:320.48442743340615 CommitWaits:0 BlockedWaits:4459 DeadlockAvert:0}`,
	"SCC-2S/twoclass120-seed4":         `SCC-2S t=14.847311 trunc=false {Committed:1500 Missed:149 TardinessSum:39.52008456532705 ValueSum:87748.01443713253 MaxValueSum:157500 Restarts:0 Promotions:811 ShadowForks:1680 ShadowAborts:151 WastedTime:128.15528685842796 UsefulTime:282.0726389040443 CommitWaits:0 BlockedWaits:1227 DeadlockAvert:0}`,
	"SCC-2S/pages100-ops8-w1":          `SCC-2S t=17.036883 trunc=false {Committed:1500 Missed:0 TardinessSum:0 ValueSum:150000 MaxValueSum:150000 Restarts:0 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:0 UsefulTime:179.8144691107382 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"SCC-2S/pages200-ops24-w0.6":       `SCC-2S t=10.071362 trunc=false {Committed:150 Missed:123 TardinessSum:287.91842093509484 ValueSum:-24988.669574318752 MaxValueSum:15000 Restarts:0 Promotions:27314 ShadowForks:28334 ShadowAborts:139 WastedTime:3307.240824846243 UsefulTime:44.897599113539975 CommitWaits:0 BlockedWaits:28288 DeadlockAvert:0}`,
	"SCC-kS(3)/rate50-seed1":           `SCC-3S t=34.328439 trunc=false {Committed:1500 Missed:74 TardinessSum:9.2509459574074 ValueSum:148072.71959220673 MaxValueSum:150000 Restarts:0 Promotions:558 ShadowForks:1158 ShadowAborts:61 WastedTime:94.22087303174835 UsefulTime:337.14100966384086 CommitWaits:0 BlockedWaits:909 DeadlockAvert:0}`,
	"SCC-kS(3)/rate150-seed1":          `SCC-3S t=11.692048 trunc=false {Committed:1500 Missed:298 TardinessSum:68.27801053845174 ValueSum:135775.4144711558 MaxValueSum:150000 Restarts:0 Promotions:2087 ShadowForks:4619 ShadowAborts:644 WastedTime:311.4601299989261 UsefulTime:311.70199543411627 CommitWaits:0 BlockedWaits:3887 DeadlockAvert:0}`,
	"SCC-kS(3)/rate100-seed2":          `SCC-3S t=17.473137 trunc=false {Committed:1500 Missed:173 TardinessSum:31.314539219327486 ValueSum:143476.13766264 MaxValueSum:150000 Restarts:0 Promotions:1172 ShadowForks:2557 ShadowAborts:240 WastedTime:183.0813989254284 UsefulTime:328.2430918810449 CommitWaits:0 BlockedWaits:2029 DeadlockAvert:0}`,
	"SCC-kS(3)/rate200-seed3":          `SCC-3S t=9.022985 trunc=false {Committed:1500 Missed:424 TardinessSum:144.7979628327242 ValueSum:119833.7577431824 MaxValueSum:150000 Restarts:0 Promotions:3179 ShadowForks:6974 ShadowAborts:1333 WastedTime:451.02246816683436 UsefulTime:308.5801366714305 CommitWaits:0 BlockedWaits:6158 DeadlockAvert:0}`,
	"SCC-kS(3)/twoclass120-seed4":      `SCC-3S t=14.831362 trunc=false {Committed:1500 Missed:142 TardinessSum:32.813364429439616 ValueSum:101157.1026116746 MaxValueSum:157500 Restarts:0 Promotions:785 ShadowForks:1825 ShadowAborts:153 WastedTime:125.28807225491371 UsefulTime:281.6815778476929 CommitWaits:0 BlockedWaits:1411 DeadlockAvert:0}`,
	"SCC-kS(3)/pages100-ops8-w1":       `SCC-3S t=17.036883 trunc=false {Committed:1500 Missed:0 TardinessSum:0 ValueSum:150000 MaxValueSum:150000 Restarts:0 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:0 UsefulTime:179.8144691107382 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"SCC-kS-FIFO(3)/rate50-seed1":      `SCC-3S-FIFO t=34.328439 trunc=false {Committed:1500 Missed:74 TardinessSum:9.2509459574074 ValueSum:148072.71959220673 MaxValueSum:150000 Restarts:1 Promotions:557 ShadowForks:1153 ShadowAborts:57 WastedTime:94.23489972814754 UsefulTime:337.14100966384086 CommitWaits:0 BlockedWaits:907 DeadlockAvert:0}`,
	"SCC-kS-FIFO(3)/rate150-seed1":     `SCC-3S-FIFO t=11.678957 trunc=false {Committed:1500 Missed:290 TardinessSum:67.7217706321776 ValueSum:135891.29778496295 MaxValueSum:150000 Restarts:13 Promotions:2069 ShadowForks:4401 ShadowAborts:459 WastedTime:308.0483901750985 UsefulTime:308.88735845980386 CommitWaits:0 BlockedWaits:3692 DeadlockAvert:0}`,
	"SCC-kS-FIFO(3)/rate100-seed2":     `SCC-3S-FIFO t=17.473137 trunc=false {Committed:1500 Missed:171 TardinessSum:30.73475560204146 ValueSum:143596.92591624125 MaxValueSum:150000 Restarts:1 Promotions:1168 ShadowForks:2498 ShadowAborts:186 WastedTime:182.64919515794705 UsefulTime:328.0535178995582 CommitWaits:0 BlockedWaits:2009 DeadlockAvert:0}`,
	"SCC-kS-FIFO(3)/rate200-seed3":     `SCC-3S-FIFO t=9.014306 trunc=false {Committed:1500 Missed:387 TardinessSum:121.18384193713004 ValueSum:124753.36626309801 MaxValueSum:150000 Restarts:49 Promotions:2938 ShadowForks:6177 ShadowAborts:778 WastedTime:420.4924304646512 UsefulTime:304.8290538128294 CommitWaits:0 BlockedWaits:5481 DeadlockAvert:0}`,
	"SCC-kS-FIFO(3)/twoclass120-seed4": `SCC-3S-FIFO t=14.847311 trunc=false {Committed:1500 Missed:142 TardinessSum:31.515128493974366 ValueSum:103519.91657686903 MaxValueSum:156500 Restarts:3 Promotions:795 ShadowForks:1812 ShadowAborts:122 WastedTime:126.49268501519238 UsefulTime:281.2835035621708 CommitWaits:0 BlockedWaits:1406 DeadlockAvert:0}`,
	"SCC-kS-FIFO(3)/pages100-ops8-w1":  `SCC-3S-FIFO t=17.036883 trunc=false {Committed:1500 Missed:0 TardinessSum:0 ValueSum:150000 MaxValueSum:150000 Restarts:0 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:0 UsefulTime:179.8144691107382 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"SCC-kS-PRIO(2)/rate50-seed1":      `SCC-2S-PRIO t=34.328439 trunc=false {Committed:1500 Missed:75 TardinessSum:9.654559258556468 ValueSum:147988.63348780066 MaxValueSum:150000 Restarts:12 Promotions:544 ShadowForks:1104 ShadowAborts:84 WastedTime:93.34462957908602 UsefulTime:337.3835125596294 CommitWaits:0 BlockedWaits:841 DeadlockAvert:0}`,
	"SCC-kS-PRIO(2)/rate150-seed1":     `SCC-2S-PRIO t=11.668329 trunc=false {Committed:1500 Missed:299 TardinessSum:73.31669432075144 ValueSum:134725.68868317682 MaxValueSum:150000 Restarts:162 Promotions:1813 ShadowForks:4110 ShadowAborts:1030 WastedTime:293.20269021323855 UsefulTime:319.2468695974424 CommitWaits:0 BlockedWaits:3158 DeadlockAvert:0}`,
	"SCC-kS-PRIO(2)/rate100-seed2":     `SCC-2S-PRIO t=17.475208 trunc=false {Committed:1500 Missed:182 TardinessSum:34.74429654757978 ValueSum:142761.6048859208 MaxValueSum:150000 Restarts:52 Promotions:1127 ShadowForks:2365 ShadowAborts:370 WastedTime:182.91662896009322 UsefulTime:331.08706493435614 CommitWaits:0 BlockedWaits:1774 DeadlockAvert:0}`,
	"SCC-kS-PRIO(2)/rate200-seed3":     `SCC-2S-PRIO t=9.044349 trunc=false {Committed:1500 Missed:470 TardinessSum:141.9006353256545 ValueSum:120437.36764048865 MaxValueSum:150000 Restarts:367 Promotions:2702 ShadowForks:6425 ShadowAborts:2236 WastedTime:436.1461922998515 UsefulTime:316.0278199548876 CommitWaits:0 BlockedWaits:5007 DeadlockAvert:0}`,
	"SCC-kS-PRIO(2)/twoclass120-seed4": `SCC-2S-PRIO t=14.847311 trunc=false {Committed:1500 Missed:145 TardinessSum:34.61045188996914 ValueSum:96993.18938091207 MaxValueSum:156500 Restarts:42 Promotions:754 ShadowForks:1758 ShadowAborts:289 WastedTime:125.60818977036998 UsefulTime:282.088470260379 CommitWaits:0 BlockedWaits:1279 DeadlockAvert:0}`,
	"SCC-kS-PRIO(2)/pages100-ops8-w1":  `SCC-2S-PRIO t=17.036883 trunc=false {Committed:1500 Missed:0 TardinessSum:0 ValueSum:150000 MaxValueSum:150000 Restarts:0 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:0 UsefulTime:179.8144691107382 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"SCC-AK/rate50-seed1":              `SCC-AK t=34.328439 trunc=false {Committed:1500 Missed:77 TardinessSum:9.84223244183869 ValueSum:147949.5349079502 MaxValueSum:150000 Restarts:0 Promotions:556 ShadowForks:1068 ShadowAborts:39 WastedTime:92.94219923967701 UsefulTime:337.64034872198334 CommitWaits:0 BlockedWaits:821 DeadlockAvert:0}`,
	"SCC-AK/rate150-seed1":             `SCC-AK t=11.680319 trunc=false {Committed:1500 Missed:338 TardinessSum:79.67998468693756 ValueSum:133400.00319022132 MaxValueSum:150000 Restarts:0 Promotions:1994 ShadowForks:3716 ShadowAborts:466 WastedTime:300.93954623223226 UsefulTime:319.1018571948429 CommitWaits:0 BlockedWaits:2909 DeadlockAvert:0}`,
	"SCC-AK/rate100-seed2":             `SCC-AK t=17.473137 trunc=false {Committed:1500 Missed:194 TardinessSum:33.95115014804318 ValueSum:142926.84371915756 MaxValueSum:150000 Restarts:0 Promotions:1171 ShadowForks:2232 ShadowAborts:183 WastedTime:182.087736833393 UsefulTime:331.8046803243434 CommitWaits:0 BlockedWaits:1707 DeadlockAvert:0}`,
	"SCC-AK/rate200-seed3":             `SCC-AK t=9.049217 trunc=false {Committed:1500 Missed:440 TardinessSum:161.70964832221816 ValueSum:116310.48993287119 MaxValueSum:150000 Restarts:0 Promotions:3139 ShadowForks:5418 ShadowAborts:808 WastedTime:438.6863039083844 UsefulTime:320.48442743340615 CommitWaits:0 BlockedWaits:4459 DeadlockAvert:0}`,
	"SCC-AK/twoclass120-seed4":         `SCC-AK t=14.847311 trunc=false {Committed:1500 Missed:148 TardinessSum:35.08222545346089 ValueSum:97027.1577017346 MaxValueSum:157500 Restarts:0 Promotions:799 ShadowForks:1748 ShadowAborts:170 WastedTime:128.2304943009356 UsefulTime:281.89561333041485 CommitWaits:0 BlockedWaits:1319 DeadlockAvert:0}`,
	"SCC-AK/pages100-ops8-w1":          `SCC-AK t=17.036883 trunc=false {Committed:1500 Missed:0 TardinessSum:0 ValueSum:150000 MaxValueSum:150000 Restarts:0 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:0 UsefulTime:179.8144691107382 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"SCC-CB/rate50-seed1":              `SCC-CB t=34.328439 trunc=false {Committed:1500 Missed:74 TardinessSum:9.2509459574074 ValueSum:148072.71959220673 MaxValueSum:150000 Restarts:0 Promotions:558 ShadowForks:1168 ShadowAborts:63 WastedTime:94.49628983376643 UsefulTime:337.14100966384086 CommitWaits:0 BlockedWaits:926 DeadlockAvert:0}`,
	"SCC-CB/rate150-seed1":             `SCC-CB t=11.663368 trunc=false {Committed:1500 Missed:285 TardinessSum:65.62346435286123 ValueSum:136328.4449264872 MaxValueSum:150000 Restarts:0 Promotions:2060 ShadowForks:5005 ShadowAborts:723 WastedTime:310.09514145035473 UsefulTime:308.074155872191 CommitWaits:0 BlockedWaits:4249 DeadlockAvert:0}`,
	"SCC-CB/rate100-seed2":             `SCC-CB t=17.473137 trunc=false {Committed:1500 Missed:168 TardinessSum:29.84150429103463 ValueSum:143783.01993936766 MaxValueSum:150000 Restarts:0 Promotions:1160 ShadowForks:2632 ShadowAborts:250 WastedTime:182.54345595120478 UsefulTime:327.6774553995861 CommitWaits:0 BlockedWaits:2101 DeadlockAvert:0}`,
	"SCC-CB/rate200-seed3":             `SCC-CB t=8.999912 trunc=false {Committed:1500 Missed:379 TardinessSum:114.20562740307525 ValueSum:126207.16095769261 MaxValueSum:150000 Restarts:0 Promotions:2985 ShadowForks:7773 ShadowAborts:1516 WastedTime:422.43319555074 UsefulTime:303.2865370121201 CommitWaits:0 BlockedWaits:6969 DeadlockAvert:0}`,
	"SCC-CB/twoclass120-seed4":         `SCC-CB t=14.831362 trunc=false {Committed:1500 Missed:142 TardinessSum:32.18134917978102 ValueSum:102245.5049618858 MaxValueSum:157500 Restarts:0 Promotions:789 ShadowForks:1878 ShadowAborts:162 WastedTime:125.9816012736832 UsefulTime:280.9753478004134 CommitWaits:0 BlockedWaits:1448 DeadlockAvert:0}`,
	"SCC-CB/pages100-ops8-w1":          `SCC-CB t=17.036883 trunc=false {Committed:1500 Missed:0 TardinessSum:0 ValueSum:150000 MaxValueSum:150000 Restarts:0 Promotions:0 ShadowForks:0 ShadowAborts:0 WastedTime:0 UsefulTime:179.8144691107382 CommitWaits:0 BlockedWaits:0 DeadlockAvert:0}`,
	"SCC-DC/rate50-seed1":              `SCC-DC t=34.380000 trunc=false {Committed:1501 Missed:121 TardinessSum:15.505232468916454 ValueSum:146869.74323564238 MaxValueSum:150100 Restarts:0 Promotions:714 ShadowForks:1373 ShadowAborts:77 WastedTime:128.16655332990294 UsefulTime:330.1503715966236 CommitWaits:1835 BlockedWaits:1072 DeadlockAvert:0}`,
	"SCC-DC/twoclass120-seed4":         `SCC-DC t=14.880000 trunc=false {Committed:1502 Missed:271 TardinessSum:44.30564167277786 ValueSum:122518.33531676787 MaxValueSum:158600 Restarts:0 Promotions:946 ShadowForks:2018 ShadowAborts:206 WastedTime:152.57126672180019 UsefulTime:271.96742748508024 CommitWaits:1978 BlockedWaits:1624 DeadlockAvert:0}`,
	"SCC-VW/rate50-seed1":              `SCC-VW t=34.328439 trunc=false {Committed:1500 Missed:45 TardinessSum:4.4482862091589155 ValueSum:149073.27370642519 MaxValueSum:150000 Restarts:0 Promotions:497 ShadowForks:1039 ShadowAborts:39 WastedTime:84.07940569585634 UsefulTime:337.44356237674464 CommitWaits:66 BlockedWaits:801 DeadlockAvert:0}`,
	"SCC-VW/twoclass120-seed4":         `SCC-VW t=14.842163 trunc=false {Committed:1503 Missed:101 TardinessSum:13.190417208430192 ValueSum:144979.9542283616 MaxValueSum:158650 Restarts:0 Promotions:596 ShadowForks:1431 ShadowAborts:118 WastedTime:89.97220097854613 UsefulTime:281.95097957018055 CommitWaits:195 BlockedWaits:1091 DeadlockAvert:0}`,
}

// TestSimulatorAllocs is the simulator's allocation ratchet: heap
// allocations per committed transaction on rate150-seed1 for the two
// optimistic baselines and SCC-2S. The runs are sequential so that
// runtime.MemStats counts one simulation at a time.
func TestSimulatorAllocs(t *testing.T) {
	for _, c := range []struct {
		protocol string
		max      float64 // measured with go1.24 (273.5, 272.2, 279.4), plus 2 %
	}{
		{"OCC-BC", 279},
		{"WAIT-50", 278},
		{"SCC-2S", 285},
	} {
		spec, err := Protocol(c.protocol)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := rtdbs.Run(rtdbs.Config{
			Workload:   workload.Baseline(150, 1),
			Target:     1500,
			Warmup:     200,
			CheckReads: true,
			MaxActive:  8000,
		}, spec.New())
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / float64(res.Metrics.Committed)
		t.Logf("%s: %.1f allocations per committed transaction", c.protocol, got)
		if got > c.max {
			t.Errorf("%s: %.1f allocations per committed transaction, want <= %.1f", c.protocol, got, c.max)
		}
	}
}
