package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// TestParallelSweepDeterministic builds the same workload twice and runs
// it sequentially and on a wide pool: the analyses and every per-loop
// run must be identical, order included.
func TestParallelSweepDeterministic(t *testing.T) {
	seq := suite(t, 120)
	seq.Parallel = 1
	par := suite(t, 120)
	par.Parallel = 8

	is, err := seq.Infos()
	if err != nil {
		t.Fatal(err)
	}
	ip, err := par.Infos()
	if err != nil {
		t.Fatal(err)
	}
	if len(is) != len(ip) {
		t.Fatalf("info count %d vs %d", len(is), len(ip))
	}
	for i := range is {
		if is[i].Name != ip[i].Name || is[i].Bounds != ip[i].Bounds ||
			is[i].MinAvgAtMII != ip[i].MinAvgAtMII || is[i].Class != ip[i].Class {
			t.Fatalf("info %d differs: %+v vs %+v", i, is[i], ip[i])
		}
	}
	for _, name := range core.Schedulers() {
		rs, err := seq.Runs(name)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := par.Runs(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			if rs[i].OK != rp[i].OK || rs[i].II != rp[i].II ||
				rs[i].MaxLive != rp[i].MaxLive || rs[i].MinAvg != rp[i].MinAvg ||
				rs[i].ICR != rp[i].ICR {
				t.Fatalf("%s run %d (%s) differs: seq %+v, par %+v",
					name, i, rs[i].Info.Name, rs[i], rp[i])
			}
		}
	}
}

// TestFastPathsMatchLegacyAcrossWorkload is the acceptance differential:
// for all four schedulers over a generated workload, the parametric
// MinDist + incremental bounds pipeline must produce identical IIs,
// MaxLive values and failure sets to the direct from-scratch paths.
func TestFastPathsMatchLegacyAcrossWorkload(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 40
	}
	fast := suite(t, size)
	slow := suite(t, size)
	for _, name := range core.Schedulers() {
		slow.Configure(name, sched.Config{NoFastPaths: true})
	}
	for _, name := range core.Schedulers() {
		rf, err := fast.Runs(name)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := slow.Runs(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rf {
			if rf[i].OK != rl[i].OK || rf[i].II != rl[i].II || rf[i].MaxLive != rl[i].MaxLive {
				t.Fatalf("%s/%s: fast OK=%v II=%d MaxLive=%d, direct OK=%v II=%d MaxLive=%d",
					name, rf[i].Info.Name, rf[i].OK, rf[i].II, rf[i].MaxLive,
					rl[i].OK, rl[i].II, rl[i].MaxLive)
			}
		}
	}
}
