package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/mindist"
)

// poolSweeps is one pair of sweeps shared by the determinism tests: the
// same workload built twice, every policy swept once sequentially and
// once on a wide pool, then the metrics report collected from each. Sweeping every policy, exact included, twice is
// the dear part, so it runs once per test binary.
type poolSweeps struct {
	seq, par *Suite
	is, ip   []*LoopInfo
	rs, rp   map[core.SchedulerName][]Run
	// swept holds each policy's first serial run as the sweep left it,
	// before CollectMetrics saw the suite.
	swept    map[core.SchedulerName]*Run
	mr1, mr2 *MetricsReport
	err      error
}

var (
	sharedSweepsOnce sync.Once
	sharedSweeps     poolSweeps
)

func sweepPools(t *testing.T) *poolSweeps {
	t.Helper()
	sharedSweepsOnce.Do(func() { sharedSweeps.err = sharedSweeps.build() })
	if sharedSweeps.err != nil {
		t.Fatal(sharedSweeps.err)
	}
	return &sharedSweeps
}

func (ps *poolSweeps) build() (err error) {
	opts := loopgen.Options{Size: 120, Seed: 1993}
	if ps.seq, err = NewSuite(opts); err != nil {
		return err
	}
	if ps.par, err = NewSuite(opts); err != nil {
		return err
	}
	ps.seq.Parallel = 1
	ps.par.Parallel = 8
	if ps.is, err = ps.seq.Infos(); err != nil {
		return err
	}
	if ps.ip, err = ps.par.Infos(); err != nil {
		return err
	}
	ps.rs = map[core.SchedulerName][]Run{}
	ps.rp = map[core.SchedulerName][]Run{}
	ps.swept = map[core.SchedulerName]*Run{}
	for _, name := range core.Schedulers() {
		if ps.rs[name], err = ps.seq.Runs(name); err != nil {
			return err
		}
		if ps.rp[name], err = ps.par.Runs(name); err != nil {
			return err
		}
		ps.swept[name] = &ps.rs[name][0]
	}
	if ps.mr1, err = CollectMetrics(ps.seq); err != nil {
		return err
	}
	if ps.mr2, err = CollectMetrics(ps.par); err != nil {
		return err
	}
	ps.mr1.Parallel, ps.mr2.Parallel = 0, 0 // the pool size is the one legitimate difference
	return nil
}

// TestParallelSweepDeterministic: the analyses and every per-loop run
// must be identical between the serial and the wide-pool sweep, order
// included, and CollectMetrics must reuse the cached sweeps rather
// than run them again.
func TestParallelSweepDeterministic(t *testing.T) {
	ps := sweepPools(t)
	if len(ps.is) != len(ps.ip) {
		t.Fatalf("info count %d vs %d", len(ps.is), len(ps.ip))
	}
	for i, a := range ps.is {
		b := ps.ip[i]
		if a.Name != b.Name || a.Bounds != b.Bounds ||
			a.MinAvgAtMII != b.MinAvgAtMII || a.Class != b.Class {
			t.Fatalf("info %d differs: %+v vs %+v", i, a, b)
		}
	}
	for _, name := range core.Schedulers() {
		rs, rp := ps.rs[name], ps.rp[name]
		for i := range rs {
			if rs[i].OK != rp[i].OK || rs[i].II != rp[i].II ||
				rs[i].MaxLive != rp[i].MaxLive || rs[i].MinAvg != rp[i].MinAvg ||
				rs[i].ICR != rp[i].ICR {
				t.Fatalf("%s run %d (%s) differs: seq %+v, par %+v",
					name, i, rs[i].Info.Name, rs[i], rp[i])
			}
		}
	}
	for name, first := range ps.swept {
		if rs, _ := ps.seq.Runs(name); &rs[0] != first {
			t.Fatalf("%s: CollectMetrics re-ran a cached sweep", name)
		}
	}
}

// The -metricsjson record must be byte-deterministic: same corpus, same
// JSON bytes, regardless of the worker pool: policies in registry
// order, counters summed in loop order. Every loop tries at least one
// II, the invariant CI's sweep smoke reads off the record.
func TestMetricsJSONByteDeterministic(t *testing.T) {
	ps := sweepPools(t)
	b1, err := json.MarshalIndent(ps.mr1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.MarshalIndent(ps.mr2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("metrics JSON differs between pool sizes:\nserial:\n%s\nparallel:\n%s", b1, b2)
	}
	if !bytes.Contains(b1, []byte(`"effort": {`)) {
		t.Fatalf("record carries no effort:\n%s", b1)
	}
	for _, p := range ps.mr1.Policies {
		if p.Effort.IIAttempts < p.Loops {
			t.Fatalf("%s: %d II attempts over %d loops", p.Policy, p.Effort.IIAttempts, p.Loops)
		}
	}
}

// The metrics report is identical for serial and wide-pool sweeps: each
// run's counters are summed in loop order, so worker interleaving
// cannot show through.
func TestMetricsReportDeterministicAcrossPools(t *testing.T) {
	ps := sweepPools(t)
	if !reflect.DeepEqual(ps.mr1, ps.mr2) {
		t.Fatalf("metrics differ between pool sizes:\nserial   %+v\nparallel %+v", ps.mr1, ps.mr2)
	}
	if len(ps.mr1.Policies) != len(core.Schedulers()) {
		t.Fatalf("got %d policies, want %d", len(ps.mr1.Policies), len(core.Schedulers()))
	}
	for _, p := range ps.mr1.Policies {
		if p.Effort.IIAttempts == 0 || p.Effort.CentralIters == 0 {
			t.Fatalf("%s: metrics counted nothing: %+v", p.Policy, p)
		}
	}
}

// TestFastPathsMatchLegacyAcrossWorkload holds the sweep's reusing path
// to the direct one at workload scale: pooled arenas keep one MinDist
// table, computed in place at every II attempt of every loop a worker
// compiles, and for all four schedulers every successful run's MinAvg
// must equal the MinAvg of a freshly computed table at its II. (The
// incremental-bounds half lives in internal/sched, where the
// full-recompute switch is.)
func TestFastPathsMatchLegacyAcrossWorkload(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 40
	}
	s := suite(t, size)
	for _, name := range core.Schedulers() {
		rs, err := s.Runs(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("%s/%s: %v", name, r.Info.Name, r.Err)
			}
			if !r.OK {
				continue
			}
			md, err := mindist.Compute(r.Info.Loop, r.II)
			if err != nil {
				t.Fatalf("%s/%s II=%d: %v", name, r.Info.Name, r.II, err)
			}
			if want := mindist.MinAvg(r.Info.Loop, md, ir.RR); r.MinAvg != want {
				t.Fatalf("%s/%s II=%d: sweep MinAvg %d, fresh table %d", name, r.Info.Name, r.II, r.MinAvg, want)
			}
		}
	}
}
