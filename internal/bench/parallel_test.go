package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/sched"
)

// poolSweeps is one pair of sweeps shared by the determinism tests: the
// same workload built twice, every policy swept with metrics on, once
// sequentially and once on a wide pool, then the metrics report
// collected from each. Sweeping every policy, exact included, twice is
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
	ps.seq.Parallel, ps.seq.Metrics = 1, true
	ps.par.Parallel, ps.par.Metrics = 8, true
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
// included, and CollectMetrics must reuse sweeps that already carry
// metrics rather than run them again.
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
			t.Fatalf("%s: CollectMetrics re-ran a sweep that already carried metrics", name)
		}
	}
}

// The -metricsjson record must be byte-deterministic: same corpus, same
// JSON bytes, regardless of the worker pool. Map keys marshal sorted,
// policies in registry order, counters folded in loop order.
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
	for _, p := range ps.mr1.Policies {
		var total int64
		for _, n := range p.Outcomes {
			total += n
		}
		if attempts := p.Events[sched.EvAttemptStart.String()]; total != attempts {
			t.Fatalf("%s: outcome total %d != attempts %d", p.Policy, total, attempts)
		}
	}
}

// The merged metrics report is identical for serial and wide-pool
// sweeps: per-loop observers are folded in loop order, so worker
// interleaving cannot show through.
func TestMetricsReportDeterministicAcrossPools(t *testing.T) {
	ps := sweepPools(t)
	if !reflect.DeepEqual(ps.mr1, ps.mr2) {
		t.Fatalf("metrics differ between pool sizes:\nserial   %+v\nparallel %+v", ps.mr1, ps.mr2)
	}
	if len(ps.mr1.Policies) != len(core.Schedulers()) {
		t.Fatalf("got %d policies, want %d", len(ps.mr1.Policies), len(core.Schedulers()))
	}
	for _, p := range ps.mr1.Policies {
		if p.Events[sched.EvAttemptStart.String()] == 0 || p.Events[sched.EvPlace.String()] == 0 {
			t.Fatalf("%s: metrics counted nothing: %+v", p.Policy, p)
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
