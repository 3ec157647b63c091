// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the paper (run with `go test -bench=. -benchmem`). Each
// benchmark reports its headline numbers as custom metrics so the paper
// comparison is visible straight from the bench output; EXPERIMENTS.md
// records the full paper-vs-measured accounting.
//
// The workload defaults to the paper's population size (1,525 loops);
// set LSMS_BENCH_SIZE to shrink it for quick runs.
package repro

import (
	"context"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mindist"
	"repro/internal/sched"
)

const defaultSeed = 1993

func benchSize() int {
	if v := os.Getenv("LSMS_BENCH_SIZE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 1525
}

var (
	suiteOnce sync.Once
	suiteVal  *bench.Suite
	suiteErr  error
)

func suite(b *testing.B) *bench.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = bench.NewSuite(loopgen.Options{Size: benchSize(), Seed: defaultSeed})
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

// BenchmarkTable2 measures the workload-characterization pass.
func BenchmarkTable2(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Table2(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Rows["MII"].P50), "MII-p50")
		b.ReportMetric(float64(r.Rows["# Operations"].P50), "ops-p50")
	}
}

// BenchmarkTable3 reproduces the slack scheduler's performance table.
func BenchmarkTable3(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Table34(s, core.SchedSlack)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(r.Total.Opt)/float64(r.Total.All), "%optimal")
		b.ReportMetric(float64(r.Total.SumII)/float64(r.Total.SumMII), "II/MII")
	}
}

// BenchmarkTable4 reproduces the Cydrome baseline's performance table.
func BenchmarkTable4(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Table34(s, core.SchedCydrome)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(r.Total.Opt)/float64(r.Total.All), "%optimal")
		b.ReportMetric(float64(r.Failures), "failures")
	}
}

// BenchmarkFigure5 measures the MaxLive − MinAvg distributions.
func BenchmarkFigure5(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure5(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Pct("New Scheduler", 0), "new-%at-bound")
		b.ReportMetric(r.Pct("Old Scheduler", 0), "old-%at-bound")
	}
}

// BenchmarkFigure6 measures the MaxLive distributions.
func BenchmarkFigure6(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure6(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Pct("New Scheduler", 32), "new-%≤32RR")
		b.ReportMetric(r.Pct("Old Scheduler", 32), "old-%≤32RR")
	}
}

// BenchmarkFigure7 measures GPR and combined pressure distributions.
func BenchmarkFigure7(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure7(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Pct("GPRs", 16), "%GPR≤16")
		b.ReportMetric(r.Pct("(New) GPRs+MaxLive", 32), "%comb≤32")
	}
}

// BenchmarkFigure8 measures ICR predicate usage.
func BenchmarkFigure8(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure8(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Pct("New Scheduler", 32), "%≤32ICR")
	}
}

// BenchmarkEffort aggregates the Section 6 backtracking counters.
func BenchmarkEffort(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		slack, err := bench.Effort(s, core.SchedSlack)
		if err != nil {
			b.Fatal(err)
		}
		cyd, err := bench.Effort(s, core.SchedCydrome)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(slack.Ejections), "slack-ejections")
		if slack.Ejections > 0 {
			b.ReportMetric(float64(cyd.Ejections)/float64(slack.Ejections), "cyd/slack-eject")
		}
	}
}

// BenchmarkHeadline computes the Section 7 summary.
func BenchmarkHeadline(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Headline(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PctOptimal, "%optimal")
		b.ReportMetric(r.SpeedupVsOld, "speedup")
		b.ReportMetric(r.TimeVsMinimum, "II/MII")
	}
}

// BenchmarkAblation compares bidirectional vs early-only pressure.
func BenchmarkAblation(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := bench.Ablation(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SumSlack), "bidir-pressure")
		b.ReportMetric(float64(r.SumUni), "earlyonly-pressure")
	}
}

// BenchmarkRegalloc measures rotating-register allocation quality.
func BenchmarkRegalloc(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		rs, err := bench.Regalloc(s)
		if err != nil {
			b.Fatal(err)
		}
		within := 0
		for _, d := range rs[0].Deltas {
			if d <= 1 {
				within++
			}
		}
		b.ReportMetric(100*float64(within)/float64(len(rs[0].Deltas)), "%within+1")
	}
}

// BenchmarkIIStep compares the II increment policies (footnote 6) on a
// reduced workload (it schedules everything twice).
func BenchmarkIIStep(b *testing.B) {
	size := benchSize()
	if size > 400 {
		size = 400
	}
	for i := 0; i < b.N; i++ {
		r, err := bench.IIStep(loopgen.Options{Size: size, Seed: defaultSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SumIIPct-r.SumIIOne), "ΔΣII")
	}
}

// BenchmarkLatencies re-runs the headline across machine variants
// (Section 8 robustness) on a reduced workload.
func BenchmarkLatencies(b *testing.B) {
	size := benchSize()
	if size > 400 {
		size = 400
	}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Latencies(size, defaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.PctOptimal, r.Machine+"-%opt")
		}
	}
}

// BenchmarkSlackScheduleSample microbenchmarks one scheduling run of the
// paper's Figure 1 loop.
func BenchmarkSlackScheduleSample(b *testing.B) {
	m := machine.Cydra()
	l := fixture.Sample(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sched.Slack(sched.Config{}).Schedule(context.Background(), l)
		if err != nil || !res.OK() {
			b.Fatal("scheduling failed")
		}
	}
}

// BenchmarkMinDist microbenchmarks the all-pairs longest-path kernel on
// the largest fixture.
func BenchmarkMinDist(b *testing.B) {
	m := machine.Cydra()
	l := fixture.Divide(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mindist.Compute(l, 38); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd compiles, schedules, generates code for, and
// simulates the daxpy fixture — the full pipeline cost.
func BenchmarkEndToEnd(b *testing.B) {
	m := machine.Cydra()
	r := fixture.RunnableDaxpy(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.Compile(context.Background(), r.Loop, core.Options{})
		if err != nil || !c.OK() {
			b.Fatal("compile failed")
		}
		if err := core.VerifyExecution(c, r.Env, r.Trips); err != nil {
			b.Fatal(err)
		}
	}
}
