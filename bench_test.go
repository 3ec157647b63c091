// Top-level micro-benchmarks of the pipeline (run with
// `go test -bench=. -benchmem`). The paper's tables and figures are not
// benchmarks: lsms-bench prints them, and internal/golden pins them to
// testdata/golden/experiments.txt.
package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/machine"
	"repro/internal/mindist"
	"repro/internal/sched"
)

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
