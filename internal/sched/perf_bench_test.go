package sched

import (
	"context"
	"testing"

	"repro/internal/loopgen"
	"repro/internal/machine"
)

// benchCorpus compiles the kernel corpus once per benchmark binary.
func benchCorpus(b *testing.B) []*loopgen.Loop {
	b.Helper()
	ks, err := loopgen.Kernels(machine.Cydra())
	if err != nil {
		b.Fatal(err)
	}
	return ks
}

func benchScheduleKernels(b *testing.B, cfg Config) {
	ks := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, wl := range ks {
			res, err := Slack(cfg).Schedule(context.Background(), wl.CL.Loop)
			if err != nil {
				b.Fatal(err)
			}
			_ = res.OK()
		}
	}
}

// BenchmarkScheduleKernels schedules the kernel corpus under slack at
// the paper's settings.
func BenchmarkScheduleKernels(b *testing.B) {
	benchScheduleKernels(b, Config{})
}

// BenchmarkScheduleKernelsIncrementByOne forces many II retries (the
// footnote-6 ablation), each of which recomputes MinDist at its II.
func BenchmarkScheduleKernelsIncrementByOne(b *testing.B) {
	benchScheduleKernels(b, Config{IncrementByOne: true})
}
