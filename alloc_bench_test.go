// Per-compile hot-path benchmarks: one op is one core.Compile of one
// workload loop (round-robin over the corpus, scheduling + pressure, no
// codegen — the lsmsd serving shape). TestCompileAllocCeilings
// (alloc_ceiling_test.go) holds the same compiles' allocs/op and B/op
// to committed ceilings; run the benchmarks with
//
//	go test -bench 'BenchmarkCompile' -benchmem
//
// The NoPool variant runs the identical code path on virgin memory per
// compile, so the pair quantifies exactly what arena pooling saves.
package repro

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/sched"
)

var corpusOnce = sync.OnceValues(func() (*loopgen.Suite, error) {
	return loopgen.Build(loopgen.Options{Size: 1525, Seed: 1993})
})

// corpus is the paper-size workload (seed 1993), built once.
func corpus(b *testing.B) *loopgen.Suite {
	b.Helper()
	s, err := corpusOnce()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchCompile(b *testing.B, cfg sched.Config) {
	s := corpus(b)
	for _, name := range core.Schedulers() {
		b.Run(string(name), func(b *testing.B) {
			opt := core.Options{Scheduler: name, Config: cfg, SkipCodegen: true}
			loops := s.Loops
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := core.Compile(context.Background(), loops[i%len(loops)].CL.Loop, opt)
				if err != nil && !errors.Is(err, sched.ErrInfeasible) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures one pooled compilation per op, per policy.
func BenchmarkCompile(b *testing.B) {
	benchCompile(b, sched.Config{})
}

// BenchmarkCompileNoPool is BenchmarkCompile with the arena pool
// bypassed — the differential baseline for allocation accounting.
func BenchmarkCompileNoPool(b *testing.B) {
	benchCompile(b, sched.Config{NoPool: true})
}

// BenchmarkCompileInto measures the caller-owned-buffer entry point:
// identical work to BenchmarkCompile, but one Compiled is recycled
// across ops (core.CompileInto), so the result objects — sched.Result,
// Schedule.Time, the MinDist clone — cost nothing after warm-up. What
// remains per op is the pipeline's allocation floor.
func BenchmarkCompileInto(b *testing.B) {
	s := corpus(b)
	ctx := context.Background()
	for _, name := range core.Schedulers() {
		b.Run(string(name), func(b *testing.B) {
			opt := core.Options{Scheduler: name, SkipCodegen: true}
			loops := s.Loops
			var c core.Compiled
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := core.CompileInto(ctx, &c, loops[i%len(loops)].CL.Loop, opt)
				if err != nil && !errors.Is(err, sched.ErrInfeasible) {
					b.Fatal(err)
				}
			}
		})
	}
}
