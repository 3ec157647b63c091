package repro

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/sched"
)

// effort is the paper's §6 effort counters summed over a corpus.
type effort struct {
	attempts, iters, placements, forces, ejections, restarts int64
}

// allocCeiling is one policy's row: allocations and bytes per compile
// through core.Compile and core.CompileInto, and the effort counters
// of one pass.
type allocCeiling struct {
	compileAllocs, intoAllocs float64
	compileBytes, intoBytes   float64
	counters                  effort
}

// allocCeilings are measured on the 48-loop, seed-1993 corpus on the
// paper machine, and are those of BENCH_history.jsonl's row "central
// loop index sets" (9d33e37+).
var allocCeilings = map[core.SchedulerName]allocCeiling{
	core.SchedSlack:    {9, 3, 3403.1666666666665, 209, effort{53, 2495, 2495, 701, 1757, 5}},
	core.SchedSlackUni: {9, 3, 3403.1666666666665, 209, effort{52, 2288, 2288, 554, 1560, 4}},
	core.SchedCydrome:  {9, 3, 3426.1666666666665, 232, effort{52, 2398, 2398, 595, 1682, 4}},
	core.SchedList:     {12, 6, 3500.5, 306.3333333333333, effort{98, 1093, 1043, 0, 0, 0}},
	core.SchedExact:    {91, 89, 12855.666666666666, 12647.666666666666, effort{104, 1738106, 2665386, 701, 1757, 5}},
}

// bytesSlack is how far B/op may exceed its ceiling: bytes move with
// slice growth policy, a count of allocations does not.
const bytesSlack = 1.10

// TestCompileAllocCeilings holds every policy's compile path, without
// codegen, to its row: the effort counters equal, allocs/op no higher,
// and B/op within bytesSlack of it. An extra allocation per compile,
// one escaping variable in the scheduler, fails it.
func TestCompileAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items, so pooled state is re-made and counted")
	}
	w, err := loopgen.Build(loopgen.Options{Size: 48, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range core.Schedulers() {
		t.Run(string(name), func(t *testing.T) {
			want, ok := allocCeilings[name]
			if !ok {
				t.Fatalf("no ceiling row for policy %s", name)
			}
			opt := core.Options{Scheduler: name, SkipCodegen: true}
			var c core.Compiled
			// The counter pass runs through the recycled Compiled, so it
			// also warms it and the pools.
			var got effort
			for _, l := range w.Loops {
				if err := core.CompileInto(ctx, &c, l.CL.Loop, opt); err != nil && !errors.Is(err, sched.ErrInfeasible) {
					t.Fatalf("%s: %v", l.Name, err)
				}
				st := c.Result.Stats
				got.attempts += int64(st.IIAttempts)
				got.iters += st.CentralIters
				got.placements += st.Placements
				got.forces += st.Forces
				got.ejections += st.Ejections
				got.restarts += st.Restarts
			}
			if got != want.counters {
				t.Errorf("effort counters %+v, want %+v", got, want.counters)
			}

			check := func(entry string, wantAllocs, wantBytes float64, compile func(*ir.Loop) error) {
				allocs, bytes := allocsPerCompile(func() {
					for _, l := range w.Loops {
						if err := compile(l.CL.Loop); err != nil && !errors.Is(err, sched.ErrInfeasible) {
							t.Fatalf("%s: %s: %v", entry, l.Name, err)
						}
					}
				}, len(w.Loops))
				t.Logf("%s: %.0f allocs/op (ceiling %.0f), %.0f B/op (row %.0f)", entry, allocs, wantAllocs, bytes, wantBytes)
				if allocs > wantAllocs {
					t.Errorf("%s: %.0f allocs/op, ceiling %.0f", entry, allocs, wantAllocs)
				}
				if bytes > bytesSlack*wantBytes {
					t.Errorf("%s: %.0f B/op, ceiling %.0f (%.2f× %.0f)", entry, bytes, bytesSlack*wantBytes, bytesSlack, wantBytes)
				}
			}
			check("Compile", want.compileAllocs, want.compileBytes, func(l *ir.Loop) error {
				_, err := core.Compile(ctx, l, opt)
				return err
			})
			check("CompileInto", want.intoAllocs, want.intoBytes, func(l *ir.Loop) error {
				return core.CompileInto(ctx, &c, l, opt)
			})
		})
	}
}

// allocsPerCompile measures one call of pass, over n compiles, after
// two warm-up calls, on a single P with the collector off, and returns
// its allocations per compile, rounded to a whole allocation, and its
// bytes per compile. Each guard removes a dependence on timing:
//   - a collection empties the sync.Pools (the arena pool, RecMII's
//     workspace pool), and refilling them counts against the pass;
//   - on several Ps, a pooled arena parked on another P's private slot
//     is allocated afresh;
//   - a fresh arena's scratch, the MinDist frontier store among it, can
//     take two passes to reach its high-water mark;
//   - the runtime counts tiny allocations lazily, so a pass's raw count
//     can move by one.
func allocsPerCompile(pass func(), n int) (allocs, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass()
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	allocs = math.Round(float64(after.Mallocs-before.Mallocs) / float64(n))
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	return allocs, bytes
}
