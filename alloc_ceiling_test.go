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
	"repro/internal/mii"
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
// paper machine.
var allocCeilings = map[core.SchedulerName]allocCeiling{
	core.SchedSlack:    {8, 2, 3339.1666666666665, 113, effort{53, 2495, 2495, 701, 1757, 5}},
	core.SchedSlackUni: {8, 2, 3339.1666666666665, 113, effort{52, 2288, 2288, 554, 1560, 4}},
	core.SchedCydrome:  {8, 2, 3362.1666666666665, 136, effort{52, 2398, 2398, 595, 1682, 4}},
	core.SchedList:     {7, 1, 3338.1666666666665, 112, effort{98, 1093, 1043, 0, 0, 0}},
	core.SchedExact:    {82, 80, 11544.666666666666, 11304.666666666666, effort{104, 1738106, 2665386, 701, 1757, 5}},
}

// bytesSlack is how far B/op may exceed its ceiling: bytes move with
// slice growth policy, a count of allocations does not.
const bytesSlack = 1.10

// codegenCeiling is slack's row with codegen on, measured on the same
// corpus. The kernel, its register allocations and its lifetime ranges
// ride the recycled Compiled, so CompileInto stays at the SkipCodegen
// row; a fresh Compile pays for one Kernel and its buffers.
var codegenCeiling = allocCeiling{42, 2, 9238.166666666666, 113, allocCeilings[core.SchedSlack].counters}

// TestCompileAllocCeilings holds every policy's compile path, without
// codegen, and slack's with codegen, to its row: the effort counters
// equal, allocs/op no higher, and B/op within bytesSlack of it. An extra
// allocation per compile, one escaping variable in the scheduler or a
// Kernel made for a SkipCodegen compile, fails it.
func TestCompileAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items, so pooled state is re-made and counted")
	}
	w, err := loopgen.Build(loopgen.Options{Size: 48, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range core.Schedulers() {
		t.Run(string(name), func(t *testing.T) {
			want, ok := allocCeilings[name]
			if !ok {
				t.Fatalf("no ceiling row for policy %s", name)
			}
			checkCeiling(t, w, core.Options{Scheduler: name, SkipCodegen: true}, want)
		})
	}
	t.Run("slack-codegen", func(t *testing.T) {
		checkCeiling(t, w, core.Options{Scheduler: core.SchedSlack}, codegenCeiling)
	})
}

// checkCeiling compiles the corpus under opt and holds it to want.
func checkCeiling(t *testing.T, w *loopgen.Suite, opt core.Options, want allocCeiling) {
	ctx := context.Background()
	var c core.Compiled
	// The counter pass runs through the recycled Compiled, so it also
	// warms it and the pools.
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

// TestCompileIntoKeepsKernelAcrossFailure holds a recycled Compiled's
// kernel across a failed compile: an infeasible compile (MaxII below
// MII) leaves Kernel nil but keeps its buffers, so a failed compile
// followed by a successful one costs no more allocations than the two
// measured apart.
func TestCompileIntoKeepsKernelAcrossFailure(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items, so pooled state is re-made and counted")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w, err := loopgen.Build(loopgen.Options{Size: 48, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	var l *ir.Loop
	for _, wl := range w.Loops {
		if b, err := mii.Compute(context.Background(), wl.CL.Loop); err == nil && b.MII > 1 {
			l = wl.CL.Loop
			break
		}
	}
	if l == nil {
		t.Fatal("no corpus loop with MII > 1")
	}
	ctx := context.Background()
	var c core.Compiled
	fail := func() {
		err := core.CompileInto(ctx, &c, l, core.Options{Config: sched.Config{MaxII: 1}})
		if !errors.Is(err, sched.ErrInfeasible) || c.Kernel != nil {
			t.Fatalf("MaxII 1: err %v, kernel %v; want ErrInfeasible and no kernel", err, c.Kernel)
		}
	}
	succeed := func() {
		if err := core.CompileInto(ctx, &c, l, core.Options{}); err != nil || c.Kernel == nil {
			t.Fatalf("err %v, kernel %v; want a kernel", err, c.Kernel)
		}
	}
	failed := testing.AllocsPerRun(20, fail)
	succeeded := testing.AllocsPerRun(20, succeed)
	pair := testing.AllocsPerRun(20, func() { fail(); succeed() })
	t.Logf("failed %.0f, succeeded %.0f, pair %.0f allocs/run", failed, succeeded, pair)
	if pair > failed+succeeded {
		t.Errorf("failed-then-successful pair: %.0f allocs, the two apart %.0f + %.0f", pair, failed, succeeded)
	}
}
