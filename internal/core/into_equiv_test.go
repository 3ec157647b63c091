package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/sched"
	"repro/internal/wire"
)

// TestCompileIntoEquivalence is the correctness bar of the
// caller-owned-buffer entry point: over the full generator corpus and
// every registered policy, CompileInto writing into ONE Compiled that
// is recycled across all loops (so its Result, Schedule.Time, MinDist
// and Kernel buffers arrive dirty and wrongly-sized at every call) must
// produce results bit-identical to a fresh Compile, and must classify
// errors identically. It runs once without codegen and once with it;
// with codegen, budget-exhausted and infeasible compiles are
// interleaved, the kernels must match (text, file sizes and both offset
// maps), and a sample of the recycled kernels must execute correctly.
// A policy registered from outside through RunnerFunc rides along:
// CompileInto must hand it the recycled dst.Result, so it reaches the
// same allocation floor as the built-ins.
func TestCompileIntoEquivalence(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 36
	}
	w, err := loopgen.Build(loopgen.Options{Size: size, Seed: 424})
	if err != nil {
		t.Fatalf("building workload: %v", err)
	}
	ctx := context.Background()
	const custom SchedulerName = "zz-into-custom"
	var lastDst *sched.Result
	Register(custom, func(cfg sched.Config) Runner {
		return RunnerFunc(func(ctx context.Context, l *ir.Loop, dst *sched.Result) error {
			lastDst = dst
			return sched.Slack(cfg).ScheduleInto(ctx, l, dst)
		})
	})
	unregisterAtCleanup(t, custom)
	for _, codegen := range []bool{false, true} {
		for _, name := range Schedulers() {
			var buf Compiled // one buffer for the whole corpus — sizes vary per loop
			verified := 0
			classes := map[string]int{}
			for i, wl := range w.Loops {
				opt := Options{Scheduler: name, SkipCodegen: !codegen}
				if codegen {
					switch i % 6 {
					case 4:
						opt.Config.Budget.Deadline = time.Nanosecond
					case 5:
						opt.Config.MaxII = 1
					}
				}
				fresh, ferr := Compile(ctx, wl.CL.Loop, opt)
				prev := buf.Result
				ierr := CompileInto(ctx, &buf, wl.CL.Loop, opt)
				if name == custom && prev != nil && lastDst != prev {
					t.Fatalf("%s: CompileInto did not hand the custom runner the recycled dst.Result", wl.Name)
				}
				if c1, c2 := errClass(ferr), errClass(ierr); c1 != c2 {
					t.Fatalf("%s/%s: error class diverges: Compile %q (%v), CompileInto %q (%v)",
						name, wl.Name, c1, ferr, c2, ierr)
				}
				if ierr != nil {
					classes[errClass(ierr)]++
				}
				if fresh == nil {
					if buf.Loop != nil {
						t.Fatalf("%s/%s: Compile produced nothing but CompileInto left dst populated",
							name, wl.Name)
					}
					continue
				}
				if buf.Loop == nil {
					t.Fatalf("%s/%s: Compile produced a result but CompileInto zeroed dst", name, wl.Name)
				}
				fh := compiledHash(t, name, wl.Name, fresh)
				ih := compiledHash(t, name, wl.Name, &buf)
				if fh != ih {
					t.Errorf("%s/%s: reused-buffer result diverges from fresh result: %s vs %s",
						name, wl.Name, ih, fh)
				}
				if err := sameKernel(fresh.Kernel, buf.Kernel); err != nil {
					t.Fatalf("%s/%s: recycled kernel diverges from fresh kernel: %v", name, wl.Name, err)
				}
				if buf.Kernel != nil && i%8 == 0 && verifyKernel(t, wl, &buf) {
					verified++
				}
			}
			t.Logf("%s codegen=%v: failed compiles %v, %d kernels executed", name, codegen, classes, verified)
			if codegen && (classes["budget"] == 0 || classes["infeasible"] == 0 || verified == 0) {
				t.Errorf("%s: failed compiles %v and %d executed kernels interleaved; want some of each", name, classes, verified)
			}
		}
	}
}

// sameKernel reports how two kernels differ: their text, their rotating
// file sizes, or either offset map.
func sameKernel(a, b *codegen.Kernel) error {
	switch {
	case a == nil || b == nil:
		if a != b {
			return fmt.Errorf("kernel %v vs %v", a != nil, b != nil)
		}
	case a.NRR != b.NRR || a.NICR != b.NICR:
		return fmt.Errorf("files RR=%d ICR=%d vs RR=%d ICR=%d", a.NRR, a.NICR, b.NRR, b.NICR)
	case !maps.Equal(a.RR.Offset, b.RR.Offset) || !maps.Equal(a.ICR.Offset, b.ICR.Offset):
		return fmt.Errorf("offsets RR %v ICR %v vs RR %v ICR %v", a.RR.Offset, a.ICR.Offset, b.RR.Offset, b.ICR.Offset)
	case a.String() != b.String():
		return fmt.Errorf("text\n%s\nvs\n%s", a, b)
	}
	return nil
}

// verifyKernel runs c's kernel on the simulator against the
// interpreter. It reports false, without failing, for a loop the
// interpreter cannot run under the generic binding.
func verifyKernel(t *testing.T, wl *loopgen.Loop, c *Compiled) bool {
	t.Helper()
	env, _, trips, err := wl.CL.BuildEnv(loopgen.AutoBinding(wl.CL))
	if err != nil {
		return false
	}
	trips = min(trips, 24) // bound simulation time on big-II loops
	if _, err := interp.Run(c.Loop, env, trips); err != nil {
		return false
	}
	if err := VerifyExecution(c, env, trips); err != nil {
		t.Fatalf("%s: recycled kernel: %v", wl.Name, err)
	}
	return true
}

// TestCompileIntoUnknownScheduler pins the zero-dst contract: a lookup
// failure must both return ErrUnknownScheduler and scrub whatever the
// previous compilation left in the buffer, so stale results cannot be
// mistaken for output.
func TestCompileIntoUnknownScheduler(t *testing.T) {
	w, err := loopgen.Build(loopgen.Options{Size: 4, Seed: 7})
	if err != nil {
		t.Fatalf("building workload: %v", err)
	}
	ctx := context.Background()
	var buf Compiled
	if err := CompileInto(ctx, &buf, w.Loops[0].CL.Loop, Options{SkipCodegen: true}); err != nil {
		t.Fatalf("priming compile: %v", err)
	}
	if buf.Loop == nil {
		t.Fatal("priming compile left dst empty")
	}
	err = CompileInto(ctx, &buf, w.Loops[0].CL.Loop, Options{Scheduler: "no-such-policy"})
	if !errors.Is(err, ErrUnknownScheduler) {
		t.Fatalf("want ErrUnknownScheduler, got %v", err)
	}
	if buf.Loop != nil || buf.Result != nil || buf.Kernel != nil {
		t.Fatalf("dst not zeroed after unknown scheduler: %+v", buf)
	}
}

// errClass buckets an error for cross-entry-point comparison without
// depending on message details (which carry timing-bearing stats).
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, sched.ErrInfeasible):
		return "infeasible"
	case errors.Is(err, sched.ErrBudgetExhausted):
		return "budget"
	case errors.Is(err, ErrUnknownScheduler):
		return "unknown-scheduler"
	default:
		return "other"
	}
}

// compiledHash hashes the serialized wire form of every deterministic
// output a server response carries (the same projection as
// compileResultHash, but over an already-built Compiled).
func compiledHash(t *testing.T, name SchedulerName, loopName string, c *Compiled) string {
	t.Helper()
	b := c.Result.Bounds
	resp := wire.Response{
		Loop:      loopName,
		Scheduler: string(name),
		OK:        c.OK(),
		Bounds:    wire.Bounds{ResMII: b.ResMII, RecMII: b.RecMII, MII: b.MII},
		Effort:    wire.EffortOf(c.Result.Stats),
	}
	if c.OK() {
		s := c.Result.Schedule
		resp.II = s.II
		resp.Length = s.Length()
		resp.Stages = s.Stages()
		resp.Times = s.Time
		resp.MaxLive = c.RR.MaxLive
		resp.MinAvg = c.MinAvg
		resp.ICR = c.ICR
		resp.GPRs = c.GPRs
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, loopName, err)
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(body))
}
