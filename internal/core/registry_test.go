package core

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
)

// The four built-ins self-register, with the paper's policy first and
// the rest sorted.
func TestSchedulersOrder(t *testing.T) {
	names := Schedulers()
	if len(names) < 4 {
		t.Fatalf("want at least the 4 built-ins, got %v", names)
	}
	if names[0] != SchedSlack {
		t.Fatalf("the paper's policy must lead: got %v", names)
	}
	rest := names[1:]
	if !sort.SliceIsSorted(rest, func(i, j int) bool { return rest[i] < rest[j] }) {
		t.Fatalf("tail not sorted: %v", names)
	}
	for _, want := range []SchedulerName{SchedSlack, SchedSlackUni, SchedCydrome, SchedList} {
		if _, ok := Lookup(want); !ok {
			t.Fatalf("built-in %q not registered", want)
		}
	}
}

func TestUnknownSchedulerError(t *testing.T) {
	l := fixture.Sample(machine.Cydra())
	if _, err := Compile(context.Background(), l, Options{Scheduler: "no-such-policy"}); !errors.Is(err, ErrUnknownScheduler) {
		t.Fatalf("err = %v, want ErrUnknownScheduler", err)
	}
}

// An external policy registered at runtime is reachable through Compile
// and listed by Schedulers.
func TestRegisterCustomPolicy(t *testing.T) {
	const name SchedulerName = "zz-custom"
	calls := 0
	Register(name, func(cfg sched.Config) Runner {
		return RunnerFunc(func(ctx context.Context, l *ir.Loop, dst *sched.Result) error {
			calls++
			return sched.List(cfg).ScheduleInto(ctx, l, dst)
		})
	})
	unregisterAtCleanup(t, name)

	found := false
	for _, n := range Schedulers() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("%q missing from Schedulers(): %v", name, Schedulers())
	}
	c, err := Compile(context.Background(), fixture.Sample(machine.Cydra()), Options{Scheduler: name, SkipCodegen: true})
	if err != nil || !c.OK() {
		t.Fatalf("custom policy compile: %v", err)
	}
	if calls != 1 {
		t.Fatalf("custom runner called %d times, want 1", calls)
	}
}

// unregisterAtCleanup removes a test-registered policy when the test
// ends: the registry is process-global, so leave it as found.
func unregisterAtCleanup(t *testing.T, name SchedulerName) {
	t.Cleanup(func() {
		registry.Lock()
		delete(registry.m, name)
		registry.Unlock()
	})
}

// A Runner that returns nil without filling dst breaks its contract;
// CompileInto says so with ErrNoSchedule, which Outcome names "error",
// instead of reporting a compile with nothing in it as success.
func TestRunnerWithoutScheduleIsAnError(t *testing.T) {
	const name SchedulerName = "zz-empty"
	Register(name, func(sched.Config) Runner {
		return RunnerFunc(func(context.Context, *ir.Loop, *sched.Result) error { return nil })
	})
	unregisterAtCleanup(t, name)

	var dst Compiled
	err := CompileInto(context.Background(), &dst, fixture.Sample(machine.Cydra()), Options{Scheduler: name})
	if !errors.Is(err, ErrNoSchedule) {
		t.Fatalf("err = %v, want ErrNoSchedule", err)
	}
	if got := Outcome(&dst, err); got != "error" {
		t.Errorf("Outcome = %q, want \"error\"", got)
	}
	if dst.Loop != nil || dst.Result != nil {
		t.Errorf("dst carries %+v after an empty run", dst)
	}
}

func TestRegisterPanics(t *testing.T) {
	for _, tc := range []struct {
		name SchedulerName
		f    Factory
	}{
		{"", func(sched.Config) Runner { return nil }},
		{"x", nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q, %v) did not panic", tc.name, tc.f)
				}
			}()
			Register(tc.name, tc.f)
		}()
	}
}

// Degrade rescues a budget-exhausted compilation with the list
// scheduler, preserving the triggering error as evidence.
func TestCompileDegrade(t *testing.T) {
	l := fixture.Daxpy(machine.Cydra())
	opt := Options{
		Scheduler:   SchedSlack,
		Config:      sched.Config{Budget: sched.Budget{Deadline: time.Nanosecond}},
		SkipCodegen: true,
	}
	// Without Degrade: the typed error, with the partial result.
	c, err := Compile(context.Background(), l, opt)
	if !errors.Is(err, sched.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if c == nil || c.OK() {
		t.Fatalf("want a partial, not-OK result, got %+v", c)
	}

	opt.Degrade = true
	c, err = Compile(context.Background(), l, opt)
	if err != nil {
		t.Fatalf("degraded compile: %v", err)
	}
	if !c.OK() || !c.Degraded {
		t.Fatalf("want a feasible degraded result, got OK=%v Degraded=%v", c.OK(), c.Degraded)
	}
	if c.BudgetErr == nil || !errors.Is(c.BudgetErr, sched.ErrBudgetExhausted) {
		t.Fatalf("degraded result lost the triggering budget error: %v", c.BudgetErr)
	}
	if c.Result.Policy != "list" {
		t.Fatalf("degraded result produced by %q, want the list scheduler", c.Result.Policy)
	}
}

// A canceled context is not rescued by Degrade — the caller asked out.
func TestDegradeRespectsCancellation(t *testing.T) {
	l := fixture.Daxpy(machine.Cydra())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Compile(ctx, l, Options{Scheduler: SchedSlack, Degrade: true, SkipCodegen: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
