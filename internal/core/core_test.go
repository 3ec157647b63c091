package core

import (
	"context"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mindist"
	"repro/internal/schedcheck"
)

// The repository's central end-to-end property: for every runnable
// fixture, every scheduler that produces a schedule produces one whose
// generated kernel — rotating registers, stage predicates, exact
// latencies — computes exactly what the sequential loop computes.
func TestDifferentialAllSchedulers(t *testing.T) {
	m := machine.Cydra()
	for _, r := range fixture.Runnables(m) {
		for _, name := range Schedulers() {
			c, err := Compile(context.Background(), r.Loop, Options{Scheduler: name})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, r.Loop.Name, err)
			}
			if !c.OK() {
				if name == SchedList || name == SchedCydrome {
					continue // may legitimately give up (see sched tests)
				}
				t.Fatalf("%s/%s: scheduling gave up", name, r.Loop.Name)
			}
			if vs := schedcheck.Check(r.Loop, c.Result.Schedule); vs != nil {
				t.Fatalf("illegal schedule: %v", vs)
			}
			if err := VerifyExecution(c, r.Env, r.Trips); err != nil {
				t.Errorf("%s/%s: %v\n%s", name, r.Loop.Name, err, c.Kernel)
			}
		}
	}
}

// Differential testing must hold on every machine variant, not just the
// paper's latencies (the Section 8 robustness claim, correctness side).
func TestDifferentialAcrossMachines(t *testing.T) {
	for _, name := range []string{machine.PaperMachine, "shortmem", "longops", "pipediv"} {
		m, _ := machine.Lookup(name)
		for _, r := range fixture.Runnables(m) {
			c, err := Compile(context.Background(), r.Loop, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, r.Loop.Name, err)
			}
			if !c.OK() {
				t.Fatalf("%s/%s: scheduling gave up", m.Name, r.Loop.Name)
			}
			if err := VerifyExecution(c, r.Env, r.Trips); err != nil {
				t.Errorf("%s/%s: %v", m.Name, r.Loop.Name, err)
			}
		}
	}
}

// Pressure bookkeeping: MaxLive can never undercut the exact average
// bound ⌈Σ MinLT / II⌉. (MinAvg itself rounds each lifetime up to whole
// registers — Σ⌈MinLT/II⌉ — so on loops with many sub-II lifetimes at a
// huge II, like the divider fixture, MaxLive may sit slightly below
// MinAvg; the paper's Figure 5 population made that case negligible.)
func TestPressureBounds(t *testing.T) {
	m := machine.Cydra()
	for _, r := range fixture.Runnables(m) {
		c, err := Compile(context.Background(), r.Loop, Options{})
		if err != nil || !c.OK() {
			t.Fatalf("%s: compile failed", r.Loop.Name)
		}
		md := c.Result.MinDist
		sumLT := 0
		for _, v := range r.Loop.Values {
			if v.File == ir.RR && v.IsVariant() {
				sumLT += mindist.MinLT(r.Loop, md, v.ID)
			}
		}
		ii := c.Result.Schedule.II
		floor := (sumLT + ii - 1) / ii
		if c.RR.MaxLive < floor {
			t.Errorf("%s: MaxLive %d < ⌈ΣMinLT/II⌉ = %d", r.Loop.Name, c.RR.MaxLive, floor)
		}
		if c.MinAvg <= 0 {
			t.Errorf("%s: MinAvg not populated", r.Loop.Name)
		}
		if c.Kernel == nil || c.Kernel.NRR < c.RR.MaxLive {
			t.Errorf("%s: allocation smaller than MaxLive", r.Loop.Name)
		}
	}
}

// Trip counts below, at, and above the stage count all must verify:
// ramp-up/ramp-down squashing is where kernel-only codegen goes wrong.
func TestShortTripCounts(t *testing.T) {
	m := machine.Cydra()
	r := fixture.RunnableDaxpy(m)
	c, err := Compile(context.Background(), r.Loop, Options{})
	if err != nil || !c.OK() {
		t.Fatal("compile failed")
	}
	for trips := 1; trips <= c.Kernel.Stages+2; trips++ {
		if err := VerifyExecution(c, r.Env, trips); err != nil {
			t.Errorf("trips=%d: %v", trips, err)
		}
	}
}

func TestZeroTrips(t *testing.T) {
	m := machine.Cydra()
	r := fixture.RunnableReduction(m)
	c, err := Compile(context.Background(), r.Loop, Options{})
	if err != nil || !c.OK() {
		t.Fatal("compile failed")
	}
	if err := VerifyExecution(c, r.Env, 0); err != nil {
		t.Errorf("zero-trip run must be a no-op on both engines: %v", err)
	}
}

func TestSkipCodegen(t *testing.T) {
	m := machine.Cydra()
	c, err := Compile(context.Background(), fixture.Sample(m), Options{SkipCodegen: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Kernel != nil {
		t.Error("SkipCodegen should not generate a kernel")
	}
	if err := VerifyExecution(c, fixture.RunnableSample(m).Env, 4); err == nil {
		t.Error("VerifyExecution without a kernel must fail")
	}
}

func TestUnknownScheduler(t *testing.T) {
	m := machine.Cydra()
	if _, err := Compile(context.Background(), fixture.Sample(m), Options{Scheduler: "magic"}); err == nil {
		t.Error("unknown scheduler must error")
	}
}
