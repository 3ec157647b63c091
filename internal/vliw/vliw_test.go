package vliw

import (
	"context"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/fixture"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/semantics"
)

func kernelFor(t *testing.T, r fixture.Runnable) *codegen.Kernel {
	t.Helper()
	res, err := sched.Slack(sched.Config{}).Schedule(context.Background(), r.Loop)
	if err != nil || !res.OK() {
		t.Fatalf("%s: scheduling failed", r.Loop.Name)
	}
	k, err := codegen.Generate(r.Loop, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// The simulator must match the interpreter exactly — memory, live-outs,
// and the count of operations that actually executed.
func TestMatchesInterpreter(t *testing.T) {
	m := machine.Cydra()
	for _, r := range fixture.Runnables(m) {
		k := kernelFor(t, r)
		want, err := interp.Run(r.Loop, r.Env, r.Trips)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(k, r.Env, r.Trips, Config{Paranoid: true})
		if err != nil {
			t.Fatalf("%s: %v", r.Loop.Name, err)
		}
		for i := range want.Mem {
			if !semantics.Equal(want.Mem[i], got.Mem[i]) {
				t.Fatalf("%s: mem[%d]: interp %+v vliw %+v", r.Loop.Name, i, want.Mem[i], got.Mem[i])
			}
		}
		if want.Executed != got.Executed {
			t.Errorf("%s: executed %d vs %d", r.Loop.Name, got.Executed, want.Executed)
		}
	}
}

// Paranoid mode must catch a deliberately corrupted specifier — the
// class of bug (wrong rotating offset) that silently reads a neighbouring
// iteration's value.
func TestParanoidCatchesBadSpecifier(t *testing.T) {
	m := machine.Cydra()
	r := fixture.RunnableSample(m)
	k := kernelFor(t, r)
	// Corrupt the first RR source specifier we find.
	done := false
	for _, word := range k.Words {
		for _, in := range word {
			for j := range in.Srcs {
				if in.Srcs[j].File == ir.RR && in.Srcs[j].Omega > 0 && !done {
					in.Srcs[j].Off = (in.Srcs[j].Off + 1) % k.NRR
					done = true
				}
			}
		}
	}
	if !done {
		t.Fatal("no specifier to corrupt")
	}
	if _, err := Run(k, r.Env, r.Trips, Config{Paranoid: true}); err == nil {
		t.Error("paranoid run must detect the stale read")
	} else if !strings.Contains(err.Error(), "stale") && !strings.Contains(err.Error(), "never-written") {
		t.Errorf("unexpected error kind: %v", err)
	}
}

// A schedule that violates a latency (hand-built, bypassing the
// scheduler) must be caught by the paranoid tag check: the consumer
// issues before the producer's writeback.
func TestParanoidCatchesLatencyViolation(t *testing.T) {
	m := machine.Cydra()
	r := fixture.RunnableDaxpy(m)
	res, err := sched.Slack(sched.Config{}).Schedule(context.Background(), r.Loop)
	if err != nil || !res.OK() {
		t.Fatal("scheduling failed")
	}
	s := res.Schedule
	// Find the fmul and yank it earlier so it reads the load's result
	// before the 13-cycle latency has elapsed.
	var mul ir.OpID = -1
	for _, op := range r.Loop.Ops {
		if op.Opcode == machine.FMul {
			mul = op.ID
		}
	}
	s.Time[mul] = 1 // the feeding load issues at ≥ 0, so 1 is far too soon
	k, err := codegen.Generate(r.Loop, s)
	if err != nil {
		t.Fatalf("codegen (expected to succeed; the bug is dynamic): %v", err)
	}
	if _, err := Run(k, r.Env, r.Trips, Config{Paranoid: true}); err == nil {
		t.Error("latency violation must be detected dynamically")
	}
}

// Without paranoia the same corrupted kernel runs to completion and
// produces wrong answers — which the differential comparison catches.
func TestNonParanoidDivergesQuietly(t *testing.T) {
	m := machine.Cydra()
	r := fixture.RunnableSample(m)
	k := kernelFor(t, r)
	for _, word := range k.Words {
		for _, in := range word {
			for j := range in.Srcs {
				if in.Srcs[j].File == ir.RR && in.Srcs[j].Omega > 0 {
					in.Srcs[j].Off = (in.Srcs[j].Off + 1) % k.NRR
				}
			}
		}
	}
	want, err := interp.Run(r.Loop, r.Env, r.Trips)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(k, r.Env, r.Trips, Config{Paranoid: false})
	if err != nil {
		// Non-paranoid runs may still fail on never-written cells read
		// as zero scalars — that is fine for this test's purpose.
		t.Skipf("non-paranoid run errored early: %v", err)
	}
	same := true
	for i := range want.Mem {
		if !semantics.Equal(want.Mem[i], got.Mem[i]) {
			same = false
		}
	}
	if same {
		t.Error("corrupted kernel should produce different memory")
	}
}

func TestZeroAndOneTrip(t *testing.T) {
	m := machine.Cydra()
	r := fixture.RunnableConditional(m)
	k := kernelFor(t, r)
	for trips := 0; trips <= 1; trips++ {
		want, err := interp.Run(r.Loop, r.Env, trips)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(k, r.Env, trips, Config{Paranoid: true})
		if err != nil {
			t.Fatalf("trips=%d: %v", trips, err)
		}
		if want.Executed != got.Executed {
			t.Errorf("trips=%d: executed %d vs %d", trips, got.Executed, want.Executed)
		}
	}
}

func TestNegativeTripsRejected(t *testing.T) {
	m := machine.Cydra()
	r := fixture.RunnableSample(m)
	k := kernelFor(t, r)
	if _, err := Run(k, r.Env, -1, Config{}); err == nil {
		t.Error("negative trips must be rejected")
	}
}
