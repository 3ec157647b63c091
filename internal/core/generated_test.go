package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/codegen"
	"repro/internal/frontend"
	"repro/internal/interp"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/schedcheck"
	"repro/internal/semantics"
	"repro/internal/vliw"
)

// The capstone differential test: a few hundred *generated* loops run
// through the complete pipeline — frontend, slack scheduling, rotating-
// register allocation, kernel codegen, cycle-accurate simulation — and
// every one must compute exactly what the sequential interpreter
// computes. Environments come from loopgen.AutoBinding, so any loop the
// generator can emit is executable.
func TestGeneratedLoopsFullPipeline(t *testing.T) {
	m := machine.Cydra()
	rng := rand.New(rand.NewSource(20260704))
	ran := 0
	for i := 0; ran < 150 && i < 400; i++ {
		src := loopgen.Generate(rng, "gen")
		_, loops, err := frontend.Compile(src, m)
		if err != nil {
			t.Fatalf("loop %d does not compile: %v\n%s", i, err, src)
		}
		cl := loops[0]
		if cl.Ineligible != nil {
			continue
		}
		env, _, trips, err := cl.BuildEnv(loopgen.AutoBinding(cl))
		if err != nil {
			t.Fatalf("loop %d: binding: %v\n%s", i, err, src)
		}
		if trips > 24 {
			trips = 24 // bound simulation time on big-II loops
		}
		c, err := Compile(context.Background(), cl.Loop, Options{})
		if err != nil {
			t.Fatalf("loop %d: %v\n%s", i, err, src)
		}
		if !c.OK() {
			t.Fatalf("loop %d: slack gave up\n%s", i, src)
		}
		if vs := schedcheck.Check(cl.Loop, c.Result.Schedule); vs != nil {
			t.Fatalf("illegal schedule: %v", vs)
		}
		if err := VerifyExecution(c, env, trips); err != nil {
			t.Fatalf("loop %d: %v\n%s%s", i, err, src, c.Kernel)
		}
		ran++
	}
	if ran < 100 {
		t.Fatalf("only %d eligible generated loops ran", ran)
	}
}

// The same sweep under the Cydrome baseline: schedules it produces must
// also execute correctly (the paper's comparison would be meaningless
// against a broken baseline).
func TestGeneratedLoopsBaselinePipeline(t *testing.T) {
	m := machine.Cydra()
	rng := rand.New(rand.NewSource(4))
	ran := 0
	for i := 0; ran < 60 && i < 200; i++ {
		src := loopgen.Generate(rng, "gen")
		_, loops, err := frontend.Compile(src, m)
		if err != nil {
			t.Fatal(err)
		}
		cl := loops[0]
		if cl.Ineligible != nil {
			continue
		}
		env, _, trips, err := cl.BuildEnv(loopgen.AutoBinding(cl))
		if err != nil {
			t.Fatalf("loop %d: binding: %v\n%s", i, err, src)
		}
		if trips > 20 {
			trips = 20
		}
		c, err := Compile(context.Background(), cl.Loop, Options{Scheduler: SchedCydrome})
		if err != nil {
			t.Fatal(err)
		}
		if !c.OK() {
			continue // legitimate baseline failure
		}
		if err := VerifyExecution(c, env, trips); err != nil {
			t.Fatalf("loop %d: %v\n%s", i, err, src)
		}
		ran++
	}
	if ran < 40 {
		t.Fatalf("only %d baseline loops ran", ran)
	}
}

// The MVE code path over generated loops: unrolled static-register code
// must match the interpreter too.
func TestGeneratedLoopsMVE(t *testing.T) {
	m := machine.Cydra()
	rng := rand.New(rand.NewSource(777))
	ran := 0
	for i := 0; ran < 60 && i < 200; i++ {
		src := loopgen.Generate(rng, "gen")
		_, loops, err := frontend.Compile(src, m)
		if err != nil {
			t.Fatal(err)
		}
		cl := loops[0]
		if cl.Ineligible != nil {
			continue
		}
		env, _, trips, err := cl.BuildEnv(loopgen.AutoBinding(cl))
		if err != nil {
			t.Fatal(err)
		}
		if trips > 20 {
			trips = 20
		}
		res, err := sched.Slack(sched.Config{}).Schedule(context.Background(), cl.Loop)
		if err != nil || !res.OK() {
			t.Fatalf("loop %d: scheduling failed", i)
		}
		k, err := codegen.GenerateMVE(cl.Loop, res.Schedule)
		if err != nil {
			continue // over the unroll cap: acceptable, counted by the bench
		}
		want, err := interp.Run(cl.Loop, env, trips)
		if err != nil {
			t.Fatal(err)
		}
		got, err := vliw.RunMVE(k, env, trips, vliw.Config{Paranoid: true})
		if err != nil {
			t.Fatalf("loop %d: %v\n%s", i, err, src)
		}
		for j := range want.Mem {
			if !semantics.Equal(want.Mem[j], got.Mem[j]) {
				t.Fatalf("loop %d: mem[%d] differs\n%s", i, j, src)
			}
		}
		ran++
	}
	if ran < 40 {
		t.Fatalf("only %d MVE loops ran", ran)
	}
}
