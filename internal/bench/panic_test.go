package bench

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/wire"
)

// panicOn is an Observer that panics while one specific loop is being
// scheduled — a fault injected into the middle of the compiler.
type panicOn struct{ loop string }

func (p panicOn) Event(e sched.Event) {
	if e.Loop == p.loop {
		panic("injected fault for " + p.loop)
	}
}

// A panic while compiling one loop must fail only that loop's record;
// the rest of the sweep completes normally, serial and parallel alike.
func TestPanicIsolatedToOneLoop(t *testing.T) {
	for _, workers := range []int{1, 8} {
		s := suite(t, 40)
		s.Parallel = workers
		infos, err := s.Infos()
		if err != nil {
			t.Fatal(err)
		}
		// Events are stamped with the IR loop's name, which can differ
		// from the workload entry's name.
		victim := infos[len(infos)/2].Name
		s.Configure(core.SchedSlack, sched.Config{Observer: panicOn{infos[len(infos)/2].Loop.Name}})
		rs, err := s.Runs(core.SchedSlack)
		if err != nil {
			t.Fatalf("sweep aborted: %v", err)
		}
		if len(rs) != len(infos) {
			t.Fatalf("sweep lost runs: %d of %d", len(rs), len(infos))
		}
		for _, r := range rs {
			if r.Info.Name == victim {
				var pe *core.PanicError
				if !errors.As(r.Err, &pe) {
					t.Fatalf("victim %s: Err = %v, want *core.PanicError", victim, r.Err)
				}
				if pe.Loop != victim || len(pe.Stack) == 0 {
					t.Fatalf("panic record incomplete: loop=%q stack=%d bytes", pe.Loop, len(pe.Stack))
				}
				if r.OK {
					t.Fatalf("victim %s still marked OK", victim)
				}
				continue
			}
			if r.Err != nil || !r.OK {
				t.Fatalf("%s (workers=%d): innocent loop affected: OK=%v err=%v", r.Info.Name, workers, r.OK, r.Err)
			}
		}
	}
}

// A ~0 deadline fails every loop with a budget error (never hanging the
// sweep); with Degrade the list scheduler rescues each one instead.
func TestBudgetedSweep(t *testing.T) {
	tight := sched.Config{Budget: sched.Budget{Deadline: time.Nanosecond}}

	s := suite(t, 40)
	for _, n := range core.Schedulers() {
		s.Configure(n, tight)
	}
	rs, err := s.RunsContext(context.Background(), core.SchedSlack)
	if err != nil {
		t.Fatalf("sweep aborted: %v", err)
	}
	for _, r := range rs {
		if !errors.Is(r.Err, sched.ErrBudgetExhausted) {
			t.Fatalf("%s: Err = %v, want ErrBudgetExhausted", r.Info.Name, r.Err)
		}
		if r.OK || r.Degraded {
			t.Fatalf("%s: exhausted run marked OK=%v Degraded=%v", r.Info.Name, r.OK, r.Degraded)
		}
	}

	d := suite(t, 40)
	d.Degrade = true
	for _, n := range core.Schedulers() {
		d.Configure(n, tight)
	}
	rs, err = d.RunsContext(context.Background(), core.SchedSlack)
	if err != nil {
		t.Fatalf("degraded sweep aborted: %v", err)
	}
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("%s: degraded sweep still failed: %v", r.Info.Name, r.Err)
		}
		if !r.OK || !r.Degraded {
			t.Fatalf("%s: want a degraded OK run, got OK=%v Degraded=%v", r.Info.Name, r.OK, r.Degraded)
		}
	}
}

// A canceled context fails the sweep's loops with the context error
// rather than hanging or panicking.
func TestSweepCancellation(t *testing.T) {
	s := suite(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, err := s.RunsContext(ctx, core.SchedSlack)
	if err != nil {
		t.Fatalf("sweep aborted: %v", err)
	}
	for _, r := range rs {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("%s: Err = %v, want context.Canceled", r.Info.Name, r.Err)
		}
	}
}

// An observer attached to a policy's Config cannot perturb scheduling:
// the observed sweep agrees with the unobserved one on every visible
// outcome (II, OK, MaxLive) and on the effort counters the metrics
// record sums.
func TestMetricsDoNotPerturbScheduling(t *testing.T) {
	plain := suite(t, 40)
	observed := suite(t, 40)
	var events atomic.Int64
	observed.Configure(core.SchedSlack, sched.Config{Observer: countEvents{&events}})
	rp, err := plain.Runs(core.SchedSlack)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := observed.Runs(core.SchedSlack)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rp {
		if rp[i].OK != ro[i].OK || rp[i].II != ro[i].II || rp[i].MaxLive != ro[i].MaxLive ||
			wire.EffortOf(rp[i].Stats) != wire.EffortOf(ro[i].Stats) {
			t.Fatalf("%s: observed run differs: %+v vs %+v", rp[i].Info.Name, rp[i], ro[i])
		}
	}
	if events.Load() == 0 {
		t.Fatal("the observer saw no events")
	}
}

// countEvents counts the events of a concurrent sweep.
type countEvents struct{ n *atomic.Int64 }

func (c countEvents) Event(sched.Event) { c.n.Add(1) }
