package exact_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
)

// TestExactBudgetErrorTyped: a budget too small to find anything must
// surface as a *sched.BudgetError with partial evidence, never a hang
// or an untyped failure.
func TestExactBudgetErrorTyped(t *testing.T) {
	// The engine polls its budget every 256 central iterations, so on a
	// loop small enough to schedule inside one stride the slack seed
	// succeeds even under MaxCentralIters=1 and exact's anytime contract
	// returns the incumbent instead of an error. Pick a corpus loop big
	// enough that the seed itself is starved.
	suite, err := loopgen.Build(loopgen.Options{Size: 60, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	var l *ir.Loop
	for _, wl := range suite.Loops {
		sres, serr := sched.Slack(sched.Config{}).Schedule(context.Background(), wl.CL.Loop)
		if serr == nil && sres.OK() && sres.Stats.CentralIters > 300 {
			l = wl.CL.Loop
			break
		}
	}
	if l == nil {
		t.Fatal("no corpus loop needs >300 central iterations — shrink the stride assumption")
	}
	cfg := sched.Config{Budget: sched.Budget{MaxCentralIters: 1}}
	out, err := exact.New(cfg).Search(context.Background(), l)
	var be *sched.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *sched.BudgetError, got %T: %v", err, err)
	}
	if !errors.Is(err, sched.ErrBudgetExhausted) {
		t.Errorf("errors.Is(err, ErrBudgetExhausted) = false")
	}
	if be.Reason != sched.ReasonCentralIters {
		t.Errorf("Reason = %q, want %q", be.Reason, sched.ReasonCentralIters)
	}
	if be.Policy != exact.PolicyName {
		t.Errorf("Policy = %q, want %q", be.Policy, exact.PolicyName)
	}
	if out == nil || out.Result == nil || out.Result.OK() {
		t.Errorf("want partial-evidence Result without a schedule, got %+v", out)
	}
}

// TestExactDeadlineTyped: an expired wall-clock deadline is a typed
// budget error too.
func TestExactDeadlineTyped(t *testing.T) {
	l := fixture.Sample(machine.Cydra())
	cfg := sched.Config{Budget: sched.Budget{Deadline: time.Nanosecond}}
	_, err := exact.New(cfg).Search(context.Background(), l)
	var be *sched.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *sched.BudgetError, got %T: %v", err, err)
	}
	if be.Reason != sched.ReasonDeadline {
		t.Errorf("Reason = %q, want %q", be.Reason, sched.ReasonDeadline)
	}
}

// TestExactCanceled: a canceled context fails fast and the error
// matches context.Canceled, whichever stage it tripped in.
func TestExactCanceled(t *testing.T) {
	l := fixture.Sample(machine.Cydra())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := exact.New(sched.Config{}).Search(ctx, l)
	if err == nil {
		t.Fatal("want error from canceled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false: %v", err)
	}
}

// cancelOnExactAttempt cancels the search's context when its first
// exact attempt starts, after the slack seed and the attempt-boundary
// check, and records how each exact attempt ended.
type cancelOnExactAttempt struct {
	cancel context.CancelFunc
	ends   []sched.Event
}

func (c *cancelOnExactAttempt) Event(e sched.Event) {
	if e.Policy != exact.PolicyName {
		return
	}
	switch e.Kind {
	case sched.EvAttemptStart:
		c.cancel()
	case sched.EvAttemptEnd:
		c.ends = append(c.ends, e)
	}
}

// TestExactStopsInMinDist: the MinDist computation of an exact attempt
// polls the budget, so a cancellation that lands as the attempt starts
// ends it canceled before the branch-and-bound expands a node, and the
// seed survives unproven.
func TestExactStopsInMinDist(t *testing.T) {
	l := fixture.Sample(machine.Cydra())
	seed, err := sched.Slack(sched.Config{}).Schedule(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelOnExactAttempt{cancel: cancel}
	out, err := exact.New(sched.Config{Observer: rec}).Search(ctx, l)
	if err != nil {
		t.Fatalf("the seed should survive the cancel: %v", err)
	}
	if out.Proven {
		t.Error("Proven=true after a canceled attempt")
	}
	if len(rec.ends) != 1 || rec.ends[0].Outcome != sched.AttemptCanceled {
		t.Fatalf("exact attempt ends %+v, want one %s", rec.ends, sched.AttemptCanceled)
	}
	if nodes := out.Result.Stats.CentralIters - seed.Stats.CentralIters; nodes != 0 {
		t.Errorf("the canceled attempt expanded %d search nodes", nodes)
	}
}

// TestExactAnytime: when the seed succeeds but the node budget is too
// small to finish the search, exact still returns the incumbent with a
// nil error and Proven=false — the anytime contract the lsmsd refiner
// relies on.
func TestExactAnytime(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		// Enough nodes for the slack seed's central loop, too few for the
		// exact search to prove anything.
		sres, serr := sched.Slack(sched.Config{}).Schedule(context.Background(), l)
		if serr != nil || !sres.OK() {
			continue
		}
		cfg := sched.Config{Budget: sched.Budget{MaxCentralIters: sres.Stats.CentralIters + 2}}
		out, err := exact.New(cfg).Search(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: anytime contract violated: %v", l.Name, err)
		}
		if !out.Result.OK() {
			t.Fatalf("%s: no schedule despite a feasible seed", l.Name)
		}
		if out.Result.Policy != exact.PolicyName {
			t.Errorf("%s: Policy = %q", l.Name, out.Result.Policy)
		}
		if out.Proven {
			t.Errorf("%s: Proven=true under a starvation budget", l.Name)
		}
		return // one loop is enough
	}
	t.Skip("no fixture loop schedulable by slack")
}

// TestExactDeterminism: two identical runs agree on the schedule and
// every deterministic effort counter (the property the golden
// fingerprints and the wire cache rely on).
func TestExactDeterminism(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		a, errA := exact.New(sched.Config{}).Search(context.Background(), l)
		b, errB := exact.New(sched.Config{}).Search(context.Background(), l)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: error divergence: %v vs %v", l.Name, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.Result.Schedule.II != b.Result.Schedule.II || a.MaxLive != b.MaxLive || a.Proven != b.Proven {
			t.Fatalf("%s: verdict divergence", l.Name)
		}
		for i, ta := range a.Result.Schedule.Time {
			if b.Result.Schedule.Time[i] != ta {
				t.Fatalf("%s: op %d placed at %d then %d", l.Name, i, ta, b.Result.Schedule.Time[i])
			}
		}
		sa, sb := a.Result.Stats, b.Result.Stats
		if sa.IIAttempts != sb.IIAttempts || sa.CentralIters != sb.CentralIters ||
			sa.Placements != sb.Placements {
			t.Fatalf("%s: counter divergence: %+v vs %+v", l.Name, sa, sb)
		}
	}
}

// TestExactRegistered: the backend is reachable through the core
// registry, so every entry point (CLI, daemon, bench) can name it.
func TestExactRegistered(t *testing.T) {
	if _, ok := core.Lookup(core.SchedExact); !ok {
		t.Fatal("exact not in the core scheduler registry")
	}
	names := core.Schedulers()
	found := false
	for _, n := range names {
		if n == core.SchedExact {
			found = true
		}
	}
	if !found {
		t.Fatalf("Schedulers() = %v, missing %q", names, core.SchedExact)
	}
	c, err := core.Compile(context.Background(), fixture.Sample(machine.Cydra()), core.Options{Scheduler: core.SchedExact})
	if err != nil {
		t.Fatalf("core.Compile(exact): %v", err)
	}
	if !c.Result.OK() || c.Result.Policy != exact.PolicyName {
		t.Fatalf("compile result not from exact: %+v", c.Result)
	}
}

// TestExactScheduleInto: the core.Runner contract — reused dst matches a
// fresh Search, and preflight failure zeroes dst.
func TestExactScheduleInto(t *testing.T) {
	m := machine.Cydra()
	var dst sched.Result
	for _, l := range fixture.All(m) {
		o, errA := exact.New(sched.Config{}).Search(context.Background(), l)
		errB := exact.New(sched.Config{}).ScheduleInto(context.Background(), l, &dst)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: error divergence: %v vs %v", l.Name, errA, errB)
		}
		if errA != nil || o == nil {
			continue
		}
		fresh := o.Result
		if fresh.Schedule.II != dst.Schedule.II {
			t.Fatalf("%s: II divergence %d vs %d", l.Name, fresh.Schedule.II, dst.Schedule.II)
		}
		for i, ta := range fresh.Schedule.Time {
			if dst.Schedule.Time[i] != ta {
				t.Fatalf("%s: op %d placed at %d vs %d", l.Name, i, ta, dst.Schedule.Time[i])
			}
		}
	}
}
