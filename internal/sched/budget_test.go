package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
)

// A near-zero deadline must surface ErrBudgetExhausted promptly on
// every loop and policy, with the partial result still attached.
func TestDeadlineExhaustsPromptly(t *testing.T) {
	m := machine.Cydra()
	cfg := Config{Budget: Budget{Deadline: time.Nanosecond}}
	ctx := context.Background()
	runs := map[string]func(*ir.Loop) (*Result, error){
		"slack":    func(l *ir.Loop) (*Result, error) { return Slack(cfg).Schedule(ctx, l) },
		"slack-1d": func(l *ir.Loop) (*Result, error) { return SlackUnidirectional(cfg).Schedule(ctx, l) },
		"cydrome":  func(l *ir.Loop) (*Result, error) { return Cydrome(cfg).Schedule(ctx, l) },
		"list":     func(l *ir.Loop) (*Result, error) { return List(cfg).Schedule(ctx, l) },
	}
	for name, run := range runs {
		for _, l := range fixture.All(m) {
			start := time.Now()
			res, err := run(l)
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("%s/%s: exhaustion took %v, not prompt", name, l.Name, elapsed)
			}
			if !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("%s/%s: err = %v, want ErrBudgetExhausted", name, l.Name, err)
			}
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("%s/%s: err %T does not unwrap to *BudgetError", name, l.Name, err)
			}
			if be.Reason != ReasonDeadline {
				t.Fatalf("%s/%s: reason %q, want %q", name, l.Name, be.Reason, ReasonDeadline)
			}
			if be.Loop != l.Name || be.MII < 1 || be.LastII < be.MII {
				t.Fatalf("%s/%s: bad evidence: %+v", name, l.Name, be)
			}
			if res == nil {
				t.Fatalf("%s/%s: no partial result alongside the budget error", name, l.Name)
			}
		}
	}
}

// tinyEject makes divide backtrack across many II attempts, so the
// attempt- and iteration-cap budgets have something to trip on.
var tinyEject = Config{tinyEject: true}

func TestMaxIIAttempts(t *testing.T) {
	l := fixture.Divide(machine.Cydra())
	cfg := tinyEject
	res, err := Slack(cfg).Schedule(context.Background(), l)
	if err != nil || !res.OK() {
		t.Fatalf("unbudgeted run failed: %v", err)
	}
	if res.Stats.IIAttempts < 2 {
		t.Fatalf("fixture took %d attempts; the cap test needs at least 2", res.Stats.IIAttempts)
	}
	cfg.Budget = Budget{MaxIIAttempts: 1}
	res, err = Slack(cfg).Schedule(context.Background(), l)
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != ReasonIIAttempts {
		t.Fatalf("err = %v, want BudgetError(%s)", err, ReasonIIAttempts)
	}
	if res == nil || res.Stats.IIAttempts != 1 {
		t.Fatalf("partial result should record exactly one attempt: %+v", res)
	}
}

func TestMaxCentralIters(t *testing.T) {
	l := fixture.Divide(machine.Cydra())
	cfg := tinyEject
	cfg.Budget = Budget{MaxCentralIters: 50}
	res, err := Slack(cfg).Schedule(context.Background(), l)
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != ReasonCentralIters {
		t.Fatalf("err = %v, want BudgetError(%s)", err, ReasonCentralIters)
	}
	if res == nil || res.Stats.CentralIters < 50 {
		t.Fatalf("partial result should have hit the cap: %+v", res)
	}
}

// A canceled context surfaces as a budget error that also matches the
// context's own error, so callers can tell cancellation from exhaustion.
func TestContextCancellation(t *testing.T) {
	l := fixture.Daxpy(machine.Cydra())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Slack(Config{}).Schedule(ctx, l)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, should also match context.Canceled", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != ReasonCanceled {
		t.Fatalf("err = %v, want BudgetError(%s)", err, ReasonCanceled)
	}
	if res == nil {
		t.Fatal("no partial result on cancellation")
	}
}

// A generous budget must not change any scheduling decision: the
// schedule and the deterministic effort counters are identical to an
// unbudgeted run.
func TestGenerousBudgetIsInvisible(t *testing.T) {
	m := machine.Cydra()
	generous := Budget{Deadline: time.Hour, MaxCentralIters: 1 << 40, MaxIIAttempts: 1 << 20}
	for _, l := range fixture.All(m) {
		plain, err := Slack(Config{}).Schedule(context.Background(), l)
		if err != nil || !plain.OK() {
			t.Fatalf("%s: %v", l.Name, err)
		}
		budgeted, err := Slack(Config{Budget: generous}).Schedule(context.Background(), l)
		if err != nil || !budgeted.OK() {
			t.Fatalf("%s (budgeted): %v", l.Name, err)
		}
		if plain.Schedule.II != budgeted.Schedule.II {
			t.Fatalf("%s: II %d vs %d under a generous budget", l.Name, plain.Schedule.II, budgeted.Schedule.II)
		}
		ps, bs := plain.Stats, budgeted.Stats
		if ps.IIAttempts != bs.IIAttempts || ps.CentralIters != bs.CentralIters ||
			ps.Placements != bs.Placements || ps.Forces != bs.Forces ||
			ps.Ejections != bs.Ejections || ps.Restarts != bs.Restarts {
			t.Fatalf("%s: effort differs under a generous budget:\nplain    %+v\nbudgeted %+v", l.Name, ps, bs)
		}
		for x := range l.Ops {
			if plain.Schedule.Time[x] != budgeted.Schedule.Time[x] {
				t.Fatalf("%s: op%d placed at %d vs %d", l.Name, x, plain.Schedule.Time[x], budgeted.Schedule.Time[x])
			}
		}
	}
}
