package sched

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
)

// bigChain builds a loop of n chained float adds off one invariant
// input — large enough that a single II attempt runs past the
// budget-check stride, so mid-attempt exhaustion and cancellation are
// observable deterministically (the small fixtures finish their
// attempts well before the first stride poll).
func bigChain(n int) *ir.Loop {
	m := machine.Cydra()
	l := ir.NewLoop("big-chain", m)
	a := l.NewValue("a", ir.GPR, ir.Float)
	prev := a
	for i := 0; i < n; i++ {
		v := l.NewValue("c", ir.RR, ir.Float)
		l.NewOp(machine.FAdd, []ir.Operand{{Val: prev.ID}, {Val: prev.ID}}, v.ID)
		prev = v
	}
	prev.LiveOut = true
	l.MustFinalize()
	return l
}

// A run whose central-iteration cap trips mid-attempt must close that
// attempt with the central-iterations outcome — the dimension the flat
// OK bit loses.
func TestAttemptOutcomeCentralIters(t *testing.T) {
	l := bigChain(2 * budgetCheckStride)
	rec := &recorder{}
	cfg := Config{
		Observer: rec,
		Budget:   Budget{MaxCentralIters: 10},
	}
	_, err := Slack(cfg).Schedule(context.Background(), l)
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != ReasonCentralIters {
		t.Fatalf("err = %v, want BudgetError(%s)", err, ReasonCentralIters)
	}
	last := rec.events[len(rec.events)-1]
	if last.Kind != EvAttemptEnd || last.OK || last.Outcome != AttemptCentralIters {
		t.Fatalf("last event %+v, want !OK attempt-end with outcome %s", last, AttemptCentralIters)
	}
	if got := rec.outcomes(); got[AttemptCentralIters] != 1 {
		t.Fatalf("outcomes %v, want one %s", got, AttemptCentralIters)
	}
}

// cancelOnFirstPlace cancels the context as soon as the attempt places
// its first operation, so the next stride poll sees a canceled context
// mid-attempt — deterministically, because the scheduler calls
// observers synchronously.
type cancelOnFirstPlace struct {
	cancel context.CancelFunc
	done   bool
}

func (c *cancelOnFirstPlace) Event(e Event) {
	if e.Kind == EvPlace && !c.done {
		c.done = true
		c.cancel()
	}
}

// Cancellation mid-attempt must be distinguishable from budget
// exhaustion in the outcome dimension.
func TestAttemptOutcomeCanceled(t *testing.T) {
	l := bigChain(2 * budgetCheckStride)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &recorder{}
	canceler := &cancelOnFirstPlace{cancel: cancel}
	cfg := Config{Observer: tee{canceler, rec}}
	_, err := Slack(cfg).Schedule(ctx, l)
	var be *BudgetError
	if !errors.As(err, &be) || be.Reason != ReasonCanceled {
		t.Fatalf("err = %v, want BudgetError(%s)", err, ReasonCanceled)
	}
	last := rec.events[len(rec.events)-1]
	if last.Kind != EvAttemptEnd || last.Outcome != AttemptCanceled {
		t.Fatalf("last event %+v, want attempt-end with outcome %s", last, AttemptCanceled)
	}
	if got := rec.outcomes(); got[AttemptCanceled] != 1 || got[AttemptCentralIters] != 0 {
		t.Fatalf("outcomes %v: cancellation misfiled", got)
	}
}

// A loop that backtracks through give-ups before succeeding files every
// attempt under exactly one outcome: give-ups plus one ok.
func TestAttemptOutcomeGiveUpAndOK(t *testing.T) {
	l := fixture.Divide(machine.Cydra())
	rec := &recorder{}
	cfg := tinyEject
	cfg.Observer = rec
	res, err := Slack(cfg).Schedule(context.Background(), l)
	if err != nil || !res.OK() {
		t.Fatalf("schedule failed: %v", err)
	}
	counts := rec.outcomes()
	if counts[AttemptOK] != 1 {
		t.Fatalf("outcomes %v, want exactly one ok", counts)
	}
	if counts[AttemptGiveUp] == 0 {
		t.Fatalf("outcomes %v: divide under tinyEject should give up at least once", counts)
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if starts := rec.count(EvAttemptStart); total != starts {
		t.Fatalf("outcome total %d != attempts %d", total, starts)
	}
}

// The list scheduler shares the outcome contract.
func TestListStampsOutcomes(t *testing.T) {
	l := fixture.Daxpy(machine.Cydra())
	rec := &recorder{}
	res, err := List(Config{Observer: rec}).Schedule(context.Background(), l)
	if err != nil || !res.OK() {
		t.Fatalf("list schedule failed: %v", err)
	}
	var ends int
	for _, e := range rec.events {
		if e.Kind == EvAttemptEnd {
			ends++
			want := AttemptGiveUp
			if e.OK {
				want = AttemptOK
			}
			if e.Outcome != want {
				t.Fatalf("attempt-end %+v: outcome/OK disagree", e)
			}
		}
	}
	if ends == 0 {
		t.Fatal("no attempt-end events observed")
	}
}

// The outcome names are the budget Reason strings, so spans, events
// and errors all speak one vocabulary; JSON renders the names.
func TestAttemptOutcomeNames(t *testing.T) {
	cases := map[AttemptOutcome]string{
		AttemptOK:           "ok",
		AttemptGiveUp:       "give-up",
		AttemptDeadline:     ReasonDeadline,
		AttemptCentralIters: ReasonCentralIters,
		AttemptIIAttempts:   ReasonIIAttempts,
		AttemptCanceled:     ReasonCanceled,
	}
	for o, want := range cases {
		if o.String() != want {
			t.Fatalf("%d.String() = %q, want %q", o, o.String(), want)
		}
		b, err := json.Marshal(o)
		if err != nil || string(b) != `"`+want+`"` {
			t.Fatalf("marshal %v: %s, %v", o, b, err)
		}
	}
	for reason, want := range map[string]AttemptOutcome{
		ReasonDeadline:     AttemptDeadline,
		ReasonCentralIters: AttemptCentralIters,
		ReasonIIAttempts:   AttemptIIAttempts,
		ReasonCanceled:     AttemptCanceled,
		"unknown":          AttemptGiveUp,
	} {
		if got := AttemptOutcomeOf(false, reason); got != want {
			t.Fatalf("AttemptOutcomeOf(false, %q) = %v, want %v", reason, got, want)
		}
	}
}

// A traced Schedule records the pipeline spans: the MII bound,
// at least one MinDist build, and one attempt span per II attempt, with
// the culprit election pointing at the attempt when the budget trips
// inside it.
func TestScheduleRecordsSpans(t *testing.T) {
	l := fixture.Daxpy(machine.Cydra())
	tr := obs.NewTrace("t1", l.Name)
	ctx := obs.WithTrace(context.Background(), tr)
	res, err := Slack(Config{}).Schedule(ctx, l)
	if err != nil || !res.OK() {
		t.Fatalf("schedule failed: %v", err)
	}
	byName := map[string]int{}
	for _, sp := range tr.Spans {
		byName[sp.Name]++
	}
	if byName["mii"] != 1 || byName["mindist"] == 0 || byName["attempt"] == 0 {
		t.Fatalf("spans %v, want mii + mindist + attempt", byName)
	}
	if byName["attempt"] != res.Stats.IIAttempts {
		t.Fatalf("%d attempt spans for %d II attempts", byName["attempt"], res.Stats.IIAttempts)
	}

	// A loop that retries computes MinDist once per II attempt, each
	// under one "mindist" span, and records no other MinDist span.
	div := fixture.Divide(machine.Cydra())
	tr3 := obs.NewTrace("t3", div.Name)
	res3, err := Slack(tinyEject).Schedule(obs.WithTrace(context.Background(), tr3), div)
	if err != nil || !res3.OK() {
		t.Fatalf("divide failed: %v", err)
	}
	if res3.Stats.IIAttempts < 2 {
		t.Fatalf("divide took %d II attempts, want a retry", res3.Stats.IIAttempts)
	}
	mindists := 0
	for _, sp := range tr3.Spans {
		switch {
		case sp.Name == "mindist":
			mindists++
		case strings.HasPrefix(sp.Name, "mindist"):
			t.Fatalf("unexpected MinDist span %q", sp.Name)
		}
	}
	if mindists != res3.Stats.IIAttempts {
		t.Fatalf("%d mindist spans for %d II attempts", mindists, res3.Stats.IIAttempts)
	}

	// Budget trips mid-attempt: that attempt span carries the exhaustion
	// outcome and wins the culprit election.
	big := bigChain(2 * budgetCheckStride)
	tr2 := obs.NewTrace("t2", big.Name)
	ctx2 := obs.WithTrace(context.Background(), tr2)
	cfg := Config{Budget: Budget{MaxCentralIters: 10}}
	if _, err := Slack(cfg).Schedule(ctx2, big); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	tr2.Finish(ReasonCentralIters)
	if tr2.Culprit != "attempt" {
		t.Fatalf("culprit = %q, want attempt", tr2.Culprit)
	}
	var found bool
	for _, sp := range tr2.Spans {
		if sp.Name == "attempt" && sp.Outcome == ReasonCentralIters {
			found = true
		}
	}
	if !found {
		t.Fatalf("no attempt span with outcome %s: %+v", ReasonCentralIters, tr2.Spans)
	}
}

// The engine's attempt spans reconcile with the Section 6 counters on
// every fixture, under every policy and the list scheduler: one span
// per II attempt, span iters summing to CentralIters and span
// ejections to Ejections. The caller's own Observer still sees the
// whole stream alongside the spans, one attempt-start and one
// attempt-end per span, the end's outcome the span's.
func TestAttemptSpansMatchStats(t *testing.T) {
	cfg := tinyEject // forces restarts, so retries are covered too
	runs := map[string]func(context.Context, *ir.Loop, Config) (*Result, error){
		"slack": func(ctx context.Context, l *ir.Loop, c Config) (*Result, error) {
			return Slack(c).Schedule(ctx, l)
		},
		"slack-unidirectional": func(ctx context.Context, l *ir.Loop, c Config) (*Result, error) {
			return SlackUnidirectional(c).Schedule(ctx, l)
		},
		"cydrome": func(ctx context.Context, l *ir.Loop, c Config) (*Result, error) {
			return Cydrome(c).Schedule(ctx, l)
		},
		"list": func(ctx context.Context, l *ir.Loop, c Config) (*Result, error) {
			return List(c).Schedule(ctx, l)
		},
	}
	for name, run := range runs {
		for _, l := range fixture.All(machine.Cydra()) {
			tr := obs.NewTrace(name, l.Name)
			rec := &recorder{}
			c := cfg
			c.Observer = rec
			res, err := run(obs.WithTrace(context.Background(), tr), l, c)
			if err != nil && !errors.Is(err, ErrInfeasible) { // an infeasible result still carries its Stats
				t.Fatalf("%s/%s: %v", name, l.Name, err)
			}
			var spans, iters, ejections int64
			var outcomes []AttemptOutcome
			for _, e := range rec.events {
				if e.Kind == EvAttemptEnd {
					outcomes = append(outcomes, e.Outcome)
				}
			}
			for _, sp := range tr.Spans {
				if sp.Name != "attempt" {
					continue
				}
				if i := int(spans); i >= len(outcomes) || sp.Outcome != outcomes[i].String() {
					t.Errorf("%s/%s: attempt span %d outcome %q, attempt-ends %v", name, l.Name, i, sp.Outcome, outcomes)
				}
				spans++
				for _, a := range sp.Attrs {
					switch a.Key {
					case "iters":
						iters += a.Int
					case "ejections":
						ejections += a.Int
					case "policy":
						if a.Str != res.Policy {
							t.Errorf("%s/%s: span policy %q, want %q", name, l.Name, a.Str, res.Policy)
						}
					}
				}
			}
			st := res.Stats
			if spans != int64(st.IIAttempts) || iters != st.CentralIters || ejections != st.Ejections {
				t.Errorf("%s/%s: spans %d, iters %d, ejections %d; stats %d, %d, %d",
					name, l.Name, spans, iters, ejections, st.IIAttempts, st.CentralIters, st.Ejections)
			}
			if starts, places := rec.count(EvAttemptStart), rec.count(EvPlace); starts != spans || int64(len(outcomes)) != spans || places != iters {
				t.Errorf("%s/%s: observer saw %d attempt starts, %d ends, %d places; spans %d, iters %d",
					name, l.Name, starts, len(outcomes), places, spans, iters)
			}
		}
	}
}
