package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/sched"
)

// TestOutcomeVocabulary pins the outcome names: sched.Outcome for every
// scheduling verdict and core.Outcome for what only a compile adds.
// The names are wire strings (span and trace outcomes, the
// lsmsd_compile_seconds outcome label, flight-recorder entries), so
// the table spells them out rather than through constants.
func TestOutcomeVocabulary(t *testing.T) {
	budget := func(reason string) error {
		return &sched.BudgetError{Loop: "l", Policy: "slack", Reason: reason, MII: 2, LastII: 3}
	}
	ok := &Compiled{Result: &sched.Result{Schedule: &ir.Schedule{II: 2}}}
	failed := &Compiled{Result: &sched.Result{FailedII: 3}}
	degraded := &Compiled{Result: ok.Result, Degraded: true}
	for _, tc := range []struct {
		name        string
		c           *Compiled
		err         error
		sched, core string
	}{
		{"nil", ok, nil, "ok", "ok"},
		{"deadline", failed, budget(sched.ReasonDeadline), "deadline", "deadline"},
		{"central-iterations", failed, budget(sched.ReasonCentralIters), "central-iterations", "central-iterations"},
		{"ii-attempts", failed, budget(sched.ReasonIIAttempts), "ii-attempts", "ii-attempts"},
		{"canceled", failed, budget(sched.ReasonCanceled), "canceled", "canceled"},
		{"wrapped budget", nil, fmt.Errorf("slack/l: %w", budget(sched.ReasonDeadline)), "deadline", "deadline"},
		{"infeasible", failed, &sched.InfeasibleError{Loop: "l", Policy: "slack", MII: 2, MaxII: 1}, "infeasible", "infeasible"},
		{"generic", nil, errors.New("boom"), "error", "error"},
		{"panic", nil, Recovered("server", "l", "boom"), "error", "panic"},
		{"degraded", degraded, nil, "ok", "degraded"},
	} {
		if got := sched.Outcome(tc.err); got != tc.sched {
			t.Errorf("%s: sched.Outcome = %q, want %q", tc.name, got, tc.sched)
		}
		if got := Outcome(tc.c, tc.err); got != tc.core {
			t.Errorf("%s: core.Outcome = %q, want %q", tc.name, got, tc.core)
		}
	}
	// Each barrier keeps its own message prefix.
	for barrier, want := range map[string]string{
		"bench":  "bench: index 3: panic: boom",
		"server": "server: index 3: panic: boom",
	} {
		pe := Recovered(barrier, "index 3", "boom")
		if pe.Error() != want || len(pe.Stack) == 0 {
			t.Errorf("%s: %q with %d stack bytes, want %q and a stack", barrier, pe.Error(), len(pe.Stack), want)
		}
	}
}
