package sched

import (
	"context"
	"time"
)

// Budget bounds the work one Schedule call may perform. The zero value
// is unlimited — the hot path then skips every check. A hostile loop
// (ejection storm, II escalation on a RecMII-hard recurrence) can
// therefore never hang a caller that sets any bound: the engine checks
// the budget at every II-attempt boundary and every budgetCheckStride
// iterations of the central loop, and on exhaustion returns a
// *BudgetError carrying the partial evidence gathered so far.
type Budget struct {
	// Deadline caps the wall-clock time of one Schedule call, measured
	// from its entry. 0 means unlimited.
	Deadline time.Duration
	// MaxCentralIters caps the central-loop iterations summed across
	// all II attempts. 0 means unlimited.
	MaxCentralIters int64
	// MaxIIAttempts caps how many II values are tried. 0 means
	// unlimited (the ceiling is then Config.MaxII or its derived
	// default).
	MaxIIAttempts int
}

// Limited reports whether any bound is set.
func (b Budget) Limited() bool {
	return b.Deadline > 0 || b.MaxCentralIters > 0 || b.MaxIIAttempts > 0
}

// budgetCheckStride is the central-loop iteration interval between
// deadline/cancellation polls: coarse enough that time.Now stays off
// the per-placement path, fine enough that one attempt can overshoot
// its deadline by at most a few hundred cheap iterations.
const budgetCheckStride = 256

// The exhaustion reasons reported in BudgetError.Reason.
const (
	ReasonDeadline     = "deadline"
	ReasonCentralIters = "central-iterations"
	ReasonIIAttempts   = "ii-attempts"
	ReasonCanceled     = "canceled"
)

// Guard is one call's budget state: the sched engine's, and the exact
// backend's around its branch-and-bound. active is false for
// unbudgeted, uncancellable calls, which then pay one branch per stride
// and nothing else.
type Guard struct {
	ctx      context.Context
	budget   Budget
	deadline time.Time // zero when no wall-clock bound applies
	active   bool
}

// NewGuard starts b's wall clock now; ctx's deadline, if earlier, wins.
func NewGuard(ctx context.Context, b Budget) Guard {
	g := Guard{ctx: ctx, budget: b}
	if b.Deadline > 0 {
		g.deadline = time.Now().Add(b.Deadline)
	}
	if d, ok := ctx.Deadline(); ok && (g.deadline.IsZero() || d.Before(g.deadline)) {
		g.deadline = d
	}
	g.active = b.Limited() || ctx.Done() != nil || !g.deadline.IsZero()
	return g
}

// Exceeded reports why the budget is exhausted ("" if it is not),
// checking cancellation, the wall clock, and the central-iteration cap.
func (g *Guard) Exceeded(stats *Stats) string {
	if !g.active {
		return ""
	}
	if g.ctx.Err() != nil {
		return ReasonCanceled
	}
	if !g.deadline.IsZero() && !time.Now().Before(g.deadline) {
		return ReasonDeadline
	}
	if g.budget.MaxCentralIters > 0 && stats.CentralIters >= g.budget.MaxCentralIters {
		return ReasonCentralIters
	}
	return ""
}

// AttemptExceeded runs the boundary check before an II attempt: the
// attempt cap (stats.IIAttempts is the number already finished), then
// Exceeded.
func (g *Guard) AttemptExceeded(stats *Stats) string {
	if !g.active {
		return ""
	}
	if g.budget.MaxIIAttempts > 0 && stats.IIAttempts >= g.budget.MaxIIAttempts {
		return ReasonIIAttempts
	}
	return g.Exceeded(stats)
}

// stop returns a poll function for long analyses (mindist.ComputeInto),
// or nil when the guard is inactive.
func (g *Guard) stop() func() bool {
	if !g.active {
		return nil
	}
	return func() bool { return g.Exceeded(&Stats{}) != "" }
}
