package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/mii"
	"repro/internal/mindist"
	"repro/internal/mrt"
	"repro/internal/obs"
)

// Policy supplies the heuristic decisions of the central loop.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// BeginAttempt runs once per II attempt, after bounds initialization;
	// policies compute per-attempt data (e.g. static priorities) here.
	BeginAttempt(st *State)
	// ChooseOp picks the next unplaced index to place (an op id, or
	// st.StopIndex() for the Stop pseudo-op).
	ChooseOp(st *State) int
	// ScanEarly reports whether x's issue-cycle search should run from
	// Estart toward Lstart (true) or from Lstart toward Estart (false).
	ScanEarly(st *State, x int) bool
}

// Config tunes the framework. The zero value gives the paper's settings.
type Config struct {
	// IncrementByOne retries failed loops at II+1 instead of the paper's
	// II + max(⌊0.04·II⌋, 1) (Section 4.2, footnote 6 ablation).
	IncrementByOne bool
	// MaxII caps the search; 0 derives a generous bound from the loop.
	MaxII int
	// StartII overrides the initial II (default: the loop's MII).
	StartII int
	// Budget bounds the work of one Schedule call (wall clock, central
	// iterations, II attempts); the zero value is unlimited. On
	// exhaustion Schedule returns a *BudgetError.
	Budget Budget
	// Observer, when non-nil, receives the typed event stream of the
	// run (EvAttemptStart, EvPlace, EvForce, EvEject, EvRestart,
	// EvAttemptEnd); see Observer and TextObserver. Stats and the
	// trace's spans are kept whether or not one is set.
	Observer Observer
	// Arena supplies the pooled per-compile scratch. Nil (the default)
	// makes each Schedule call acquire its own arena from the
	// process-wide pool and release it on every exit path. A caller
	// that sets Arena owns its lifecycle: core.CompileInto acquires one
	// arena per compilation so the scheduler, the degrade fallback, and
	// the pressure measurements share scratch; Arena: NewArena() runs a
	// compile on virgin memory through the same code path.
	Arena *Arena

	// noIncremental recomputes Estart/Lstart from scratch at every step
	// instead of maintaining them incrementally (Section 4.4): the
	// reference the differential tests hold the incremental bounds to.
	noIncremental bool
	// tinyEject cuts the ejection budget to one per op, floor 1, so
	// tests can make a loop backtrack, restart and give up.
	tinyEject bool
}

// The per-attempt ejection budget ("operations ejected too many times",
// step 6) is ejectBudgetPerOp·|ops|, at least minEjectBudget.
const (
	ejectBudgetPerOp = 16
	minEjectBudget   = 64
)

// Stats instruments one Schedule call with the Section 6 counters.
type Stats struct {
	IIAttempts   int           // values of II tried
	CentralIters int64         // iterations of the central loop
	Placements   int64         // operations placed (including re-placements)
	Forces       int64         // step-3 invocations (no conflict-free slot)
	Ejections    int64         // operations ejected from partial schedules
	Restarts     int64         // step-6 invocations (budget exhausted)
	Elapsed      time.Duration // wall-clock scheduling time
}

// Backtracked reports whether the loop needed any backtracking.
func (s Stats) Backtracked() bool { return s.Forces > 0 || s.Restarts > 0 }

// Result reports one scheduling run.
type Result struct {
	Loop     *ir.Loop
	Policy   string
	Bounds   mii.Bounds
	Schedule *ir.Schedule   // nil if the scheduler gave up
	MinDist  *mindist.Table // at the final (or last attempted) II
	Stats    Stats
	FailedII int // last II attempted when Schedule is nil

	// The buffers ScheduleInto recycles, kept across a run that leaves
	// Schedule or MinDist nil so a failure does not cost the next run.
	spareSched *ir.Schedule
	spareMD    *mindist.Table
}

// OK reports whether a feasible schedule was found.
func (r *Result) OK() bool { return r.Schedule != nil }

// II returns the achieved II, or the last attempted II on failure (the
// convention of the paper's Table 4 for Cydrome's 14 failures).
func (r *Result) II() int {
	if r.Schedule != nil {
		return r.Schedule.II
	}
	return r.FailedII
}

// Scheduler runs the II search of Section 4.2 around one per-II
// attempt: the operation-driven central loop under a Policy, or, for
// List, the no-backtracking list pass.
type Scheduler struct {
	policy Policy // nil for the list scheduler
	cfg    Config
}

// New returns a scheduler with the given policy and configuration.
func New(policy Policy, cfg Config) *Scheduler {
	return &Scheduler{policy: policy, cfg: cfg}
}

// name identifies the scheduler in results, events and errors.
func (s *Scheduler) name() string {
	if s.policy == nil {
		return "list"
	}
	return s.policy.Name()
}

// Schedule modulo schedules the loop: it tries II = MII first and,
// when the heuristics give up, retries at increased II until success or
// the II ceiling (Section 4.2). The context and
// Config.Budget are checked at every II-attempt boundary and every few
// hundred central-loop iterations, so a hostile loop cannot hang the
// caller.
//
// On success the error is nil. On failure the returned *Result is
// still non-nil and carries the partial evidence (bounds, last II
// attempted, effort counters), and the error is:
//
//   - a *InfeasibleError (errors.Is ErrInfeasible) when the II ceiling
//     was exhausted;
//   - a *BudgetError (errors.Is ErrBudgetExhausted; also the context
//     error when canceled) when the budget or context ran out.
func (s *Scheduler) Schedule(ctx context.Context, l *ir.Loop) (*Result, error) {
	res := &Result{}
	err := s.ScheduleInto(ctx, l, res)
	if res.Loop == nil {
		// Preflight failed before the result was populated.
		return nil, err
	}
	return res, err
}

// ScheduleInto is Schedule writing into a caller-owned Result:
// dst's previous contents are destroyed, but its Schedule.Time slice
// and MinDist backing array are reused when large enough, so a caller
// recycling one Result across compilations allocates nothing here in
// steady state (core.CompileInto's contract). On preflight failure
// (unfinalized loop, MII computation error) dst is zeroed and the
// error returned; otherwise dst carries exactly what Schedule's
// Result would, with the same typed errors.
func (s *Scheduler) ScheduleInto(ctx context.Context, l *ir.Loop, dst *Result) error {
	prevSched, prevMD := dst.Schedule, dst.MinDist
	if prevSched == nil {
		prevSched = dst.spareSched
	}
	if prevMD == nil {
		prevMD = dst.spareMD
	}
	*dst = Result{spareSched: prevSched, spareMD: prevMD}
	if !l.Finalized() {
		return fmt.Errorf("sched: loop %s not finalized", l.Name)
	}
	started := time.Now()
	tr := obs.FromContext(ctx)
	bounds, err := mii.Compute(ctx, l)
	if err != nil {
		return fmt.Errorf("sched: loop %s: %w", l.Name, err)
	}
	res := dst
	name := s.name()
	*res = Result{Loop: l, Policy: name, Bounds: bounds, spareSched: prevSched, spareMD: prevMD}

	ii := bounds.MII
	if s.cfg.StartII > ii {
		ii = s.cfg.StartII
	}
	maxII := s.cfg.MaxII
	if maxII == 0 {
		maxII = s.autoMaxII(l, bounds)
	}

	guard := NewGuard(ctx, s.cfg.Budget)

	// Pooled scratch: everything per-attempt lives in the arena. When
	// the caller did not supply one, acquire here and release on every
	// exit path — including panics unwinding through this frame (the
	// arena is fully re-initialized on reuse, so a panic cannot leak
	// partial state into the next compile).
	a := s.cfg.Arena
	if a == nil {
		a = AcquireArena()
		defer a.Release()
	}
	// MinDist tables alias arena storage that the next compile
	// overwrites, so the table escaping through res.MinDist is cloned at
	// exit (LIFO: this defer runs before the arena release above).
	defer func() {
		if res.MinDist != nil {
			res.MinDist = res.MinDist.CloneInto(prevMD)
		}
	}()
	sink := s.cfg.Observer

	// One MinDist table in the arena, recomputed in place at each II, so
	// res.MinDist always holds the table at the final (achieved or last
	// attempted) II. Under a budget the computation polls the guard, so
	// a deadline bounds even the O(n³) Floyd–Warshall.
	stop := guard.stop()
	for ii <= maxII {
		if reason := guard.AttemptExceeded(&res.Stats); reason != "" {
			res.Stats.Elapsed = time.Since(started)
			return s.budgetError(ctx, l, reason, bounds, ii, res.Stats)
		}
		res.Stats.IIAttempts++
		sp := tr.Start("mindist").Int("ii", int64(ii))
		if err := mindist.ComputeInto(l, ii, &a.md, stop); err != nil {
			if errors.Is(err, mindist.ErrStopped) {
				sp.End(obs.OutcomeBudgetExhausted)
				reason := guard.Exceeded(&res.Stats)
				if reason == "" {
					reason = ReasonDeadline
				}
				res.Stats.Elapsed = time.Since(started)
				return s.budgetError(ctx, l, reason, bounds, ii, res.Stats)
			}
			// II below RecMII (possible only with StartII misuse): step up.
			sp.End(obs.OutcomeInfeasible)
			res.FailedII = ii
			ii = s.nextII(ii)
			continue
		}
		sp.End(obs.OutcomeOK)
		md := &a.md
		res.MinDist = md
		sp = tr.Start("attempt").Int("ii", int64(ii)).Str("policy", name)
		iters := res.Stats.CentralIters
		evt := Event{Loop: l.Name, Policy: name, II: ii, Op: -1}
		if sink != nil {
			e := evt
			e.Kind = EvAttemptStart
			sink.Event(e)
		}
		var (
			table     *mrt.Table
			ok        bool
			reason    string
			ejections int
		)
		if s.policy == nil {
			table, ok, reason = listAttempt(l, ii, md, a, &res.Stats, &guard, sink, evt)
		} else {
			st := a.newState(l, ii, md)
			st.noIncremental = s.cfg.noIncremental
			st.obs, st.evt = sink, evt
			ok, reason = s.attempt(st, &res.Stats, &guard, sink)
			table, ejections = st.mrt, st.ejections
		}
		outcome := AttemptOutcomeOf(ok, reason)
		sp.Int("iters", res.Stats.CentralIters-iters).Int("ejections", int64(ejections)).End(outcome.String())
		if sink != nil {
			e := evt
			e.Kind = EvAttemptEnd
			e.OK = ok
			e.Outcome = outcome
			e.Ejections = ejections
			sink.Event(e)
		}
		if reason != "" {
			res.FailedII = ii
			res.Stats.Elapsed = time.Since(started)
			return s.budgetError(ctx, l, reason, bounds, ii, res.Stats)
		}
		if ok {
			res.Schedule = table.ScheduleInto(prevSched)
			res.Stats.Elapsed = time.Since(started)
			return nil
		}
		res.FailedII = ii
		if sink != nil {
			e := evt
			e.Kind = EvRestart
			e.Ejections = ejections
			sink.Event(e)
		}
		ii = s.nextII(ii)
	}
	res.Stats.Elapsed = time.Since(started)
	return &InfeasibleError{
		Loop:   l.Name,
		Policy: name,
		MII:    bounds.MII,
		MaxII:  maxII,
		LastII: res.FailedII,
		Stats:  res.Stats,
	}
}

// budgetError builds the typed exhaustion error for the current state
// of the search.
func (s *Scheduler) budgetError(ctx context.Context, l *ir.Loop, reason string, b mii.Bounds, ii int, stats Stats) *BudgetError {
	e := &BudgetError{
		Loop:   l.Name,
		Policy: s.name(),
		Reason: reason,
		MII:    b.MII,
		LastII: ii,
		Stats:  stats,
	}
	if reason == ReasonCanceled {
		e.Cause = ctx.Err()
	}
	return e
}

// nextII implements the II increment policy of Section 4.2: by
// max(⌊0.04·II⌋, 1) to avoid excessive compile time on large loops, or
// by 1 under the footnote-6 ablation.
func (s *Scheduler) nextII(ii int) int {
	if s.cfg.IncrementByOne {
		return ii + 1
	}
	step := ii * 4 / 100
	if step < 1 {
		step = 1
	}
	return ii + step
}

// autoMaxII returns a ceiling at which scheduling is essentially
// unconstrained: at twice the total busy cycles every op can claim its
// own reservation window with room to spare.
func (s *Scheduler) autoMaxII(l *ir.Loop, b mii.Bounds) int {
	sum := 0
	for _, op := range l.Ops {
		sum += l.Mach.Info(op.Opcode).Busy
	}
	max := 2 * (sum + 16)
	if cp := 2*b.MII + 16; cp > max {
		max = cp
	}
	return max
}

// attempt runs the central loop (Section 4.2) at one II. It returns
// ok=true on a complete schedule and ok=false, counting a restart, when
// the ejection budget is exhausted (step 6) or, defensively, when the
// iteration cap trips;
// a non-empty stopReason aborts the attempt because the caller's
// Budget or context ran out.
func (s *Scheduler) attempt(st *State, stats *Stats, g *Guard, sink Observer) (ok bool, stopReason string) {
	budget := max(st.n*ejectBudgetPerOp, minEjectBudget)
	if s.cfg.tinyEject {
		budget = max(st.n, 1)
	}
	iterCap := 4*(st.n+budget) + 256

	s.policy.BeginAttempt(st)
	defer func() {
		stats.Ejections += int64(st.ejections)
		if !ok && stopReason == "" {
			stats.Restarts++ // step 6
		}
	}()
	for iter := 0; ; iter++ {
		if st.allPlaced() {
			return true, ""
		}
		if iter > iterCap || st.ejections > budget {
			return false, ""
		}
		if g.active && iter%budgetCheckStride == 0 {
			if reason := g.Exceeded(stats); reason != "" {
				return false, reason
			}
		}
		stats.CentralIters++

		// Step 1: choose a good operation (policy).
		x := s.policy.ChooseOp(st)
		if x < 0 || x > st.n || st.Placed(x) {
			panic(fmt.Sprintf("sched: policy %s chose invalid index %d", s.policy.Name(), x))
		}

		// Step 2: search for a conflict-free issue cycle within the
		// bounds; the modulo constraint means at most II consecutive
		// cycles need scanning (Section 5.2). The window anchors at the
		// end the scan starts from: [Estart, Estart+II) scanning early,
		// [Lstart−II+1, Lstart] scanning late — otherwise a "late"
		// placement would still be confined near Estart.
		cycle := ir.Unplaced
		lo := st.estart[x]
		hi := st.lstart[x]
		if lo <= hi {
			if s.policy.ScanEarly(st, x) {
				if hi > lo+st.II-1 {
					hi = lo + st.II - 1
				}
				for c := lo; c <= hi; c++ {
					if st.free(x, c) {
						cycle = c
						break
					}
				}
			} else {
				if lo < hi-st.II+1 {
					lo = hi - st.II + 1
				}
				for c := hi; c >= lo; c-- {
					if st.free(x, c) {
						cycle = c
						break
					}
				}
			}
		}

		if sink != nil {
			e := st.evt
			e.Kind = EvPlace
			e.Iter = iter
			e.Op = x
			e.Estart = st.estart[x]
			e.Lstart = st.lstart[x]
			e.Cycle = cycle
			sink.Event(e)
		}
		if cycle == ir.Unplaced {
			// Step 3: create room by ejection. Force the op into
			// max(Estart, 1 + its last placement) — successively later
			// cycles avoid livelock — ejecting every conflicting op,
			// except that brtop is never ejected (Section 4.4).
			stats.Forces++
			c := st.estart[x]
			if lp := st.lastPlace[x]; lp != ir.Unplaced && lp+1 > c {
				c = lp + 1
			}
			forced := false
			for tries := 0; tries < 4*st.II+4; tries++ {
				if s.forceAt(st, x, c) {
					cycle = c
					forced = true
					break
				}
				c++ // a victim was brtop: search successive cycles
			}
			if !forced {
				return false, "" // cannot avoid ejecting brtop: give up this II
			}
			if sink != nil {
				e := st.evt
				e.Kind = EvForce
				e.Iter = iter
				e.Op = x
				e.Cycle = cycle
				e.Ejections = st.ejections
				sink.Event(e)
			}
			st.place(x, cycle)
		} else {
			// Step 4: place the operation and update the resource table.
			st.place(x, cycle)
		}
		stats.Placements++

		// Step 5: refresh Estart/Lstart for unplaced ops — incrementally
		// after a clean placement, from scratch after ejections or a
		// Stop-anchor move (Section 4.4).
		st.refreshBounds(x)
	}
}

// forceAt ejects everything conflicting with x at cycle c and reports
// whether ejection was permissible (false if a victim is brtop, which
// cannot move because its placement determines the schedule's II).
func (s *Scheduler) forceAt(st *State, x, c int) bool {
	victims := st.victimBuf[:0]
	for _, id := range st.resourceVictims(x, c) {
		if int(id) == x {
			return false // op cannot fit at any cycle (busy > II)
		}
		victims = append(victims, int(id))
	}
	if c > st.lstart[x] {
		victims = append(victims, st.depVictims(x, c)...)
	}
	st.victimBuf = victims
	for _, y := range victims {
		if y == st.brtop {
			return false
		}
	}
	seen := st.scratch // all-false between calls
	for _, y := range victims {
		if !seen[y] && st.Placed(y) {
			seen[y] = true
			st.eject(y)
		}
	}
	for _, y := range victims {
		seen[y] = false
	}
	return true
}
