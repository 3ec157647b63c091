package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ir"
	"repro/internal/mii"
	"repro/internal/mindist"
	"repro/internal/mrt"
	"repro/internal/obs"
)

// ListSchedule is a classic list scheduler adapted to the modulo
// constraint, with no backtracking: operations are placed in decreasing
// height order (longest dependence path to Stop), each as early as
// possible; if an operation has no feasible slot the whole attempt fails
// and II increases by one.
//
// It exists as the pedagogical baseline of Section 4: placing an
// operation commits resources at every cycle t + k·II, so an op that
// does not fit now may fit nowhere later, and "a list-scheduling compiler
// is not likely to find a feasible schedule at MII when recurrence
// circuits are present." The benchmark harness quantifies exactly that —
// and it is also the graceful-degradation fallback core.CompileInto uses
// when a budgeted run of a backtracking scheduler exhausts its budget,
// which is why it shares the context, Budget, typed-error, and Observer
// contracts of Scheduler.Schedule.
func ListSchedule(ctx context.Context, l *ir.Loop, cfg Config) (*Result, error) {
	res := &Result{}
	err := ListScheduleInto(ctx, l, cfg, res)
	if res.Loop == nil {
		return nil, err
	}
	return res, err
}

// ListScheduleInto is ListSchedule writing into a caller-owned
// Result, with the same buffer-reuse contract as
// Scheduler.ScheduleInto: dst's previous contents are destroyed, its
// Schedule and MinDist backing storage are recycled, and on preflight
// failure dst is zeroed.
func ListScheduleInto(ctx context.Context, l *ir.Loop, cfg Config, dst *Result) error {
	prevSched, prevMD := dst.Schedule, dst.MinDist
	*dst = Result{}
	if !l.Finalized() {
		return fmt.Errorf("sched: loop %s not finalized", l.Name)
	}
	cfg = cfg.withDefaults()
	started := time.Now()
	tr := obs.FromContext(ctx)
	bounds, err := mii.ComputeContext(ctx, l)
	if err != nil {
		return fmt.Errorf("sched: loop %s: %w", l.Name, err)
	}
	res := dst
	*res = Result{Loop: l, Policy: "list", Bounds: bounds}

	maxII := cfg.MaxII
	if maxII == 0 {
		maxII = (&Scheduler{cfg: cfg}).autoMaxII(l, bounds)
	}
	n := len(l.Ops)

	guard := newBudgetGuard(ctx, cfg.Budget)
	sink := cfg.Observer
	budgetStop := func(reason string, ii int) error {
		res.Stats.Elapsed = time.Since(started)
		e := &BudgetError{
			Loop: l.Name, Policy: "list", Reason: reason,
			MII: bounds.MII, LastII: ii, Stats: res.Stats,
		}
		if reason == ReasonCanceled {
			e.Cause = ctx.Err()
		}
		return e
	}

	// Pooled scratch: the fallback shares the caller's arena when one is
	// configured (core passes the compile's arena through Config), else
	// acquires its own for this call.
	a := cfg.Arena
	if a == nil {
		a = acquireArena(cfg.NoPool)
		defer a.Release()
	}
	defer func() {
		if !cfg.NoFastPaths && res.MinDist != nil {
			res.MinDist = res.MinDist.CloneInto(prevMD)
		}
	}()

	cache := a.cacheFor(l)
	cache.SetStop(guard.stop())
	cache.SetTrace(tr)
	for ii := bounds.MII; ii <= maxII; ii++ {
		if reason := guard.attemptExceeded(&res.Stats, res.Stats.IIAttempts); reason != "" {
			return budgetStop(reason, ii)
		}
		res.Stats.IIAttempts++
		mdStart := time.Now()
		var md *mindist.Table
		var err error
		if cfg.NoFastPaths {
			md, err = mindist.Compute(l, ii)
		} else {
			md, err = cache.At(ii)
		}
		res.Stats.MinDistTime += time.Since(mdStart)
		if err != nil {
			if errors.Is(err, mindist.ErrStopped) {
				reason := guard.exceeded(&res.Stats)
				if reason == "" {
					reason = ReasonDeadline
				}
				return budgetStop(reason, ii)
			}
			res.FailedII = ii
			continue
		}
		res.MinDist = md

		evt := Event{Loop: l.Name, Policy: "list", II: ii, Op: -1}
		if sink != nil {
			e := evt
			e.Kind = EvAttemptStart
			sink.Event(e)
		}
		caStart := time.Now()
		itersBefore := res.Stats.CentralIters
		spa := tr.Start("attempt").Int("ii", int64(ii)).Str("policy", "list")
		// Height priority: longest path to Stop at this II.
		order, times := a.listScratch(n)
		for i := range order {
			order[i] = i
		}
		height := func(x int) int { return md.Dist(x, md.Stop()) }
		sort.SliceStable(order, func(x, y int) bool {
			ha, hb := height(order[x]), height(order[y])
			if ha != hb {
				return ha > hb
			}
			return order[x] < order[y]
		})

		table := mrt.NewIn(l, ii, a.mrtScratch())
		for i := range times {
			times[i] = ir.Unplaced
		}
		ok := true
		stopReason := ""
		for iter, x := range order {
			if guard.active && iter%budgetCheckStride == 0 {
				if reason := guard.exceeded(&res.Stats); reason != "" {
					stopReason = reason
					break
				}
			}
			res.Stats.CentralIters++
			// Earliest start from already-placed ops (both directions of
			// the MinDist constraint must hold against each).
			lo := 0
			if d := md.Dist(md.Start(), x); d != mindist.NoPath {
				lo = d
			}
			hi := -1
			for y := 0; y < n; y++ {
				if times[y] == ir.Unplaced {
					continue
				}
				if d := md.Dist(y, x); d != mindist.NoPath && times[y]+d > lo {
					lo = times[y] + d
				}
				if d := md.Dist(x, y); d != mindist.NoPath {
					if b := times[y] - d; hi == -1 || b < hi {
						hi = b
					}
				}
			}
			limit := lo + ii - 1
			if hi != -1 && hi < limit {
				limit = hi
			}
			placed := false
			for c := lo; c <= limit; c++ {
				if table.Free(l.Ops[x], c) {
					table.Place(l.Ops[x], c)
					times[x] = c
					res.Stats.Placements++
					placed = true
					break
				}
			}
			if sink != nil {
				e := evt
				e.Kind = EvPlace
				e.Iter = iter
				e.Op = x
				e.Estart = lo
				e.Lstart = limit
				if placed {
					e.Cycle = times[x]
				} else {
					e.Cycle = ir.Unplaced
				}
				sink.Event(e)
			}
			if !placed {
				ok = false
				break
			}
		}
		res.Stats.CentralTime += time.Since(caStart)
		outcome := attemptOutcome(ok && stopReason == "", stopReason)
		spa.Int("iters", res.Stats.CentralIters-itersBefore).End(outcome.String())
		if sink != nil {
			e := evt
			e.Kind = EvAttemptEnd
			e.OK = ok && stopReason == ""
			e.Outcome = outcome
			sink.Event(e)
		}
		if stopReason != "" {
			res.FailedII = ii
			return budgetStop(stopReason, ii)
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
			sink.Event(e)
		}
	}
	res.Stats.Elapsed = time.Since(started)
	return &InfeasibleError{
		Loop:   l.Name,
		Policy: "list",
		MII:    bounds.MII,
		MaxII:  maxII,
		LastII: res.FailedII,
		Stats:  res.Stats,
	}
}
