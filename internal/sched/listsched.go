package sched

import (
	"cmp"
	"slices"

	"repro/internal/ir"
	"repro/internal/mindist"
	"repro/internal/mrt"
)

// List returns a classic list scheduler adapted to the modulo
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
// when a budgeted run of a backtracking scheduler exhausts its budget.
//
// The II search, budget, typed errors and event stream are the
// Scheduler's; only the II policy is list's own: it always starts at
// MII and steps by one, whatever cfg's StartII and IncrementByOne say.
// A failed II counts no Stats.Restarts — there is no step 6 to restart —
// though the event stream still reports it as an EvRestart.
func List(cfg Config) *Scheduler {
	cfg.StartII = 0
	cfg.IncrementByOne = true
	return &Scheduler{cfg: cfg.withDefaults()}
}

// listAttempt is the list scheduler's pass at one II: every op in
// height order at the earliest cycle free of resource conflicts and
// consistent with MinDist to the ops already placed. It returns the
// filled table and ok=true, or ok=false at the first op with no slot; a
// non-empty stopReason aborts the attempt because the budget ran out.
func listAttempt(l *ir.Loop, ii int, md *mindist.Table, a *Arena, stats *Stats, g *Guard, sink Observer, evt Event) (table *mrt.Table, ok bool, stopReason string) {
	n := len(l.Ops)
	order, times := a.listScratch(n)
	for i := range order {
		order[i] = i
	}
	// Height priority: longest path to Stop at this II, ties by op id.
	slices.SortStableFunc(order, func(x, y int) int {
		if c := cmp.Compare(md.Dist(y, md.Stop()), md.Dist(x, md.Stop())); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})

	table = mrt.NewIn(l, ii, &a.mrt)
	for i := range times {
		times[i] = ir.Unplaced
	}
	for iter, x := range order {
		if g.active && iter%budgetCheckStride == 0 {
			if reason := g.Exceeded(stats); reason != "" {
				return table, false, reason
			}
		}
		stats.CentralIters++
		// Earliest start from Start and from already-placed ops
		// (both directions of the MinDist constraint must hold
		// against each).
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
		cycle := ir.Unplaced
		for c := lo; c <= limit; c++ {
			if table.Free(l.Ops[x], c) {
				table.Place(l.Ops[x], c)
				times[x] = c
				cycle = c
				stats.Placements++
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
			e.Cycle = cycle
			sink.Event(e)
		}
		if cycle == ir.Unplaced {
			return table, false, ""
		}
	}
	return table, true, ""
}
