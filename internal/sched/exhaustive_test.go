// Exhaustive reference searchers. FindAtII answers "does any schedule
// exist at this II within the horizon"; BestAtII answers "what is the
// minimum MaxLive over every such schedule". Together they form the
// differential oracle for the exact backend (internal/exact): both
// explore the same space — issue cycles in [0, horizon), MinDist
// windows, MRT conflicts — but with deliberately naive machinery (full
// window rescans, from-scratch pressure bounds at every node), so a
// bug in the exact scheduler's incremental state is caught by
// disagreement rather than replicated.
package sched

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/machine"
	"repro/internal/mindist"
	"repro/internal/mrt"
	"repro/internal/schedcheck"
)

// FindAtII searches exhaustively for any feasible schedule of the loop
// at exactly the given II, with all issue cycles inside [0, horizon).
// It is intended for small loops (≲ 12 operations): the search is a
// depth-first enumeration over op placements with Estart/Lstart-style
// pruning against already-placed ops and the modulo reservation table.
//
// A nil schedule means no feasible schedule exists *within the horizon*;
// the paper observes that "for some loops, the minimum feasible II is
// more than MII", and this searcher lets the test suite and the
// benchmark harness separate those loops from heuristic misses. A
// horizon of the critical path plus a few II is generous in practice —
// loops needing longer schedules exist (divider tilings shift whole
// stages), so callers pass the horizon explicitly and treat nil as
// "infeasible within horizon".
func FindAtII(l *ir.Loop, ii, horizon, maxNodes int) (*ir.Schedule, error) {
	if !l.Finalized() {
		return nil, fmt.Errorf("sched: loop %s not finalized", l.Name)
	}
	md, err := mindist.Compute(l, ii)
	if err != nil {
		return nil, nil // II below RecMII: trivially infeasible
	}
	n := len(l.Ops)
	if horizon < 1 {
		horizon = md.CriticalPath() + 3*ii + 1
	}
	table := mrt.New(l, ii)
	times := make([]int, n)
	for i := range times {
		times[i] = ir.Unplaced
	}

	// Order ops by ascending initial window size: most-constrained first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	window := func(x int) int {
		lo := 0
		if d := md.Dist(md.Start(), x); d != mindist.NoPath {
			lo = d
		}
		return horizon - lo
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && window(order[j]) < window(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	nodes := 0
	var dfs func(k int) bool
	dfs = func(k int) bool {
		if k == n {
			return true
		}
		if nodes++; maxNodes > 0 && nodes > maxNodes {
			return false
		}
		x := order[k]
		lo := 0
		if d := md.Dist(md.Start(), x); d != mindist.NoPath {
			lo = d
		}
		hi := horizon - 1
		for y := 0; y < n; y++ {
			if times[y] == ir.Unplaced {
				continue
			}
			if d := md.Dist(y, x); d != mindist.NoPath && times[y]+d > lo {
				lo = times[y] + d
			}
			if d := md.Dist(x, y); d != mindist.NoPath && times[y]-d < hi {
				hi = times[y] - d
			}
		}
		for c := lo; c <= hi; c++ {
			if !table.Free(l.Ops[x], c) {
				continue
			}
			table.Place(l.Ops[x], c)
			times[x] = c
			if dfs(k + 1) {
				return true
			}
			table.Eject(l.Ops[x])
			times[x] = ir.Unplaced
		}
		return false
	}
	if !dfs(0) {
		return nil, nil
	}
	s := ir.NewSchedule(ii, n)
	copy(s.Time, times)
	return s, nil
}

// BestAtII exhaustively minimizes RR-file MaxLive over every feasible
// schedule of the loop at exactly the given II, with all issue cycles
// inside [0, horizon) (horizon < 1 derives the FindAtII default). It is
// the second half of the differential oracle: FindAtII decides
// feasibility, BestAtII decides the lexicographic second key.
//
// The search is a branch-and-bound enumeration whose only pressure
// pruning is the averaging bound recomputed naively from scratch at
// every node: MaxLive ≥ ⌈Σ_v max(MinLT(v), placed-span(v)) / II⌉, with
// each placed-span rescanned over the whole operation list. That keeps
// the oracle slow but structurally independent of the exact backend's
// incremental value-state machinery.
//
// A nil schedule means no feasible schedule exists within the horizon.
// complete reports that the enumeration finished (or provably reached
// the static floor) within maxNodes; when it is false the returned
// minimum is only an upper bound and callers must not treat it as the
// oracle verdict.
func BestAtII(l *ir.Loop, ii, horizon, maxNodes int) (best *ir.Schedule, maxLive int, complete bool, err error) {
	if !l.Finalized() {
		return nil, 0, false, fmt.Errorf("sched: loop %s not finalized", l.Name)
	}
	md, err := mindist.Compute(l, ii)
	if err != nil {
		return nil, 0, true, nil // II below RecMII: trivially infeasible
	}
	n := len(l.Ops)
	if horizon < 1 {
		horizon = md.CriticalPath() + 3*ii + 1
	}
	// The schedule-independent per-value floors, and the static averaging
	// floor no schedule at this II can beat.
	minLT := make(map[ir.ValueID]int)
	ltSum := 0
	for _, v := range l.Values {
		if v.File != ir.RR || !v.IsVariant() {
			continue
		}
		lt := mindist.MinLT(l, md, v.ID)
		minLT[v.ID] = lt
		ltSum += lt
	}
	floor := (ltSum + ii - 1) / ii

	// partialLB recomputes the averaging bound from scratch: for every
	// RR value, the larger of its static floor and the span its placed
	// defs/uses already pin down. Sound because a final schedule can only
	// move a value's earliest def earlier (more defs placed) and its
	// latest use later (more uses placed).
	partialLB := func(times []int) int {
		sum := 0
		for _, v := range l.Values {
			if v.File != ir.RR || !v.IsVariant() {
				continue
			}
			cur := minLT[v.ID]
			start := -1
			for _, d := range v.Defs {
				if t := times[d]; t != ir.Unplaced && (start == -1 || t < start) {
					start = t
				}
			}
			if start >= 0 {
				end := -1
				for _, op := range l.Ops {
					t := times[op.ID]
					if t == ir.Unplaced {
						continue
					}
					for _, rd := range op.Args {
						if rd.Val == v.ID {
							if u := t + rd.Omega*ii; u > end {
								end = u
							}
						}
					}
					if rd := op.Pred; rd != nil && rd.Val == v.ID {
						if u := t + rd.Omega*ii; u > end {
							end = u
						}
					}
				}
				if end >= 0 && end-start > cur {
					cur = end - start
				}
			}
			sum += cur
		}
		return (sum + ii - 1) / ii
	}

	table := mrt.New(l, ii)
	times := make([]int, n)
	for i := range times {
		times[i] = ir.Unplaced
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	window := func(x int) int {
		lo := 0
		if d := md.Dist(md.Start(), x); d != mindist.NoPath {
			lo = d
		}
		return horizon - lo
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && window(order[j]) < window(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	bound := int(^uint(0) >> 1) // strict upper bound: seeking MaxLive < bound
	var bestTimes []int
	leaf := ir.NewSchedule(ii, n)
	nodes, capped, atFloor := 0, false, false
	var dfs func(k int)
	dfs = func(k int) {
		if capped || atFloor {
			return
		}
		// Leaves count as nodes too: each one runs a full lifetime
		// measurement, so an interior-only cap would leave the dominant
		// cost unbounded.
		if nodes++; maxNodes > 0 && nodes > maxNodes {
			capped = true
			return
		}
		if k == n {
			copy(leaf.Time, times)
			if ml := lifetime.Measure(l, leaf, ir.RR).MaxLive; ml < bound {
				bound = ml
				if bestTimes == nil {
					bestTimes = make([]int, n)
				}
				copy(bestTimes, times)
				if bound <= floor {
					atFloor = true // provably optimal: no schedule beats the static floor
				}
			}
			return
		}
		x := order[k]
		lo := 0
		if d := md.Dist(md.Start(), x); d != mindist.NoPath {
			lo = d
		}
		hi := horizon - 1
		for y := 0; y < n; y++ {
			if times[y] == ir.Unplaced {
				continue
			}
			if d := md.Dist(y, x); d != mindist.NoPath && times[y]+d > lo {
				lo = times[y] + d
			}
			if d := md.Dist(x, y); d != mindist.NoPath && times[y]-d < hi {
				hi = times[y] - d
			}
		}
		for c := lo; c <= hi; c++ {
			if !table.Free(l.Ops[x], c) {
				continue
			}
			table.Place(l.Ops[x], c)
			times[x] = c
			if partialLB(times) < bound {
				dfs(k + 1)
			}
			table.Eject(l.Ops[x])
			times[x] = ir.Unplaced
			if capped || atFloor {
				return
			}
		}
	}
	dfs(0)
	if bestTimes == nil {
		return nil, 0, !capped, nil
	}
	s := ir.NewSchedule(ii, n)
	copy(s.Time, bestTimes)
	return s, bound, !capped || atFloor, nil
}

// The exhaustive searcher must find MII schedules for the fixtures the
// slack scheduler handles, and its output must be legal.
func TestExhaustiveFindsFixtureSchedules(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		if len(l.Ops) > 12 {
			continue
		}
		res, err := Slack(Config{}).Schedule(context.Background(), l)
		if err != nil || !res.OK() {
			t.Fatalf("%s: slack failed", l.Name)
		}
		s, err := FindAtII(l, res.Bounds.MII, 0, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if s == nil {
			t.Errorf("%s: exhaustive search found nothing at MII %d though slack did", l.Name, res.Bounds.MII)
			continue
		}
		if vs := schedcheck.Check(l, s); vs != nil {
			t.Fatalf("illegal schedule: %v", vs)
		}
	}
}

// Genuinely infeasible MII: a divider-saturated chain whose dependence
// spacing cannot tile the divider at MII within any horizon this short —
// the paper's "for some loops, the minimum feasible II is more than MII"
// (Section 3.1), witnessed by exhaustive search rather than asserted.
func TestExhaustiveConfirmsInfeasibleMII(t *testing.T) {
	m := machine.Cydra()
	l := ir.NewLoop("inf", m)
	a := l.NewValue("a", ir.RR, ir.Float)
	b := l.NewValue("b", ir.RR, ir.Float)
	c := l.NewValue("c", ir.RR, ir.Float)
	// Three divider ops with a latency-and-a-bit chain between the 2nd
	// and 3rd: div(17) → sqrt(21) → fadd(1) → div(17). ResMII = 55; the
	// exact tiling needs t_div2 ≡ t_sqrt+21 (mod 55) while dependences
	// force t_div2 ≥ t_sqrt+22, so II = 55 requires t_div2 = t_sqrt+76 —
	// and the 1-cycle fadd then misses every alignment (cf. lll22).
	l.NewOp(machine.FDiv, []ir.Operand{{Val: c.ID, Omega: 1}, {Val: c.ID, Omega: 1}}, a.ID)
	l.NewOp(machine.FSqrt, []ir.Operand{{Val: a.ID}}, b.ID)
	one := l.Const("one", ir.Float, ir.FloatS(1))
	mid := l.NewValue("mid", ir.RR, ir.Float)
	l.NewOp(machine.FAdd, []ir.Operand{{Val: b.ID}, {Val: one.ID}}, mid.ID)
	l.NewOp(machine.FDiv, []ir.Operand{{Val: mid.ID}, {Val: one.ID}}, c.ID)
	l.MustFinalize()

	// MII = 55 (3 divider reservations of 17+21+17).
	s55, err := FindAtII(l, 55, 400, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if s55 != nil {
		// The recurrence c (ω=1) through the whole chain actually forces
		// RecMII = 56 > 55, so a 55-cycle schedule would be a bug.
		t.Fatalf("II=55 should be infeasible, found:\n%s", s55)
	}
	res, err := Slack(Config{}).Schedule(context.Background(), l)
	if err != nil || !res.OK() {
		t.Fatal("slack failed entirely")
	}
	if res.Schedule.II <= 55 {
		t.Fatalf("slack achieved II=%d below the infeasibility witness", res.Schedule.II)
	}
	// And the exhaustive search agrees something at slack's II exists.
	s2, err := FindAtII(l, res.Schedule.II, 0, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == nil {
		t.Errorf("exhaustive search could not confirm feasibility at II=%d", res.Schedule.II)
	}
}

// On random tiny loops: wherever exhaustive search proves MII feasible,
// the slack scheduler should almost always achieve it (the paper: 96%).
func TestSlackNearOptimalOnTinyLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	codes := []machine.Opcode{machine.FAdd, machine.FMul, machine.Load, machine.FSub}
	feasible, matched := 0, 0
	for trial := 0; trial < 120; trial++ {
		m := machine.Cydra()
		l := ir.NewLoop(fmt.Sprintf("tiny%d", trial), m)
		n := 3 + rng.Intn(6)
		vals := make([]*ir.Value, n)
		for i := range vals {
			vals[i] = l.NewValue(fmt.Sprintf("v%d", i), ir.RR, ir.Float)
		}
		for i := 0; i < n; i++ {
			var args []ir.Operand
			if i > 0 {
				args = append(args, ir.Operand{Val: vals[rng.Intn(i)].ID})
			} else {
				args = append(args, ir.Operand{Val: vals[n-1].ID, Omega: 1})
			}
			if rng.Intn(2) == 0 {
				j := rng.Intn(n)
				w := 0
				if j >= i {
					w = 1 + rng.Intn(2)
				}
				args = append(args, ir.Operand{Val: vals[j].ID, Omega: w})
			} else {
				args = append(args, args[0])
			}
			code := codes[rng.Intn(len(codes))]
			if code == machine.Load {
				args = args[:1]
			}
			l.NewOp(code, args, vals[i].ID)
		}
		l.MustFinalize()

		res, err := Slack(Config{}).Schedule(context.Background(), l)
		if err != nil || !res.OK() {
			t.Fatalf("trial %d: slack failed", trial)
		}
		opt, err := FindAtII(l, res.Bounds.MII, 0, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if opt == nil {
			continue
		}
		if vs := schedcheck.Check(l, opt); vs != nil {
			t.Fatalf("illegal schedule: %v", vs)
		}
		feasible++
		if res.Schedule.II == res.Bounds.MII {
			matched++
		}
	}
	if feasible < 60 {
		t.Fatalf("too few exhaustively-feasible trials: %d", feasible)
	}
	if pct := 100 * float64(matched) / float64(feasible); pct < 95 {
		t.Errorf("slack matched a provably-feasible MII on only %.1f%% of tiny loops", pct)
	}
}
