// Package exact implements an exact modulo scheduler: a pure-Go
// branch-and-bound search over the MinDist precedence system and the
// modulo reservation table, minimizing the lexicographic objective
// (II, MaxLive) — first the initiation interval, then the RR-file
// register pressure at that interval (DESIGN.md §5h).
//
// The search is warm-started by the paper's slack scheduler: its
// schedule seeds the incumbent, so the branch-and-bound only has to
// search II values in [MII, slack II] and, at the slack II, schedules
// with strictly lower MaxLive. Consequently the backend is *anytime*:
// whenever the slack seed succeeds, Search returns a feasible result
// even if the budget expires mid-search — the result is then the best
// schedule found so far and Outcome.Proven reports false. Typed errors
// are reserved for runs that produce nothing at all: a
// *sched.BudgetError when the budget or context ran out first, a
// *sched.InfeasibleError when every II up to the ceiling is provably
// infeasible within the search horizon.
//
// Optimality is relative to the same horizon convention as the
// exhaustive oracle (FindAtII / BestAtII in the sched package's
// tests): issue cycles in [0, CriticalPath + 3·II + 1). The
// differential tests there (oracle_test.go) pin (II, MaxLive)
// bit-identity between the two on small loops.
//
// Budgets: Config.Budget.MaxCentralIters caps search nodes (the
// deterministic bound — one node is one branch of the placement tree),
// Deadline and context cancellation are polled every
// nodeCheckStride nodes. An unbudgeted call runs under
// DefaultNodeBudget so registry-wide sweeps (bench, CI) always
// terminate, with deterministic effort counters; exhausting that
// internal default is not an error, it only marks the outcome
// unproven.
package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/mii"
	"repro/internal/mindist"
	"repro/internal/mrt"
	"repro/internal/obs"
	"repro/internal/sched"
)

// PolicyName is the name the backend reports in sched.Result.Policy
// and registers under in the core scheduler registry.
const PolicyName = "exact"

// DefaultNodeBudget caps search nodes when Config.Budget sets no
// MaxCentralIters: large enough to prove optimality on small loops,
// small enough that an unbudgeted corpus sweep stays interactive. The
// cap is deterministic, so effort counters are machine-independent.
const DefaultNodeBudget = 1 << 17

// nodeCheckStride is the node interval between wall-clock/cancellation
// polls, mirroring the engine's budgetCheckStride.
const nodeCheckStride = 256

// Scheduler is the exact backend configured once; safe for sequential
// reuse, not for concurrent calls (matching sched.Scheduler).
type Scheduler struct {
	cfg sched.Config
}

// New returns an exact scheduler with the given configuration. The
// fields the backend honors: Budget (MaxCentralIters = search nodes,
// MaxIIAttempts = II values branch-and-bounded, Deadline), StartII,
// MaxII, Observer (attempt-level events), Arena (passed to the slack
// seed run).
func New(cfg sched.Config) *Scheduler { return &Scheduler{cfg: cfg} }

// Outcome is the full verdict of one exact search — ScheduleInto's result
// plus the evidence the gap experiment and the lsmsd refiner need.
type Outcome struct {
	Result  *sched.Result // best schedule found (Policy "exact")
	MaxLive int           // RR MaxLive of Result.Schedule
	Proven  bool          // (II, MaxLive) proven optimal within the horizon
	// The slack seed's incumbent, for gap accounting; SeedII == 0 means
	// the seed itself failed and the search ran cold.
	SeedII      int
	SeedMaxLive int
	// Improved reports that the search strictly beat the seed (lower II,
	// or equal II with lower MaxLive).
	Improved bool
}

// ScheduleInto runs the search and writes its best result into a
// caller-owned Result, honoring the core.Runner contract: dst is zeroed
// on preflight failure, carries partial evidence on typed errors, and
// is complete on success. The exact backend allocates its search state
// per call, so reusing dst saves only the Result shell itself; Search
// returns the full Outcome.
func (s *Scheduler) ScheduleInto(ctx context.Context, l *ir.Loop, dst *sched.Result) error {
	o, err := s.Search(ctx, l)
	if o == nil || o.Result == nil {
		*dst = sched.Result{}
		return err
	}
	*dst = *o.Result
	return err
}

// Search runs the exact search and returns the full Outcome. On typed
// failure (budget exhausted with nothing found, or proven infeasible)
// the Outcome still carries the partial evidence in Result. Under a
// trace (obs.WithTrace) the search is one "exact" span carrying the
// (II, MaxLive) found and the proof bit.
func (s *Scheduler) Search(ctx context.Context, l *ir.Loop) (*Outcome, error) {
	sp := obs.FromContext(ctx).Start("exact")
	if sp == nil {
		// Untraced: return before sched.Outcome, whose errors.As target
		// escapes and would cost every failed search an allocation.
		return s.search(ctx, l)
	}
	o, err := s.search(ctx, l)
	if o == nil {
		sp.End(obs.OutcomeError)
		return o, err
	}
	proven := int64(0)
	if err == nil && o.Proven {
		proven = 1
	}
	if o.Result.OK() {
		sp.Int("ii", int64(o.Result.Schedule.II)).Int("maxlive", int64(o.MaxLive))
	}
	sp.Int("proven", proven).End(sched.Outcome(err))
	return o, err
}

func (s *Scheduler) search(ctx context.Context, l *ir.Loop) (*Outcome, error) {
	if !l.Finalized() {
		return nil, fmt.Errorf("exact: loop %s not finalized", l.Name)
	}
	start := time.Now()
	bounds, err := mii.Compute(ctx, l)
	if err != nil {
		return nil, fmt.Errorf("exact: %s: %w", l.Name, err)
	}

	e := &searcher{
		l:      l,
		cfg:    s.cfg,
		obs:    s.cfg.Observer,
		bounds: bounds,
		md:     &mindist.Table{},
	}
	e.scr = &lifetime.Scratch{}
	if s.cfg.Arena != nil {
		e.scr = s.cfg.Arena.Lifetime()
	}
	e.guard = sched.NewGuard(ctx, s.cfg.Budget)
	e.nodeBudget = s.cfg.Budget.MaxCentralIters
	if e.nodeBudget <= 0 {
		e.nodeBudget = DefaultNodeBudget
	}

	// Warm start: the slack scheduler's result seeds the incumbent and
	// caps the II range the branch-and-bound must cover. Its budget is
	// shared — the seed runs under the same Config, and the guard's
	// wall clock keeps ticking across it.
	seedCfg := s.cfg
	seedRes, seedErr := sched.Slack(seedCfg).Schedule(ctx, l)
	var incumbent *sched.Result
	incumbentML := 0
	if seedErr == nil && seedRes != nil && seedRes.OK() {
		incumbent = seedRes
		incumbentML = lifetime.MeasureIn(l, seedRes.Schedule, ir.RR, e.scr).MaxLive
	}

	ceiling := s.cfg.MaxII
	if ceiling <= 0 {
		// A generous derived ceiling, only reached when the seed failed:
		// past 2·MII + the busy sum every loop in the corpus fits.
		sumBusy := 0
		for _, op := range l.Ops {
			if b := l.Mach.Info(op.Opcode).Busy; b > 1 {
				sumBusy += b
			} else {
				sumBusy++
			}
		}
		ceiling = 2*bounds.MII + 16 + sumBusy
	}
	if incumbent != nil && incumbent.Schedule.II < ceiling {
		ceiling = incumbent.Schedule.II
	}
	startII := bounds.MII
	if s.cfg.StartII > startII {
		startII = s.cfg.StartII
	}

	proven := true
	improved := false
	var bestTimes []int
	var bestMD *mindist.Table
	bestII, bestML := 0, 0
	lastII := startII
	stopReason := ""

	for ii := startII; ii <= ceiling; ii++ {
		lastII = ii
		if r := e.guard.AttemptExceeded(&e.stats); r != "" {
			stopReason, proven = r, false
			break
		}
		bound := math.MaxInt
		if incumbent != nil && ii == incumbent.Schedule.II {
			bound = incumbentML
		}
		found, ml, md, complete := e.bbAtII(ii, bound)
		e.stats.IIAttempts++
		if found != nil {
			bestTimes, bestII, bestML, bestMD = found, ii, ml, md
			improved = true
			if !complete {
				proven = false
				stopReason = e.stopReason
			}
			break
		}
		if !complete {
			// Could neither find a schedule nor prove this II infeasible:
			// the node budget or wall clock ran out mid-tree.
			proven = false
			stopReason = e.stopReason
			break
		}
	}

	e.stats.Elapsed = time.Since(start)
	stats := e.stats
	if incumbent != nil {
		// Fold the seed's effort in: the counters report the total work
		// of one exact compile, deterministically.
		ss := incumbent.Stats
		stats.IIAttempts += ss.IIAttempts
		stats.CentralIters += ss.CentralIters
		stats.Placements += ss.Placements
		stats.Forces += ss.Forces
		stats.Ejections += ss.Ejections
		stats.Restarts += ss.Restarts
	}

	out := &Outcome{Proven: proven, Improved: improved}
	if incumbent != nil {
		out.SeedII = incumbent.Schedule.II
		out.SeedMaxLive = incumbentML
	}
	switch {
	case bestTimes != nil:
		sc := ir.NewSchedule(bestII, len(l.Ops))
		copy(sc.Time, bestTimes)
		out.Result = &sched.Result{
			Loop: l, Policy: PolicyName, Bounds: bounds,
			Schedule: sc, MinDist: bestMD, Stats: stats,
		}
		out.MaxLive = bestML
		return out, nil
	case incumbent != nil:
		// The seed survives as the exact answer — either proven optimal
		// (the search exhausted every improvement) or best-known (budget).
		res := *incumbent
		res.Policy = PolicyName
		res.Stats = stats
		out.Result = &res
		out.MaxLive = incumbentML
		return out, nil
	case stopReason != "":
		out.Proven = false
		out.Result = &sched.Result{
			Loop: l, Policy: PolicyName, Bounds: bounds,
			Stats: stats, FailedII: lastII,
		}
		be := &sched.BudgetError{
			Loop: l.Name, Policy: PolicyName, Reason: stopReason,
			MII: bounds.MII, LastII: lastII, Stats: stats,
		}
		if stopReason == sched.ReasonCanceled {
			be.Cause = ctx.Err()
		}
		return out, be
	default:
		out.Result = &sched.Result{
			Loop: l, Policy: PolicyName, Bounds: bounds,
			Stats: stats, FailedII: lastII,
		}
		return out, &sched.InfeasibleError{
			Loop: l.Name, Policy: PolicyName, MII: bounds.MII,
			MaxII: ceiling, LastII: lastII, Stats: stats,
		}
	}
}

// valState tracks one RR value's contribution to the pressure lower
// bound during the search.
type valState struct {
	id    ir.ValueID
	minLT int
	cur   int // current lower bound on this value's lifetime
	defs  []int32
	uses  []valUse
}

type valUse struct {
	op    int32
	omega int32
}

// searcher is the per-call branch-and-bound state.
type searcher struct {
	l      *ir.Loop
	cfg    sched.Config
	obs    sched.Observer
	bounds mii.Bounds
	guard  sched.Guard
	stats  sched.Stats

	nodeBudget int64
	stopReason string // why the last attempt stopped incomplete

	// Per-II attempt state.
	ii      int
	horizon int
	md      *mindist.Table // one table per search, recomputed in place at each II
	table   *mrt.Table
	times   []int
	order   []int
	vals    []valState
	valsOf  [][]int32 // value-state indexes whose bound op x can move
	lbSum   int       // Σ vals[i].cur
	bound   int       // strict upper bound: seeking MaxLive < bound
	floor   int       // static averaging floor at this II
	best    []int
	bestML  int
	leaf    *ir.Schedule
	scr     *lifetime.Scratch // the arena's when the caller pooled one
	trail   []trailEntry
	stop    bool // budget tripped: unwind
	atBest  bool // bound reached the floor: provably optimal, unwind
}

type trailEntry struct {
	val int32
	old int32
}

// bbAtII runs one branch-and-bound attempt: find the minimum-MaxLive
// schedule at exactly ii with MaxLive < bound. Returns the best times
// found (nil if none beat the bound), its MaxLive, the MinDist table at
// ii, and whether the attempt was complete — a complete attempt with a
// nil result proves no such schedule exists within the horizon.
func (e *searcher) bbAtII(ii, bound int) (times []int, maxLive int, md *mindist.Table, complete bool) {
	if e.obs != nil {
		e.obs.Event(sched.Event{
			Kind: sched.EvAttemptStart, Loop: e.l.Name, Policy: PolicyName, II: ii, Op: -1,
		})
	}
	found, ml, table, comp := e.runAttempt(ii, bound)
	if e.obs != nil {
		out := sched.AttemptOK
		switch {
		case found != nil:
			// A schedule beat the bound; the attempt counts as OK even if
			// the enumeration below it was cut short.
		case comp:
			out = sched.AttemptGiveUp // proven: nothing below the bound here
		default:
			out = sched.AttemptOutcomeOf(false, e.stopReason)
		}
		e.obs.Event(sched.Event{
			Kind: sched.EvAttemptEnd, Loop: e.l.Name, Policy: PolicyName, II: ii, Op: -1,
			OK: found != nil, Outcome: out,
		})
	}
	return found, ml, table, comp
}

func (e *searcher) runAttempt(ii, bound int) (times []int, maxLive int, md *mindist.Table, complete bool) {
	e.stopReason = ""
	stop := func() bool { return e.guard.Exceeded(&e.stats) != "" }
	if err := mindist.ComputeInto(e.l, ii, e.md, stop); err != nil {
		if errors.Is(err, mindist.ErrStopped) {
			e.stopReason = e.guard.Exceeded(&e.stats)
			if e.stopReason == "" {
				e.stopReason = sched.ReasonDeadline
			}
			return nil, 0, nil, false
		}
		return nil, 0, nil, true // II below RecMII: provably infeasible
	}
	md = e.md
	e.ii = ii
	e.horizon = md.CriticalPath() + 3*ii + 1
	n := len(e.l.Ops)

	// Value states: per-RR-value floors, def/use lists, and the per-op
	// index of which values a placement can tighten.
	e.vals = e.vals[:0]
	byValue := make(map[ir.ValueID]int32, len(e.l.Values))
	ltSum := 0
	var buf [256]int // keeps the MinLT table off the heap for loops up to 256 values
	minLTs := mindist.MinLTs(e.l, md, buf[:0])
	for _, v := range e.l.Values {
		if v.File != ir.RR || !v.IsVariant() {
			continue
		}
		lt := minLTs[v.ID]
		vs := valState{id: v.ID, minLT: lt, cur: lt}
		for _, d := range v.Defs {
			vs.defs = append(vs.defs, int32(d))
		}
		byValue[v.ID] = int32(len(e.vals))
		e.vals = append(e.vals, vs)
		ltSum += lt
	}
	for _, op := range e.l.Ops {
		for _, rd := range op.Args {
			if i, ok := byValue[rd.Val]; ok {
				e.vals[i].uses = append(e.vals[i].uses, valUse{op: int32(op.ID), omega: int32(rd.Omega)})
			}
		}
		if rd := op.Pred; rd != nil {
			if i, ok := byValue[rd.Val]; ok {
				e.vals[i].uses = append(e.vals[i].uses, valUse{op: int32(op.ID), omega: int32(rd.Omega)})
			}
		}
	}
	e.valsOf = make([][]int32, n)
	for i := range e.vals {
		vs := &e.vals[i]
		seen := map[int32]bool{}
		for _, d := range vs.defs {
			if !seen[d] {
				seen[d] = true
				e.valsOf[d] = append(e.valsOf[d], int32(i))
			}
		}
		for _, u := range vs.uses {
			if !seen[u.op] {
				seen[u.op] = true
				e.valsOf[u.op] = append(e.valsOf[u.op], int32(i))
			}
		}
	}
	e.lbSum = ltSum
	e.floor = ceilDiv(ltSum, ii)
	if bound <= e.floor {
		// The incumbent already sits at (or below) the static floor:
		// no schedule at this II can strictly beat it.
		return nil, 0, md, true
	}

	e.table = mrt.New(e.l, ii)
	if cap(e.times) < n {
		e.times = make([]int, n)
	}
	e.times = e.times[:n]
	for i := range e.times {
		e.times[i] = ir.Unplaced
	}
	e.order = orderByWindow(md, n, e.horizon, e.order)
	e.bound = bound
	e.best = nil
	e.leaf = ir.NewSchedule(ii, n)
	e.stop = false
	e.atBest = false
	e.dfs(0)
	if e.best == nil {
		return nil, 0, md, !e.stop
	}
	return e.best, e.bestML, md, !e.stop || e.atBest
}

// orderByWindow sorts op indexes by ascending initial window size:
// most-constrained first, the same order as the exhaustive oracle.
func orderByWindow(md *mindist.Table, n, horizon int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	order := buf[:n]
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
	return order
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// dfs is the branch-and-bound core: one node per (op, remaining
// candidates) branch point, with MinDist window propagation against the
// placed prefix, MRT conflicts, and the incremental averaging bound.
func (e *searcher) dfs(k int) {
	if e.stop || e.atBest {
		return
	}
	n := len(e.l.Ops)
	// Every dfs entry is one node — leaves included, because a leaf runs
	// a full lifetime measurement and a single interior node can spawn a
	// horizon's worth of them; an interior-only cap would leave the
	// dominant cost unbounded.
	e.stats.CentralIters++
	if e.stats.CentralIters >= e.nodeBudget {
		e.stop = true
		e.stopReason = sched.ReasonCentralIters
		return
	}
	if e.stats.CentralIters%nodeCheckStride == 0 {
		if r := e.guard.Exceeded(&e.stats); r != "" {
			e.stop = true
			e.stopReason = r
			return
		}
	}
	if k == n {
		copy(e.leaf.Time, e.times)
		ml := lifetime.MeasureIn(e.l, e.leaf, ir.RR, e.scr).MaxLive
		if ml < e.bound {
			e.bound = ml
			e.bestML = ml
			if e.best == nil {
				e.best = make([]int, n)
			}
			copy(e.best, e.times)
			if e.bound <= e.floor {
				e.atBest = true
			}
		}
		return
	}

	x := e.order[k]
	lo := 0
	if d := e.md.Dist(e.md.Start(), x); d != mindist.NoPath {
		lo = d
	}
	hi := e.horizon - 1
	for y := 0; y < n; y++ {
		if e.times[y] == ir.Unplaced {
			continue
		}
		if d := e.md.Dist(y, x); d != mindist.NoPath && e.times[y]+d > lo {
			lo = e.times[y] + d
		}
		if d := e.md.Dist(x, y); d != mindist.NoPath && e.times[y]-d < hi {
			hi = e.times[y] - d
		}
	}
	op := e.l.Ops[x]
	for c := lo; c <= hi; c++ {
		if !e.table.Free(op, c) {
			continue
		}
		e.table.Place(op, c)
		e.times[x] = c
		e.stats.Placements++
		mark := len(e.trail)
		if e.tighten(x) {
			e.dfs(k + 1)
		}
		e.unwind(mark)
		e.table.Eject(op)
		e.times[x] = ir.Unplaced
		if e.stop || e.atBest {
			return
		}
	}
}

// tighten recomputes the pressure lower bound of every value op x
// defines or reads, records the old contributions on the trail, and
// reports whether the subtree can still beat the bound.
func (e *searcher) tighten(x int) bool {
	ok := true
	for _, vi := range e.valsOf[x] {
		vs := &e.vals[vi]
		cur := vs.minLT
		start := -1
		for _, d := range vs.defs {
			if t := e.times[d]; t != ir.Unplaced && (start == -1 || t < start) {
				start = t
			}
		}
		if start >= 0 {
			end := -1
			for _, u := range vs.uses {
				if t := e.times[u.op]; t != ir.Unplaced {
					if v := t + int(u.omega)*e.ii; v > end {
						end = v
					}
				}
			}
			if end >= 0 && end-start > cur {
				cur = end - start
			}
		}
		if cur != vs.cur {
			e.trail = append(e.trail, trailEntry{val: vi, old: int32(vs.cur)})
			e.lbSum += cur - vs.cur
			vs.cur = cur
		}
		// A single value needs ⌈cur/II⌉ simultaneously live copies.
		if ceilDiv(cur, e.ii) >= e.bound {
			ok = false
		}
	}
	if ceilDiv(e.lbSum, e.ii) >= e.bound {
		ok = false
	}
	return ok
}

// unwind restores the trail to the given mark.
func (e *searcher) unwind(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		t := e.trail[i]
		vs := &e.vals[t.val]
		e.lbSum += int(t.old) - vs.cur
		vs.cur = int(t.old)
	}
	e.trail = e.trail[:mark]
}
