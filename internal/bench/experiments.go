package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/stats"
)

// table1Groups are the opcode groups Table 1 lists, in its row order.
var table1Groups = []struct {
	ops  []machine.Opcode
	desc string
}{
	{[]machine.Opcode{machine.Load, machine.Store}, "load/store"},
	{[]machine.Opcode{machine.AAdd}, "addr add/sub/mult"},
	{[]machine.Opcode{machine.IAdd, machine.FAdd}, "int/float add,sub,logical"},
	{[]machine.Opcode{machine.IMul}, "int/float multiply"},
	{[]machine.Opcode{machine.FDiv, machine.FSqrt}, "div/mod | sqrt"},
	{[]machine.Opcode{machine.BrTop}, "brtop"},
}

// Table1 echoes the machine model, one row per unit class with the
// opcode groups it executes (the paper's Table 1 is an input, not a
// result; printing it documents what the experiments ran on).
func Table1(m *machine.Desc) string {
	t := stats.NewTable("Pipeline", "No.", "Operations", "Latency", "Busy")
	for k := machine.FUKind(0); int(k) < m.NumKinds(); k++ {
		var descs, lat, busy []string
		for _, g := range table1Groups {
			in := false
			for _, o := range g.ops {
				if info, ok := m.Lookup(o); ok && info.Kind == k {
					lat = append(lat, fmt.Sprint(info.Latency))
					busy = append(busy, fmt.Sprint(info.Busy))
					in = true
				}
			}
			if in {
				descs = append(descs, g.desc)
			}
		}
		t.Row(m.KindName(k), m.Count(k), strings.Join(descs, "; "), strings.Join(lat, "/"), strings.Join(busy, "/"))
	}
	return fmt.Sprintf("Table 1 — functional units of machine %q\n%s", m.Name, t)
}

// Table2Result carries the loop-complexity quantiles.
type Table2Result struct {
	N     int
	Rows  map[string]stats.Quantiles
	Order []string
}

// Table2 measures the workload's complexity (paper Table 2).
func Table2(s *Suite) (*Table2Result, error) {
	infos, err := s.Infos()
	if err != nil {
		return nil, err
	}
	col := func(f func(*LoopInfo) int) []int {
		out := make([]int, len(infos))
		for i, in := range infos {
			out[i] = f(in)
		}
		return out
	}
	res := &Table2Result{N: len(infos), Rows: map[string]stats.Quantiles{}}
	add := func(name string, f func(*LoopInfo) int) {
		res.Rows[name] = stats.Quants(col(f))
		res.Order = append(res.Order, name)
	}
	add("# Basic Blocks", func(i *LoopInfo) int { return i.NumBB })
	add("# Operations", func(i *LoopInfo) int { return i.Ops })
	add("# Critical Ops at MII", func(i *LoopInfo) int { return i.CriticalAtMII })
	add("# Ops on Recurrences", func(i *LoopInfo) int { return i.OpsOnRec })
	add("# Div/Mod/Sqrt Ops", func(i *LoopInfo) int { return i.DivOps })
	add("RecMII", func(i *LoopInfo) int { return i.Bounds.RecMII })
	add("ResMII", func(i *LoopInfo) int { return i.Bounds.ResMII })
	add("MII", func(i *LoopInfo) int { return i.Bounds.MII })
	add("MinAvg at MII", func(i *LoopInfo) int { return i.MinAvgAtMII })
	add("# GPRs", func(i *LoopInfo) int { return i.GPRs })
	return res, nil
}

func (r *Table2Result) String() string {
	t := stats.NewTable("Metric", "Min", "50%", "90%", "Max")
	for _, name := range r.Order {
		q := r.Rows[name]
		t.Row(name, q.Min, q.P50, q.P90, q.Max)
	}
	return fmt.Sprintf("Table 2 — measurements from all %d loops\n%s", r.N, t)
}

// ClassRow is one row of Tables 3/4.
type ClassRow struct {
	Class  Class
	Opt    int // loops scheduled at II == MII
	All    int
	SumII  int
	SumMII int
}

// Table34Result is the per-scheduler performance table.
type Table34Result struct {
	Scheduler core.SchedulerName
	Rows      []ClassRow
	Total     ClassRow
	Failures  int
	// Excess quantiles over the loops with II > MII.
	ExcessAbs   stats.Quantiles // II − MII
	ExcessCount int
}

// Table34 reproduces Table 3 (slack) or Table 4 (cydrome) for any
// scheduler.
func Table34(s *Suite, name core.SchedulerName) (*Table34Result, error) {
	runs, err := s.Runs(name)
	if err != nil {
		return nil, err
	}
	res := &Table34Result{Scheduler: name}
	byClass := map[Class]*ClassRow{}
	for _, c := range Classes() {
		byClass[c] = &ClassRow{Class: c}
	}
	var excess []int
	for _, r := range runs {
		row := byClass[r.Info.Class]
		row.All++
		row.SumII += r.II
		row.SumMII += r.Info.Bounds.MII
		if r.OK && r.II == r.Info.Bounds.MII {
			row.Opt++
		} else {
			excess = append(excess, r.II-r.Info.Bounds.MII)
		}
		if !r.OK {
			res.Failures++
		}
	}
	for _, c := range Classes() {
		res.Rows = append(res.Rows, *byClass[c])
		res.Total.All += byClass[c].All
		res.Total.Opt += byClass[c].Opt
		res.Total.SumII += byClass[c].SumII
		res.Total.SumMII += byClass[c].SumMII
	}
	res.Total.Class = -1
	res.ExcessAbs = stats.Quants(excess)
	res.ExcessCount = len(excess)
	return res, nil
}

func (r *Table34Result) String() string {
	t := stats.NewTable("Loop Class", "Opt", "All", "%", "ΣII", "ΣMII", "Ratio")
	row := func(c ClassRow, label string) {
		pct := 0.0
		ratio := 0.0
		if c.All > 0 {
			pct = 100 * float64(c.Opt) / float64(c.All)
		}
		if c.SumMII > 0 {
			ratio = float64(c.SumII) / float64(c.SumMII)
		}
		t.Row(label, c.Opt, c.All, fmt.Sprintf("%.0f", pct), c.SumII, c.SumMII, ratio)
	}
	for _, c := range r.Rows {
		row(c, c.Class.String())
	}
	row(r.Total, "All Loops")
	hdr := fmt.Sprintf("Scheduling performance — %s (failures: %d)\n", r.Scheduler, r.Failures)
	tail := fmt.Sprintf("For the %d loops with II > MII: II−MII min/50%%/90%%/max = %d/%d/%d/%d\n",
		r.ExcessCount, r.ExcessAbs.Min, r.ExcessAbs.P50, r.ExcessAbs.P90, r.ExcessAbs.Max)
	return hdr + t.String() + tail
}

// FigureResult is one cumulative register-distribution figure.
type FigureResult struct {
	Title      string
	Thresholds []int
	Series     map[string][]int
	Order      []string
}

func (f *FigureResult) String() string {
	return stats.Histogram(f.Title, f.Thresholds, f.Series, f.Order)
}

// newOld returns the slack ("new") and cydrome ("old") sweeps the
// paper's figures compare.
func newOld(s *Suite) (newRuns, oldRuns []Run, err error) {
	if newRuns, err = s.Runs(core.SchedSlack); err != nil {
		return nil, nil, err
	}
	oldRuns, err = s.Runs(core.SchedCydrome)
	return newRuns, oldRuns, err
}

// Figure5 measures MaxLive − MinAvg, the distance from the
// schedule-independent pressure bound, for the new and old schedulers.
func Figure5(s *Suite) (*FigureResult, error) {
	newRuns, oldRuns, err := newOld(s)
	if err != nil {
		return nil, err
	}
	gap := func(rs []Run) []int {
		var out []int
		for _, r := range rs {
			if r.OK {
				out = append(out, clampGap(r.MaxLive-r.MinAvg))
			}
		}
		return out
	}
	return &FigureResult{
		Title:      "Figure 5 — MaxLive − MinAvg (cumulative % of loops)",
		Thresholds: []int{0, 1, 2, 3, 5, 10, 20, 40},
		Series: map[string][]int{
			"New Scheduler": gap(newRuns),
			"Old Scheduler": gap(oldRuns),
		},
		Order: []string{"New Scheduler", "Old Scheduler"},
	}, nil
}

// Figure6 measures MaxLive (RR pressure) distributions.
func Figure6(s *Suite) (*FigureResult, error) {
	newRuns, oldRuns, err := newOld(s)
	if err != nil {
		return nil, err
	}
	return &FigureResult{
		Title:      "Figure 6 — MaxLive (cumulative % of loops)",
		Thresholds: []int{8, 16, 24, 32, 48, 64, 96, 128},
		Series: map[string][]int{
			"New Scheduler": pressures(newRuns),
			"Old Scheduler": pressures(oldRuns),
		},
		Order: []string{"New Scheduler", "Old Scheduler"},
	}, nil
}

// Figure7 measures GPR usage and combined GPR + MaxLive pressure.
func Figure7(s *Suite) (*FigureResult, error) {
	newRuns, oldRuns, err := newOld(s)
	if err != nil {
		return nil, err
	}
	var gprs, combNew, combOld []int
	for _, r := range newRuns {
		gprs = append(gprs, r.Info.GPRs)
		if r.OK {
			combNew = append(combNew, r.Info.GPRs+r.MaxLive)
		}
	}
	for _, r := range oldRuns {
		if r.OK {
			combOld = append(combOld, r.Info.GPRs+r.MaxLive)
		}
	}
	return &FigureResult{
		Title:      "Figure 7 — GPRs and GPRs + MaxLive (cumulative % of loops)",
		Thresholds: []int{8, 16, 24, 32, 48, 64, 96, 128},
		Series: map[string][]int{
			"GPRs":               gprs,
			"(New) GPRs+MaxLive": combNew,
			"(Old) GPRs+MaxLive": combOld,
		},
		Order: []string{"GPRs", "(New) GPRs+MaxLive", "(Old) GPRs+MaxLive"},
	}, nil
}

// Figure8 measures ICR predicate usage.
func Figure8(s *Suite) (*FigureResult, error) {
	newRuns, err := s.Runs(core.SchedSlack)
	if err != nil {
		return nil, err
	}
	var icr []int
	for _, r := range newRuns {
		if r.OK {
			icr = append(icr, r.ICR)
		}
	}
	return &FigureResult{
		Title:      "Figure 8 — ICR predicate usage (cumulative % of loops)",
		Thresholds: []int{2, 4, 8, 16, 32, 64},
		Series:     map[string][]int{"New Scheduler": icr},
		Order:      []string{"New Scheduler"},
	}, nil
}

// EffortResult carries the Section 6 scheduling-effort counters.
type EffortResult struct {
	Scheduler      core.SchedulerName
	NoBacktrack    int // loops needing no backtracking
	BacktrackLoops int
	OpsPlaced      int64 // placements in loops that backtracked
	CentralIters   int64
	Forces         int64
	Ejections      int64
	Restarts       int64
	Elapsed        time.Duration
}

// Effort aggregates the scheduling-effort counters for one policy.
func Effort(s *Suite, name core.SchedulerName) (*EffortResult, error) {
	runs, err := s.Runs(name)
	if err != nil {
		return nil, err
	}
	res := &EffortResult{Scheduler: name}
	for _, r := range runs {
		if r.Stats.Backtracked() {
			res.BacktrackLoops++
			res.OpsPlaced += r.Stats.Placements
		} else {
			res.NoBacktrack++
		}
		res.CentralIters += r.Stats.CentralIters
		res.Forces += r.Stats.Forces
		res.Ejections += r.Stats.Ejections
		res.Restarts += r.Stats.Restarts
		res.Elapsed += r.Stats.Elapsed
	}
	return res, nil
}

func (r *EffortResult) String() string {
	return fmt.Sprintf(
		"Scheduling effort — %s\n"+
			"  loops without backtracking: %d\n"+
			"  loops with backtracking:    %d (placed %d ops)\n"+
			"  central-loop iterations:    %d\n"+
			"  step-3 invocations (force): %d\n"+
			"  operations ejected:         %d\n"+
			"  step-6 invocations:         %d\n"+
			"  total scheduling time:      %v\n",
		r.Scheduler, r.NoBacktrack, r.BacktrackLoops, r.OpsPlaced,
		r.CentralIters, r.Forces, r.Ejections, r.Restarts, r.Elapsed)
}

// HeadlineResult carries Section 7's summary numbers.
type HeadlineResult struct {
	PctOptimal     float64 // % of loops at II == MII (slack)
	TimeVsMinimum  float64 // ΣII / ΣMII (slack)
	SpeedupVsOld   float64 // ΣII(cydrome) / ΣII(slack), loops where both scheduled
	PctPressureOpt float64 // % with MaxLive == MinAvg
	PctWithin10    float64 // % with MaxLive − MinAvg ≤ 10
	PctRRle32      float64 // % with MaxLive ≤ 32
	PctCombLe32    float64 // % with GPRs+MaxLive ≤ 32
	PctFitCydra    float64 // % fitting a real Cydra 5 file (64 rotating regs)
	OldFailures    int
}

// Headline computes the paper's summary claims.
func Headline(s *Suite) (*HeadlineResult, error) {
	newRuns, oldRuns, err := newOld(s)
	if err != nil {
		return nil, err
	}
	res := &HeadlineResult{}
	opt, sumII, sumMII := 0, 0, 0
	var gaps, rr, comb []int
	for _, r := range newRuns {
		if r.OK && r.II == r.Info.Bounds.MII {
			opt++
		}
		sumII += r.II
		sumMII += r.Info.Bounds.MII
		if r.OK {
			gaps = append(gaps, clampGap(r.MaxLive-r.MinAvg))
			rr = append(rr, r.MaxLive)
			comb = append(comb, r.MaxLive+r.Info.GPRs)
		}
	}
	res.PctOptimal = 100 * float64(opt) / float64(len(newRuns))
	res.TimeVsMinimum = float64(sumII) / float64(sumMII)
	// Failures count at the last II attempted, the paper's Table 4
	// convention (footnote 8).
	sumOld, sumNew := 0, 0
	for i, r := range oldRuns {
		if !r.OK {
			res.OldFailures++
		}
		sumOld += r.II
		sumNew += newRuns[i].II
	}
	if sumNew > 0 {
		res.SpeedupVsOld = float64(sumOld) / float64(sumNew)
	}
	res.PctPressureOpt = stats.PctAt(gaps, 0)
	res.PctWithin10 = stats.PctAt(gaps, 10)
	res.PctRRle32 = stats.PctAt(rr, 32)
	res.PctCombLe32 = stats.PctAt(comb, 32)
	res.PctFitCydra = stats.PctAt(rr, 64)
	return res, nil
}

func (r *HeadlineResult) String() string {
	return fmt.Sprintf(
		"Headline (Section 7)                        paper      measured\n"+
			"  loops at II = MII                         96%%       %6.1f%%\n"+
			"  execution time vs minimum (ΣII/ΣMII)      1.01      %6.3f\n"+
			"  speedup over Cydrome's scheduler          1.11      %6.3f\n"+
			"  loops with MaxLive = MinAvg               46%%       %6.1f%%\n"+
			"  loops within 10 RRs of ideal              93%%       %6.1f%%\n"+
			"  loops using ≤ 32 RRs                      92%%       %6.1f%%\n"+
			"  loops with RRs+GPRs ≤ 32                  82%%       %6.1f%%\n"+
			"  loops fitting a real 64-reg rotating file (>99%%)   %6.1f%%\n"+
			"  loops Cydrome's scheduler failed to pipe  14        %6d\n",
		r.PctOptimal, r.TimeVsMinimum, r.SpeedupVsOld,
		r.PctPressureOpt, r.PctWithin10, r.PctRRle32, r.PctCombLe32,
		r.PctFitCydra, r.OldFailures)
}

// AblationResult compares total pressure across heuristic variants.
type AblationResult struct {
	SumSlack, SumUni, SumCydrome int
	N                            int
}

// Ablation reproduces Section 7's note: without the bidirectional
// heuristics the slack scheduler generates nearly the same register
// pressure as Cydrome's. Totals cover loops all three scheduled.
func Ablation(s *Suite) (*AblationResult, error) {
	a, c, err := newOld(s)
	if err != nil {
		return nil, err
	}
	b, err := s.Runs(core.SchedSlackUni)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{}
	for i := range a {
		if !a[i].OK || !b[i].OK || !c[i].OK {
			continue
		}
		res.N++
		res.SumSlack += a[i].MaxLive
		res.SumUni += b[i].MaxLive
		res.SumCydrome += c[i].MaxLive
	}
	return res, nil
}

func (r *AblationResult) String() string {
	return fmt.Sprintf(
		"Bidirectional ablation — total MaxLive over %d loops\n"+
			"  slack (bidirectional):   %d\n"+
			"  slack (early-only):      %d\n"+
			"  cydrome (early-only):    %d\n",
		r.N, r.SumSlack, r.SumUni, r.SumCydrome)
}

// RegallocResult reports how close rotating-register allocation comes to
// the MaxLive bound (footnote 4's claim) per strategy.
type RegallocResult struct {
	Strategy string
	Deltas   []int // allocated N − MaxLive per loop
}

// RegallocResults is the allocation-quality experiment, one entry per
// strategy.
type RegallocResults []RegallocResult

// Regalloc allocates every slack schedule with each strategy/order pair.
func Regalloc(s *Suite) (RegallocResults, error) {
	infos, err := s.Infos()
	if err != nil {
		return nil, err
	}
	type combo struct {
		strat regalloc.Strategy
		ord   regalloc.Order
	}
	combos := []combo{
		{regalloc.FirstFit, regalloc.StartTime},
		{regalloc.FirstFit, regalloc.Adjacency},
		{regalloc.EndFit, regalloc.Adjacency},
		{regalloc.BestFit, regalloc.StartTime},
	}
	out := make(RegallocResults, len(combos))
	for i, c := range combos {
		out[i].Strategy = fmt.Sprintf("%v/%v", c.strat, c.ord)
	}
	for _, info := range infos {
		res, err := sched.Slack(sched.Config{}).Schedule(context.Background(), info.Loop)
		if err != nil || !res.OK() {
			continue
		}
		ranges := lifetime.Ranges(info.Loop, res.Schedule, ir.RR)
		bound := regalloc.LowerBound(ranges, res.Schedule.II)
		for i, c := range combos {
			// The probing strategies are compared on loops of at
			// most 60 values, the population of the table in
			// EXPERIMENTS.md (the primary first-fit allocator runs
			// everywhere).
			if c.strat != regalloc.FirstFit && len(ranges) > 60 {
				continue
			}
			a := regalloc.Allocate(ranges, res.Schedule.II, c.strat, c.ord)
			out[i].Deltas = append(out[i].Deltas, a.N-bound)
		}
	}
	return out, nil
}

func (rs RegallocResults) String() string {
	t := stats.NewTable("Strategy", "=bound", "≤+1", "≤+5", "max Δ")
	for _, r := range rs {
		q := stats.Quants(r.Deltas)
		t.Row(r.Strategy,
			fmt.Sprintf("%.1f%%", stats.PctAt(r.Deltas, 0)),
			fmt.Sprintf("%.1f%%", stats.PctAt(r.Deltas, 1)),
			fmt.Sprintf("%.1f%%", stats.PctAt(r.Deltas, 5)),
			q.Max)
	}
	return "Rotating-register allocation vs the MaxLive bound (Rau et al. claim: ≈always within +1)\n" + t.String()
}

// IIStepResult compares the paper's II increment (4%) with increment-by-1
// (footnote 6).
type IIStepResult struct {
	Machine                string
	SumIIPct, SumIIOne     int
	CentralPct, CentralOne int64
}

// IIStep runs the slack scheduler under both increment policies on an
// opt.Size-loop corpus on opt.Mach.
func IIStep(opt Options) (*IIStepResult, error) {
	s1, err := opt.newSuite(opt.Mach)
	if err != nil {
		return nil, err
	}
	s2, err := opt.newSuite(opt.Mach)
	if err != nil {
		return nil, err
	}
	s2.Configure(core.SchedSlack, sched.Config{IncrementByOne: true})
	a, err := s1.Runs(core.SchedSlack)
	if err != nil {
		return nil, err
	}
	b, err := s2.Runs(core.SchedSlack)
	if err != nil {
		return nil, err
	}
	res := &IIStepResult{Machine: s1.Mach.Name}
	for i := range a {
		res.SumIIPct += a[i].II
		res.SumIIOne += b[i].II
		res.CentralPct += a[i].Stats.CentralIters
		res.CentralOne += b[i].Stats.CentralIters
	}
	return res, nil
}

func (r *IIStepResult) String() string {
	title := "II increment policy (footnote 6)"
	if r.Machine != machine.PaperMachine {
		title += fmt.Sprintf(" on machine %q", r.Machine)
	}
	return fmt.Sprintf(
		"%s\n"+
			"  ΣII with max(⌊0.04·II⌋,1): %d (central iters %d)\n"+
			"  ΣII with increment-by-1:   %d (central iters %d)\n"+
			"  ΔΣII = %d, extra effort = %.1f%%\n",
		title, r.SumIIPct, r.CentralPct, r.SumIIOne, r.CentralOne,
		r.SumIIPct-r.SumIIOne,
		100*(float64(r.CentralOne)/float64(max64(r.CentralPct, 1))-1))
}

// clampGap floors MaxLive − MinAvg at zero: MinAvg rounds every
// lifetime up to whole registers (Σ⌈MinLT/II⌉), so loops with many
// sub-II lifetimes at a large II can sit a register below it; the bound
// is then trivially achieved.
func clampGap(g int) int {
	if g < 0 {
		return 0
	}
	return g
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TargetRow is one target's corpus summary in the multi-target sweep.
type TargetRow struct {
	Machine    string
	Loops      int
	Feasible   int
	PctAtMII   float64 // % of feasible loops scheduled at their MII
	IIRatio    float64 // ΣII / ΣMII over feasible loops
	AvgMaxLive float64
	MaxMaxLive int
}

// TargetSweep runs the slack scheduler's corpus sweep on every target
// of opt.Targets — the experiment the declarative machine model exists
// for: unit mixes, pipelining, even the number of unit classes vary.
// Its cydra, shortmem, longops and pipediv rows are the paper's
// Section 8 latency variants.
// The corpus is regenerated per target (functional-unit pre-assignment
// depends on the machine), so the same source loops are scheduled
// against each.
func TargetSweep(opt Options) ([]TargetRow, error) {
	ms, err := opt.targets()
	if err != nil {
		return nil, err
	}
	var out []TargetRow
	for _, m := range ms {
		s, err := opt.newSuite(m)
		if err != nil {
			return nil, err
		}
		runs, err := s.Runs(core.SchedSlack)
		if err != nil {
			return nil, err
		}
		row := TargetRow{Machine: m.Name, Loops: len(runs)}
		atMII, sumII, sumMII, sumML := 0, 0, 0, 0
		for _, r := range runs {
			if !r.OK {
				continue
			}
			row.Feasible++
			if r.II == r.Info.Bounds.MII {
				atMII++
			}
			sumII += r.II
			sumMII += r.Info.Bounds.MII
			sumML += r.MaxLive
			if r.MaxLive > row.MaxMaxLive {
				row.MaxMaxLive = r.MaxLive
			}
		}
		if row.Feasible > 0 {
			row.PctAtMII = 100 * float64(atMII) / float64(row.Feasible)
			row.IIRatio = float64(sumII) / float64(sumMII)
			row.AvgMaxLive = float64(sumML) / float64(row.Feasible)
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderTargetSweep formats the multi-target sweep for the console.
func RenderTargetSweep(rows []TargetRow) string {
	t := stats.NewTable("Machine", "loops", "feasible", "% at MII", "ΣII/ΣMII", "avg MaxLive", "max MaxLive")
	for _, r := range rows {
		t.Row(r.Machine, r.Loops, r.Feasible, fmt.Sprintf("%.1f", r.PctAtMII), r.IIRatio, r.AvgMaxLive, r.MaxMaxLive)
	}
	return "Per-target corpus sweep (slack scheduler on each registered target)\n" + t.String()
}

// MarkdownTargetSweep renders the sweep as a GitHub table — the form
// EXPERIMENTS.md publishes.
func MarkdownTargetSweep(rows []TargetRow) string {
	var b strings.Builder
	b.WriteString("| Machine | Loops | Feasible | % at MII | ΣII/ΣMII | avg MaxLive | max MaxLive |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %.1f | %.3f | %.1f | %d |\n",
			r.Machine, r.Loops, r.Feasible, r.PctAtMII, r.IIRatio, r.AvgMaxLive, r.MaxMaxLive)
	}
	return b.String()
}

// ExpansionResult quantifies Section 2.3's trade: rotating register
// files avoid the code expansion of modulo variable expansion.
type ExpansionResult struct {
	N            int   // loops measured
	Unrolls      []int // MVE unroll factor per loop
	RotatingRegs []int // rotating registers (kernel-only schema)
	StaticRegs   []int // static registers (MVE)
	Overflowed   int   // loops whose unroll exceeded the cap
}

// CodeExpansion compares kernel-only rotating code against modulo
// variable expansion over the slack schedules.
func CodeExpansion(s *Suite) (*ExpansionResult, error) {
	infos, err := s.Infos()
	if err != nil {
		return nil, err
	}
	res := &ExpansionResult{}
	for _, info := range infos {
		sr, err := sched.Slack(sched.Config{}).Schedule(context.Background(), info.Loop)
		if err != nil || !sr.OK() {
			continue
		}
		rot, err := codegen.Generate(info.Loop, sr.Schedule)
		if err != nil {
			return nil, err
		}
		mve, err := codegen.GenerateMVE(info.Loop, sr.Schedule)
		if err != nil {
			res.Overflowed++
			continue
		}
		res.N++
		res.Unrolls = append(res.Unrolls, mve.Unroll)
		res.RotatingRegs = append(res.RotatingRegs, rot.NRR)
		res.StaticRegs = append(res.StaticRegs, mve.TotalRegs)
	}
	return res, nil
}

func (r *ExpansionResult) String() string {
	uq := stats.Quants(r.Unrolls)
	rq := stats.Quants(r.RotatingRegs)
	sq := stats.Quants(r.StaticRegs)
	return fmt.Sprintf(
		"Code expansion — rotating kernel-only vs modulo variable expansion (%d loops, %d over the unroll cap)\n"+
			"  MVE unroll factor (code size multiplier):  min/50%%/90%%/max = %d/%d/%d/%d\n"+
			"  %% of loops needing no unrolling (U = 1):   %.1f%%\n"+
			"  rotating registers:                        min/50%%/90%%/max = %d/%d/%d/%d\n"+
			"  static registers under MVE:                min/50%%/90%%/max = %d/%d/%d/%d\n",
		r.N, r.Overflowed,
		uq.Min, uq.P50, uq.P90, uq.Max,
		stats.PctAt(r.Unrolls, 1),
		rq.Min, rq.P50, rq.P90, rq.Max,
		sq.Min, sq.P50, sq.P90, sq.Max)
}

// StraightlineResult compares block-level register pressure of
// bidirectional vs early-only placement on acyclic code.
type StraightlineResult struct {
	N         int
	SumBidir  int
	SumEarly  int
	BidirWins int // blocks where bidirectional pressure is strictly lower
	EarlyWins int
}

// Straightline runs Section 8's suggested "future experimentation": the
// slack framework applied to straight-line code, the setting where
// Integrated Prepass Scheduling was studied. Each loop body is scheduled
// as a single basic block — at an II large enough that the modulo
// constraint and every loop-carried dependence are inert — once with the
// bidirectional heuristic and once early-only, comparing peak register
// pressure within the block.
func Straightline(s *Suite) (*StraightlineResult, error) {
	infos, err := s.Infos()
	if err != nil {
		return nil, err
	}
	res := &StraightlineResult{}
	for _, info := range infos {
		big := 16
		for _, op := range info.Loop.Ops {
			big += info.Loop.Mach.Info(op.Opcode).Busy + info.Loop.Mach.Latency(op.Opcode)
		}
		cfg := sched.Config{StartII: big, MaxII: big}
		a, err := sched.Slack(cfg).Schedule(context.Background(), info.Loop)
		if err != nil || !a.OK() {
			continue
		}
		b, err := sched.SlackUnidirectional(cfg).Schedule(context.Background(), info.Loop)
		if err != nil || !b.OK() {
			continue
		}
		pa := lifetime.Measure(info.Loop, a.Schedule, ir.RR).MaxLive
		pb := lifetime.Measure(info.Loop, b.Schedule, ir.RR).MaxLive
		res.N++
		res.SumBidir += pa
		res.SumEarly += pb
		if pa < pb {
			res.BidirWins++
		} else if pb < pa {
			res.EarlyWins++
		}
	}
	return res, nil
}

func (r *StraightlineResult) String() string {
	return fmt.Sprintf(
		"Straight-line scheduling (Section 8's IPS context) — %d blocks\n"+
			"  peak block pressure, bidirectional: %d\n"+
			"  peak block pressure, early-only:    %d\n"+
			"  blocks where bidirectional is strictly lower: %d (early-only lower: %d)\n",
		r.N, r.SumBidir, r.SumEarly, r.BidirWins, r.EarlyWins)
}

// PredShareResult quantifies the register sharing the paper's compiler
// left on the table (Section 3.2: "Operations that execute under
// mutually exclusive predicates may use the same destination register…
// Unfortunately, the compiler does not perform the requisite analysis").
type PredShareResult struct {
	CondLoops  int // loops with conditionals measured
	SumPlain   int // Σ MaxLive, predicates assumed all-true (the paper)
	SumAware   int // Σ MaxLive with complementary-predicate sharing
	LoopsSaved int // loops where the analysis reduces MaxLive
}

// PredicateSharing measures plain vs predicate-aware MaxLive over the
// workload's conditional loops under slack schedules.
func PredicateSharing(s *Suite) (*PredShareResult, error) {
	infos, err := s.Infos()
	if err != nil {
		return nil, err
	}
	res := &PredShareResult{}
	for _, info := range infos {
		if !info.Loop.HasConditional {
			continue
		}
		sr, err := sched.Slack(sched.Config{}).Schedule(context.Background(), info.Loop)
		if err != nil || !sr.OK() {
			continue
		}
		plain := lifetime.Measure(info.Loop, sr.Schedule, ir.RR).MaxLive
		aware := lifetime.MeasurePredAware(info.Loop, sr.Schedule, ir.RR).MaxLive
		res.CondLoops++
		res.SumPlain += plain
		res.SumAware += aware
		if aware < plain {
			res.LoopsSaved++
		}
	}
	return res, nil
}

func (r *PredShareResult) String() string {
	pct := 0.0
	if r.SumPlain > 0 {
		pct = 100 * float64(r.SumPlain-r.SumAware) / float64(r.SumPlain)
	}
	return fmt.Sprintf(
		"Predicate-aware register sharing (the analysis Section 3.2 says the compiler lacked)\n"+
			"  conditional loops measured:        %d\n"+
			"  Σ MaxLive, all-predicates-true:    %d\n"+
			"  Σ MaxLive, complementary sharing:  %d (−%.1f%%)\n"+
			"  loops with any saving:             %d\n",
		r.CondLoops, r.SumPlain, r.SumAware, pct, r.LoopsSaved)
}
