// Package bench is the benchmark harness: it reproduces every table and
// figure of the paper's evaluation (Sections 6 and 7) on this
// repository's workload. Each experiment has a structured result and a
// renderer that prints rows shaped like the paper's, so EXPERIMENTS.md
// can put measured values next to published ones.
package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mii"
	"repro/internal/mindist"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Class is the paper's loop classification (Tables 3 and 4). A loop
// "has a recurrence" when a recurrence circuit actually constrains its
// II (RecMII > 1); trivial self-arcs with unit ratio do not count
// (Section 4 calls those imposing "no scheduling constraints").
type Class int

// The four classes.
const (
	Neither Class = iota
	HasConditional
	HasRecurrence
	HasBoth
)

func (c Class) String() string {
	switch c {
	case HasConditional:
		return "Has Conditional"
	case HasRecurrence:
		return "Has Recurrence"
	case HasBoth:
		return "Has Both"
	}
	return "Has Neither"
}

// Classes lists the row order of Tables 3 and 4.
func Classes() []Class {
	return []Class{HasConditional, HasRecurrence, HasBoth, Neither}
}

// LoopInfo holds a loop's schedule-independent measurements (Table 2).
type LoopInfo struct {
	Name          string
	Loop          *ir.Loop
	NumBB         int
	Ops           int
	CriticalAtMII int
	OpsOnRec      int
	DivOps        int
	Bounds        mii.Bounds
	MinAvgAtMII   int
	GPRs          int
	Class         Class
}

// Run is one loop scheduled by one policy.
type Run struct {
	Info    *LoopInfo
	OK      bool
	II      int // achieved; last attempted on failure (Table 4 footnote 8)
	MaxLive int
	MinAvg  int // at the achieved II
	ICR     int
	Stats   sched.Stats
	// Schedule is the achieved schedule (nil on failure), for the
	// experiments that measure a policy's schedules further.
	Schedule *ir.Schedule

	// Degraded reports a budget-exhausted run rescued by the list
	// scheduler (Suite.Degrade).
	Degraded bool
	// Err is non-nil when this loop's compilation failed outright: a
	// *sched.BudgetError, a *core.PanicError, or an internal error. An
	// infeasible loop (II ceiling exhausted) is not an Err — it is the
	// OK=false data the paper's Table 4 tabulates.
	Err error
	// Metrics is the loop's aggregated event stream (Suite.Metrics).
	Metrics *sched.Metrics
	// Trace is the loop's compile-pipeline span trace (Suite.Trace).
	Trace *obs.Trace
}

// Suite wraps the workload with cached analyses and runs. Suite methods
// are not safe for concurrent use, but Infos and Runs fan their own
// work out over Parallel goroutines (loops are independent).
type Suite struct {
	Mach  *machine.Desc
	Loops []*loopgen.Loop
	Seed  int64

	// Parallel bounds the worker pool used by Infos and Runs: 0 means
	// runtime.GOMAXPROCS(0), 1 disables concurrency.
	Parallel int

	// Degrade forwards core.Options.Degrade: budget-exhausted runs fall
	// back to the list scheduler instead of failing.
	Degrade bool
	// Metrics attaches one sched.Metrics observer per run; the per-loop
	// aggregates land in Run.Metrics and MergeMetrics folds them in
	// loop order, so the merged counters are identical for serial and
	// parallel sweeps.
	Metrics bool
	// Trace attaches an obs.Trace per run; the per-loop span traces land
	// in Run.Trace, ready for obs.WriteChromeTrace (lsms-bench -tracedir).
	Trace bool

	infos []*LoopInfo
	runs  map[core.SchedulerName][]Run
	cfgs  map[core.SchedulerName]sched.Config
}

// NewSuite builds the workload and prepares the harness.
func NewSuite(opt loopgen.Options) (*Suite, error) {
	w, err := loopgen.Build(opt)
	if err != nil {
		return nil, err
	}
	return &Suite{
		Mach:  w.Mach,
		Loops: w.Loops,
		Seed:  opt.Seed,
		runs:  map[core.SchedulerName][]Run{},
		cfgs:  map[core.SchedulerName]sched.Config{},
	}, nil
}

// workers resolves the pool size for n independent work items.
func (s *Suite) workers(n int) int {
	w := s.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEach applies fn to every index in [0, n), fanned out over the
// suite's worker pool. Each fn writes only into its own index slot, so
// results are deterministic regardless of pool size; on failure the
// lowest-index error is reported, matching the sequential order. A
// panic escaping fn is recovered into a *core.PanicError for its index —
// the worker (and the sweep) survives it.
func (s *Suite) forEach(n int, fn func(i int) error) error {
	w := s.workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := guarded(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = guarded(fn, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// guarded runs fn(i), converting a panic into a *core.PanicError so a
// worker goroutine never dies.
func guarded(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = core.Recovered("bench", fmt.Sprintf("index %d", i), r)
		}
	}()
	return fn(i)
}

// Size returns the number of loops.
func (s *Suite) Size() int { return len(s.Loops) }

// Infos computes (once) the schedule-independent loop measurements,
// fanning the per-loop analyses out over the worker pool.
func (s *Suite) Infos() ([]*LoopInfo, error) {
	if s.infos != nil {
		return s.infos, nil
	}
	infos := make([]*LoopInfo, len(s.Loops))
	err := s.forEach(len(s.Loops), func(i int) error {
		wl := s.Loops[i]
		l := wl.CL.Loop
		b, err := mii.Compute(l)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		md, err := mindist.Compute(l, b.MII)
		if err != nil {
			return fmt.Errorf("%s at MII: %w", wl.Name, err)
		}
		info := &LoopInfo{
			Name:        wl.Name,
			Loop:        l,
			NumBB:       l.NumBB,
			Ops:         len(l.Ops),
			OpsOnRec:    l.CountOps(func(op *ir.Op) bool { return op.OnRecurrence }),
			DivOps:      l.CountOps(func(op *ir.Op) bool { return mii.UsesDivider(l, op) }),
			Bounds:      b,
			MinAvgAtMII: mindist.MinAvg(l, md, ir.RR),
			GPRs:        l.GPRCount(),
		}
		if mii.HasResourceContention(l) {
			for _, c := range mii.CriticalOps(l, b.MII) {
				if c {
					info.CriticalAtMII++
				}
			}
		}
		hasR := b.RecMII > 1
		switch {
		case l.HasConditional && hasR:
			info.Class = HasBoth
		case l.HasConditional:
			info.Class = HasConditional
		case hasR:
			info.Class = HasRecurrence
		}
		infos[i] = info
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.infos = infos
	return s.infos, nil
}

// Configure overrides the scheduling configuration used for a policy
// (the II-step ablation); call before the first Runs for that policy.
func (s *Suite) Configure(name core.SchedulerName, cfg sched.Config) {
	s.cfgs[name] = cfg
	delete(s.runs, name)
}

// Runs schedules every loop with the given policy (cached), fanning the
// independent compilations out over the worker pool.
func (s *Suite) Runs(name core.SchedulerName) ([]Run, error) {
	return s.RunsContext(context.Background(), name)
}

// RunsContext is Runs under a context: cancellation and any
// sched.Budget in the policy's Config bound every per-loop compilation.
// Per-loop failures — budget exhaustion, a panic in the compiler, an
// internal error — land in that loop's Run.Err and never abort the
// sweep; only workload-level failures (Infos) return an error.
func (s *Suite) RunsContext(ctx context.Context, name core.SchedulerName) ([]Run, error) {
	if rs, ok := s.runs[name]; ok {
		return rs, nil
	}
	infos, err := s.Infos()
	if err != nil {
		return nil, err
	}
	cfg := s.cfgs[name]
	rs := make([]Run, len(infos))
	err = s.forEach(len(infos), func(i int) error {
		rs[i] = s.runOne(ctx, name, cfg, infos[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.runs[name] = rs
	return rs, nil
}

// runOne compiles one loop for one policy, recovering panics and
// recording failures in the Run rather than propagating them.
func (s *Suite) runOne(ctx context.Context, name core.SchedulerName, cfg sched.Config, info *LoopInfo) (run Run) {
	run = Run{Info: info}
	var c *core.Compiled
	defer func() {
		if r := recover(); r != nil {
			run.OK = false
			run.Err = core.Recovered("bench", info.Name, r)
		}
		run.Trace.Finish(core.Outcome(c, run.Err)) // nil-safe no-op unless Suite.Trace
	}()
	if s.Metrics {
		m := &sched.Metrics{}
		if prev := cfg.Observer; prev != nil {
			cfg.Observer = sched.Tee(prev, m)
		} else {
			cfg.Observer = m
		}
		run.Metrics = m
	}
	if s.Trace {
		run.Trace = obs.NewTrace(info.Name, info.Name)
		ctx = obs.WithTrace(ctx, run.Trace)
	}
	c, err := core.Compile(ctx, info.Loop, core.Options{
		Scheduler:   name,
		Config:      cfg,
		SkipCodegen: true,
		Degrade:     s.Degrade,
	})
	if err != nil && !errors.Is(err, sched.ErrInfeasible) {
		// Budget exhaustion or an internal failure: this loop's record
		// only. The partial evidence (last II, effort) is kept when the
		// compiler returned it.
		run.Err = fmt.Errorf("%s/%s: %w", name, info.Name, err)
		if c != nil && c.Result != nil {
			run.II = c.Result.II()
			run.Stats = c.Result.Stats
		}
		return run
	}
	run.OK = c.OK()
	run.II = c.Result.II()
	run.Stats = c.Result.Stats
	run.Degraded = c.Degraded
	if c.OK() {
		run.Schedule = c.Result.Schedule
		run.MaxLive = c.RR.MaxLive
		run.MinAvg = c.MinAvg
		run.ICR = c.ICR
	}
	return run
}

// MergeMetrics folds the per-loop metrics of a sweep in loop order —
// deterministic regardless of the worker pool that produced them. It
// returns nil when the suite did not collect metrics.
func MergeMetrics(rs []Run) *sched.Metrics {
	var out *sched.Metrics
	for _, r := range rs {
		if r.Metrics == nil {
			continue
		}
		if out == nil {
			out = &sched.Metrics{}
		}
		out.Merge(r.Metrics)
	}
	return out
}

// pressures collects MaxLive over successful runs.
func pressures(rs []Run) []int {
	var out []int
	for _, r := range rs {
		if r.OK {
			out = append(out, r.MaxLive)
		}
	}
	return out
}
