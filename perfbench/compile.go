package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/loopgen"
	"repro/internal/obs"
	"repro/internal/regalloc"
	"repro/internal/schedcheck"
)

// maxTrips caps simulated iterations, as the generated-loop pipeline
// tests do, to bound simulation time on big-II loops.
const maxTrips = 24

// fingerprint is what the benchmark keeps of one compile: enough to tell
// that a later compile of the loop produced the checked reference
// output. Taking it allocates nothing.
type fingerprint struct {
	ok                    bool
	ii, mii, maxLive      int
	nrr, nicr, iiAttempts int
	times                 uint64 // FNV-1a over the schedule's issue cycles
	iters, placements     int64
	forces, ejections     int64
}

func fingerprintOf(c *core.Compiled, err error) fingerprint {
	if err != nil || !c.OK() || c.Kernel == nil {
		return fingerprint{}
	}
	r := c.Result
	h := uint64(14695981039346656037)
	for _, t := range r.Schedule.Time {
		h = (h ^ uint64(t)) * 1099511628211
	}
	st := r.Stats
	return fingerprint{
		ok: true, ii: r.Schedule.II, mii: r.Bounds.MII, maxLive: c.RR.MaxLive,
		nrr: c.Kernel.NRR, nicr: c.Kernel.NICR, iiAttempts: st.IIAttempts, times: h,
		iters: st.CentralIters, placements: st.Placements, forces: st.Forces, ejections: st.Ejections,
	}
}

// corpusRef is the checked reference output of every corpus loop.
type corpusRef struct {
	fp           []fingerprint
	q            quality
	unverifiable []string // loops the interpreter cannot run under AutoBinding
}

// loopCheck is the outcome of checking one compiled loop.
type loopCheck struct {
	fp           fingerprint
	floor        int64
	sizes, runs  int64 // regalloc sizes tried and allocations run
	unverifiable bool
	err          error
}

// checkCompiled checks one compile: a complete schedule that passes
// schedcheck, MaxLive at or above ⌈ΣMinLT/II⌉, a register allocation no
// smaller than MaxLive, and a kernel whose VLIW simulation matches the
// sequential interpreter.
func checkCompiled(e *entry, c *core.Compiled, err error) loopCheck {
	var lc loopCheck
	switch {
	case err != nil:
		lc.err = fmt.Errorf("%s: %w", e.name, err)
		return lc
	case !c.OK() || c.Kernel == nil:
		lc.err = fmt.Errorf("%s: no schedule or kernel", e.name)
		return lc
	}
	l, s := e.cl.Loop, c.Result.Schedule
	if v := schedcheck.Check(l, s); len(v) > 0 {
		lc.err = fmt.Errorf("%s: schedcheck: %v", e.name, v[0])
		return lc
	}
	lc.floor = lifetimeFloor(l, c.Result.MinDist)
	if int64(c.RR.MaxLive) < lc.floor {
		lc.err = fmt.Errorf("%s: MaxLive %d below ⌈ΣMinLT/II⌉ = %d", e.name, c.RR.MaxLive, lc.floor)
		return lc
	}
	if c.Kernel.NRR < c.RR.MaxLive {
		lc.err = fmt.Errorf("%s: %d rotating registers for MaxLive %d", e.name, c.Kernel.NRR, c.RR.MaxLive)
		return lc
	}
	for _, a := range []struct {
		file ir.RegFile
		n    int
	}{{ir.RR, c.Kernel.NRR}, {ir.ICR, c.Kernel.NICR}} {
		if tried, ran := sizesTried(l, s, a.file, a.n); ran {
			lc.sizes += tried
			lc.runs++
		}
	}
	env, _, trips, err := e.cl.BuildEnv(loopgen.AutoBinding(e.cl))
	if err == nil {
		trips = min(trips, maxTrips)
		_, err = interp.Run(l, env, trips)
	}
	if err != nil {
		// The reference itself cannot run this loop under the generic
		// binding (e.g. a gather through a real-valued index array), so
		// there is nothing to compare the simulator against.
		lc.unverifiable = true
	} else if err := core.VerifyExecution(c, env, trips); err != nil {
		lc.err = err
		return lc
	}
	lc.fp = fingerprintOf(c, nil)
	return lc
}

// sizesTried is how many file sizes regalloc.Allocate tried for one
// register file: it starts at max(LowerBound, 1) and stops at the size
// it returns. The ranges are codegen's: live-outs extend to the
// iteration makespan.
func sizesTried(l *ir.Loop, s *ir.Schedule, file ir.RegFile, n int) (int64, bool) {
	ranges := lifetime.Ranges(l, s, file)
	if len(ranges) == 0 {
		return 0, false
	}
	mk := s.Makespan(l)
	for i := range ranges {
		if l.Value(ranges[i].Val).LiveOut && ranges[i].End < mk {
			ranges[i].End = mk
		}
	}
	return int64(n - max(regalloc.LowerBound(ranges, s.II), 1) + 1), true
}

// referencePass is the discarded warm-up pass: every loop compiled on
// bufs' workers and checked in full. Later passes must reproduce its
// fingerprints.
func referencePass(loops []*entry, bufs []core.Compiled, rep *report) *corpusRef {
	checks := make([]loopCheck, len(loops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range bufs {
		wg.Add(1)
		go func(c *core.Compiled) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(loops) {
					return
				}
				err := core.CompileInto(context.Background(), c, loops[i].cl.Loop, core.Options{})
				checks[i] = checkCompiled(loops[i], c, err)
			}
		}(&bufs[w])
	}
	wg.Wait()
	ref := &corpusRef{fp: make([]fingerprint, len(loops))}
	for i, lc := range checks {
		rep.attempted++
		if lc.err != nil {
			rep.fail("%v", lc.err)
			continue
		}
		if lc.unverifiable {
			ref.unverifiable = append(ref.unverifiable, loops[i].name)
		}
		fp := lc.fp
		ref.fp[i] = fp
		q := &ref.q
		q.loops++
		q.ii += int64(fp.ii)
		q.mii += int64(fp.mii)
		q.maxLive += int64(fp.maxLive)
		q.floor += lc.floor
		q.regs += int64(fp.nrr)
		q.iiAttempts += int64(fp.iiAttempts)
		q.placements += fp.placements
		q.forces += fp.forces
		q.ejections += fp.ejections
		q.registers += int64(fp.nrr + fp.nicr)
		q.sizes += lc.sizes
		q.allocRuns += lc.runs
	}
	return ref
}

// compare counts a failure for every loop whose compile in the last
// pass differs from its checked reference.
func (ref *corpusRef) compare(loops []*entry, got []fingerprint, rep *report) {
	for i := range got {
		ref.check(loops, i, got[i], rep)
	}
}

// check counts a failure when a compile of loop i differs from its
// checked reference.
func (ref *corpusRef) check(loops []*entry, i int, fp fingerprint, rep *report) {
	rep.attempted++
	if fp != ref.fp[i] || !fp.ok {
		rep.fail("%s: output differs from its checked reference", loops[i].name)
	}
}

// compilePass compiles every loop once, in perm order, on len(bufs)
// closed-loop workers, each owning one Compiled. It writes each op's
// times to lat (by position in perm) and its fingerprint to got (by
// loop).
func compilePass(loops []*entry, perm []int, bufs []core.Compiled, got []fingerprint, lat opTimes) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range bufs {
		wg.Add(1)
		go func(c *core.Compiled) {
			defer wg.Done()
			runtime.LockOSThread() // the op's on-CPU time is this thread's
			defer runtime.UnlockOSThread()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(perm) {
					return
				}
				i := perm[k]
				start := now()
				err := core.CompileInto(context.Background(), c, loops[i].cl.Loop, core.Options{})
				lat.since(k, start)
				got[i] = fingerprintOf(c, err)
			}
		}(&bufs[w])
	}
	wg.Wait()
}

// compilePlain is compile-corpus's end-to-end run: the library path
// lsms and library callers take, codegen and regalloc included.
func compilePlain(cfg config, rep *report) error {
	setup, loops, err := timedSetups(func() ([]*entry, error) { return buildCorpus(cfg, false) }, nil)
	if err != nil {
		return err
	}
	bufs := make([]core.Compiled, checkWorkers())
	ref := referencePass(loops, bufs, rep)
	bufs = bufs[:clients] // warm from the reference pass
	rng := rand.New(rand.NewSource(cfg.seed))
	got := make([]fingerprint, len(loops))
	lat := makeOpTimes(len(loops))
	var t timing
	for t.passes == 0 || t.wall < cfg.seconds {
		perm := rng.Perm(len(loops))
		t.measure(func() opTimes {
			compilePass(loops, perm, bufs, got, lat)
			return lat
		})
		ref.compare(loops, got, rep)
	}
	rep.endToEnd(setup, &t, ref.q)
	rep.note("regs_over_maxlive", ref.q.ratio(ref.q.regs, ref.q.maxLive), "ratio", fmt.Sprintf("%d loops", ref.q.loops))
	rep.note("unverifiable_loops", float64(len(ref.unverifiable)), "count", fmt.Sprint(ref.unverifiable))
	return nil
}

// compileTraced is compile-corpus's per-layer run. One client compiles
// every loop twice in a row, untraced and with an obs.Trace, in
// alternating order, so drift on the machine touches both alike.
func compileTraced(cfg config, rep *report) error {
	loops, err := buildCorpus(cfg, false)
	if err != nil {
		return err
	}
	bufs := make([]core.Compiled, max(checkWorkers(), 2))
	ref := referencePass(loops, bufs, rep)
	rng := rand.New(rand.NewSource(cfg.seed))
	var ly layers
	for ly.ops == 0 || ly.plain+ly.traced < cfg.seconds {
		for k, i := range rng.Perm(len(loops)) {
			e := loops[i]
			for j := range 2 {
				ctx := context.Background()
				var tr *obs.Trace
				if (k+j)%2 == 1 {
					tr = obs.NewTrace(e.name, e.name)
					ctx = obs.WithTrace(ctx, tr)
				}
				c := &bufs[(k+j)%2]
				start := time.Now()
				err := core.CompileInto(ctx, c, e.cl.Loop, core.Options{})
				d := time.Since(start)
				if tr == nil {
					ly.plain += d
				} else {
					ly.traced += d
					ly.spans.add(tr.Spans)
				}
				ref.check(loops, i, fingerprintOf(c, err), rep)
			}
			ly.ops++
		}
	}
	ly.compile = ly.traced
	ly.whole = ly.spans.total()
	ly.q = ref.q
	rep.perLayer(&ly)
	return nil
}
