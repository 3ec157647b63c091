package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// The refinement tier (Config.Refine): requests are answered
// immediately by the scheduler they asked for, and a small background
// worker pool keeps searching with the exact backend under a long
// budget. When the exact result strictly improves on the served one —
// lower II, or equal II with lower MaxLive — the store record is
// upgraded in place (disk first, then memory, see store.Tiered.Upgrade)
// so every subsequent hit serves the refined schedule, flagged with the
// X-Lsmsd-Refined response header. A key is enqueued once, on the cold
// compile that created its record; hits never re-enqueue, so an
// exhausted refinement (budget ran out without an improvement) leaves
// the record as-is permanently — by then the exact search has had a far
// larger budget than the synchronous compile, and retrying it on every
// hit would burn the background pool on proven-unimprovable keys.

// refineJob is one queued refinement: a copy of the leader's prepared
// record, whose lowered loop the worker compiles as is (no compile stage
// writes to a finalized ir.Loop, and lower has dropped the reference to
// the pooled decode scratch), plus the served schedule's (II, MaxLive)
// for the strict-improvement comparison.
type refineJob struct {
	p           prepared
	reqID       string
	baseII      int
	baseMaxLive int
	// link is the originating request's span context. The refinement runs
	// under a fresh TraceID — it outlives the request and belongs to no
	// caller — but its trace carries a span link back here, so a store
	// upgrade is attributable to the request that caused it.
	link obs.SpanContext
}

// refineQueue bounds the pending-refinement queue; a full queue drops
// new jobs (the served record stays valid, just unrefined).
const refineQueue = 256

// refiner is the background worker pool. Workers honor ctx — Close
// cancels it and the exact search's budget guard observes it within
// one check stride — and drain nothing on shutdown: queued jobs are
// abandoned, which is safe because refinement is a pure optimization
// of already-correct records.
type refiner struct {
	s      *Server
	jobs   chan refineJob
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newRefiner(s *Server) *refiner {
	r := &refiner{s: s, jobs: make(chan refineJob, refineQueue)}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	for i := 0; i < s.cfg.RefineWorkers; i++ {
		r.wg.Add(1)
		go r.run()
	}
	return r
}

// offer queues the background refinement of a live cold compile
// without blocking the request path: a successful, cacheable compile
// by any scheduler but exact, which has nothing to refine toward. A
// full queue drops the job (the record stays correct, just unrefined).
// Nil-safe: a server without the tier offers nothing.
func (r *refiner) offer(scr *reqScratch, out outcome) {
	if r == nil || !out.cacheable || out.status != http.StatusOK || out.name != obs.OutcomeOK ||
		scr.p.scheduler == string(core.SchedExact) {
		return
	}
	// The request's span context rides along as the link target: the
	// refine trace is caused by this request without being nested under
	// it.
	select {
	case r.jobs <- refineJob{
		p:           scr.p,
		reqID:       scr.id,
		baseII:      scr.c.Result.Schedule.II,
		baseMaxLive: scr.c.RR.MaxLive,
		link:        scr.tc.ctx,
	}:
	default:
	}
}

// close stops the workers and waits for the in-flight refinements to
// observe the cancellation. Called before the store closes, so an
// upgrade that already started either completes into a live store or
// is dropped by the closed tiers — never half-written (each tier's Put
// is atomic under its own lock).
func (r *refiner) close() {
	r.cancel()
	r.wg.Wait()
}

func (r *refiner) run() {
	defer r.wg.Done()
	scr := reqScratchPool.Get().(*reqScratch)
	defer scr.release()
	for {
		select {
		case <-r.ctx.Done():
			return
		case job := <-r.jobs:
			r.process(scr, job)
			scr.reset()
		}
	}
}

// process runs one refinement end to end: an exact compile of the
// job's loop behind the live path's panic barrier (a panic ends the job
// as exhausted), the strict-improvement comparison, and the store
// upgrade. Every job leaves one `refine` trace, opened under the exact
// scheduler, in the flight recorder and bumps exactly one of the
// improved/unchanged/exhausted counters.
func (r *refiner) process(scr *reqScratch, job refineJob) {
	s := r.s
	start := time.Now()
	s.m.refineStarted.Inc()
	scr.id, scr.tc, scr.p = job.reqID, linkedTo(job.link), job.p
	tr := scr.trace()
	tr.Scheduler = string(core.SchedExact)
	sp := tr.Start("refine")

	outcome := "exhausted"
	defer func() {
		sp.End(outcome)
		tr.Finish(outcome)
		s.flight.Record(tr)
		s.exportTrace(tr)
		switch outcome {
		case "improved":
			s.m.refineImproved.Inc()
		case "unchanged":
			s.m.refineUnchanged.Inc()
		default:
			s.m.refineExhausted.Inc()
		}
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("refine",
				"request_id", job.reqID,
				"loop", job.p.loopName,
				"scheduler", job.p.scheduler,
				"hash", job.p.hash,
				"outcome", outcome,
				"duration_ms", float64(time.Since(start).Microseconds())/1000,
			)
		}
	}()

	// The request's II ceiling (MaxII) still binds — a refined schedule
	// must satisfy the same contract the original answer did — but the
	// synchronous budget does not: the whole point of the tier is
	// searching under a longer one.
	cfg := scr.p.opts.SchedConfig()
	cfg.Budget.Deadline = s.cfg.RefineDeadline
	cfg.Budget.MaxCentralIters = s.cfg.RefineNodes
	cfg.Budget.MaxIIAttempts = 0
	c, err := safeCompile(obs.WithTrace(r.ctx, tr), &scr.c, scr.p.loop, core.Options{
		Scheduler:   core.SchedExact,
		Config:      cfg,
		SkipCodegen: true,
	})
	if err != nil {
		tr.Err = err.Error()
		return
	}
	eII, eML := c.Result.Schedule.II, c.RR.MaxLive
	sp.Int("base_ii", int64(job.baseII)).Int("base_maxlive", int64(job.baseMaxLive))
	sp.Int("ii", int64(eII)).Int("maxlive", int64(eML))
	if eII > job.baseII || (eII == job.baseII && eML >= job.baseMaxLive) {
		outcome = "unchanged"
		return
	}
	out := outcomeOf(&scr.p, c, nil, true)
	if r.ctx.Err() != nil {
		return // shutting down: don't race the store teardown
	}
	s.store.Upgrade(scr.p.hash, store.Record{Status: out.status, Body: out.body, Refined: true})
	outcome = "improved"
}
