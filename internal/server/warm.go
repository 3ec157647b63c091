package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/wire"
)

// WarmStats summarizes one WarmStart pass over a corpus.
type WarmStats struct {
	// Total is the number of corpus requests considered.
	Total int
	// Warm counts requests whose result was already in the store — on a
	// restart with a populated disk tier, the whole corpus lands here
	// and nothing compiles.
	Warm int
	// Compiled counts requests compiled now whose (cacheable) result
	// entered the store.
	Compiled int
	// Failed counts requests that could not be normalized or whose
	// compile produced a non-cacheable outcome (degraded, budget
	// exhausted, internal error).
	Failed int
}

func (w WarmStats) String() string {
	return fmt.Sprintf("total=%d warm=%d compiled=%d failed=%d", w.Total, w.Warm, w.Compiled, w.Failed)
}

// WarmStart pushes a corpus of compile requests through the normal
// admission-controlled pipeline so their results populate the store
// before real traffic arrives. Requests already resident in the store
// (for example, loaded from the disk tier on restart) are skipped —
// warm-start verifies rather than recompiles. Corpus compiles run at
// most Config.Workers at a time and share the worker semaphore with
// live traffic, so a warm-start never starves real requests; it stops
// early when ctx is canceled or the server starts draining.
func (s *Server) WarmStart(ctx context.Context, reqs []*wire.Request) (WarmStats, error) {
	var warm, compiled, failed atomic.Int64
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) {
		failed.Add(1)
		errOnce.Do(func() { firstErr = err })
	}

	workers := s.cfg.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers < 1 {
		workers = 1
	}
	// One root span context identifies this warm-start run; every corpus
	// compile traces under its own fresh TraceID with a span link back to
	// this root, so the run's traces group without pretending the
	// compiles nest inside one request.
	warmRoot := obs.NewSpanContext()
	warmRoot.Sampled = obs.Sample(warmRoot.TraceID, s.cfg.TraceSample)
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tail := sched.NewTailRecorder(0)
			var sm sched.Metrics
			for i := range feed {
				s.warmOne(ctx, reqs[i], i, warmRoot, tail, &sm, &warm, &compiled, fail)
				tail.Reset()
			}
		}()
	}
feeding:
	for i := range reqs {
		select {
		case feed <- i:
		case <-ctx.Done():
			errOnce.Do(func() { firstErr = ctx.Err() })
			break feeding
		}
	}
	close(feed)
	wg.Wait()

	stats := WarmStats{
		Total:    len(reqs),
		Warm:     int(warm.Load()),
		Compiled: int(compiled.Load()),
		Failed:   int(failed.Load()),
	}
	return stats, firstErr
}

// warmOne precompiles one corpus request: store probe first, then the
// same admitAndCompile path a live request takes.
func (s *Server) warmOne(ctx context.Context, req *wire.Request, i int, warmRoot obs.SpanContext,
	tail *sched.TailRecorder, sm *sched.Metrics, warm, compiled *atomic.Int64, fail func(error)) {
	norm, loop, err := req.Normalize()
	if err != nil {
		fail(fmt.Errorf("warm-start request %d: %w", i, err))
		return
	}
	schedName := norm.Scheduler
	if schedName == "" {
		schedName = string(core.SchedSlack)
	}
	if _, ok := core.Lookup(core.SchedulerName(schedName)); !ok {
		fail(fmt.Errorf("warm-start request %d: unknown scheduler %q", i, schedName))
		return
	}
	hash, err := norm.Hash()
	if err != nil {
		fail(fmt.Errorf("warm-start request %d: %w", i, err))
		return
	}
	if _, ok := s.store.Get(hash); ok {
		warm.Add(1)
		return
	}
	if !s.gate.enter() {
		fail(fmt.Errorf("warm-start request %d: server is draining", i))
		return
	}
	defer s.gate.exit()
	c, leader := s.flights.join(hash)
	if !leader {
		// A live request is already compiling this key; its write-through
		// warms the store for us.
		select {
		case <-c.done:
			if c.out.cacheable {
				compiled.Add(1)
			} else {
				fail(fmt.Errorf("warm-start request %d: shared compile was not cacheable (%s)", i, c.out.name))
			}
		case <-ctx.Done():
			fail(fmt.Errorf("warm-start request %d: %w", i, ctx.Err()))
		}
		return
	}
	reqID := fmt.Sprintf("warm-%04d", i)
	tr := obs.NewTrace(reqID, loop.Name)
	tr.Scheduler = schedName
	tr.Ctx = obs.SpanContext{
		TraceID: obs.NewTraceID(),
		SpanID:  obs.NewSpanID(),
		Sampled: warmRoot.Sampled,
	}
	tr.Links = []obs.SpanContext{warmRoot}
	out := s.admitAndCompile(ctx, norm, loop, schedName, hash, reqID, tail, sm, tr)
	s.flights.finish(hash, c, out)
	if out.cacheable {
		compiled.Add(1)
	} else {
		fail(fmt.Errorf("warm-start request %d (%s): %s outcome not cacheable", i, loop.Name, out.name))
	}
}
