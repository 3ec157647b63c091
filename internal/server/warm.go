package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
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

	workers := max(1, min(s.cfg.Workers, len(reqs)))
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
			scr := reqScratchPool.Get().(*reqScratch)
			defer scr.release()
			for i := range feed {
				switch stored, err := s.warmOne(ctx, scr, reqs[i], i, warmRoot); {
				case err != nil:
					fail(fmt.Errorf("warm-start request %d: %w", i, err))
				case stored:
					warm.Add(1)
				default:
					compiled.Add(1)
				}
				scr.reset()
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

// warmOne precompiles one corpus request through the live stages:
// prepare, then resolve, which answers a stored key from the store
// (stored reports it), compiles the key as a flight's leader, or waits
// for the live or warm request already compiling it. Each compile
// traces under a fresh TraceID linked to the run's root.
func (s *Server) warmOne(ctx context.Context, scr *reqScratch, req *wire.Request, i int, root obs.SpanContext) (stored bool, err error) {
	if e := s.prepare(req, &scr.p); e != nil {
		return false, errors.New(e.Message)
	}
	if !s.gate.enter() {
		return false, errors.New("server is draining")
	}
	defer s.gate.exit()
	scr.id, scr.tc = fmt.Sprintf("warm-%04d", i), linkedTo(root)
	switch rep, e := s.resolve(ctx, scr); {
	case e != nil:
		return false, errors.New(e.Message)
	case rep.name == "cache-hit": // a hit, or a follower of a leader's hit
		return true, nil
	case !rep.cacheable:
		return false, fmt.Errorf("%s: %s outcome not cacheable", scr.p.loopName, rep.name)
	}
	return false, nil
}
