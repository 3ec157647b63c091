package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/wire"
)

// The compile path is one sequence of named stages, the layers
// perfbench attributes serve time to:
//
//	read → decode → prepare → lookup → join → admit → compile → store → respond
//
// handleCompile runs all of them. WarmStart enters at prepare (its
// corpus is already decoded) and probes the store itself, so warm-up
// lookups do not count as traffic. The refiner runs decode, prepare
// and compile, and builds its body with outcomeOf. Every compile
// response leaves through respond.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	scr := s.begin(r)
	defer scr.release()
	s.m.requests.Inc()
	if !s.gate.enter() {
		s.respond(w, scr, reply{outcome: errOutcome(http.StatusServiceUnavailable, &wire.Error{
			Kind: wire.ErrKindShuttingDown, Message: "server is draining",
		})})
		return
	}
	defer s.gate.exit()
	s.respond(w, scr, s.serve(r, scr))
}

// serve runs read through store for one admitted live request.
func (s *Server) serve(r *http.Request, scr *reqScratch) reply {
	scr.body.Reset()
	if _, err := scr.body.ReadFrom(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1)); err != nil {
		return s.reject(badRequest(fmt.Errorf("reading body: %w", err)))
	}
	body := scr.body.Bytes()
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		return s.reject(badRequest(fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)))
	}
	req, err := scr.dec.DecodeRequest(body)
	if err != nil {
		return s.reject(badRequest(err))
	}
	if e := s.prepare(req, &scr.p); e != nil {
		return s.reject(e)
	}
	if rep, ok := s.lookup(scr); ok {
		return rep
	}
	c, leader := s.flights.join(scr.p.hash)
	if !leader {
		return s.dedup(r.Context(), scr, c)
	}
	out, tr := s.miss(r.Context(), scr)
	s.flights.finish(scr.p.hash, c, out)
	s.refine.offer(scr, body, out)
	return reply{outcome: out, cache: "miss", timing: tr}
}

// reqScratch is one request's state from begin to release, pooled so
// that no stage allocates for it: the body buffer, the wire decode
// scratch, the event tail recorder, the compile's result buffers, and
// the request's identity and prepared form. A worker that has served a
// request of a given size serves the next one of that size without
// allocating any of them. Response bytes are freshly allocated (they
// outlive the request in the result store and singleflight waiters),
// so nothing the scratch owns escapes.
type reqScratch struct {
	body bytes.Buffer
	dec  wire.Scratch
	tail *sched.TailRecorder
	c    core.Compiled

	id    string    // request ID: log records and trace entries share it
	start time.Time // begin's clock, for the log and the SLO sample
	tc    traceCtx
	p     prepared
}

var reqScratchPool = sync.Pool{
	New: func() any { return &reqScratch{tail: sched.NewTailRecorder(0)} },
}

// reset drops every reference to request data — decoded strings, the
// loop document's contents, the recorded event tail, the compiled
// loop — while keeping the buffers' capacity.
func (scr *reqScratch) reset() {
	scr.body.Reset()
	scr.dec.Reset()
	scr.tail.Reset()
	if res := scr.c.Result; res != nil {
		scr.c = core.Compiled{Result: res}
		res.Loop = nil
	}
	scr.id, scr.tc, scr.p = "", traceCtx{}, prepared{}
}

// release resets the scratch and returns it to the pool.
func (scr *reqScratch) release() {
	scr.reset()
	reqScratchPool.Put(scr)
}

// begin stamps a live request: its clock, its request ID (the caller's
// X-Request-Id, or a process-unique minted one) and its W3C trace
// context. An invalid traceparent starts a fresh trace, per spec — it
// must never break the request. The server always mints the root
// SpanID; the sampling verdict is the caller's flag OR the
// deterministic 1-in-N head sample.
func (s *Server) begin(r *http.Request) *reqScratch {
	scr := reqScratchPool.Get().(*reqScratch)
	scr.start = time.Now()
	if scr.id = r.Header.Get("X-Request-Id"); scr.id == "" {
		scr.id = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
	}
	if h := r.Header.Get("traceparent"); h != "" {
		if sc, err := obs.ParseTraceparent(h); err == nil {
			scr.tc.parent = sc
		}
	}
	scr.tc.ctx = obs.SpanContext{TraceID: scr.tc.parent.TraceID, SpanID: obs.NewSpanID()}
	if scr.tc.ctx.TraceID.IsZero() {
		scr.tc.ctx.TraceID = obs.NewTraceID()
	}
	scr.tc.ctx.Sampled = scr.tc.parent.Sampled || obs.Sample(scr.tc.ctx.TraceID, s.cfg.TraceSample)
	return scr
}

// prepared is the prepare stage's output in two halves. The key —
// content hash, loop name, scheduler — is all that lookup, join and
// respond read; the lowered request is for compile alone.
type prepared struct {
	hash, loopName, scheduler string

	norm *wire.Request
	loop *ir.Loop
}

// prepare normalizes the request (lowering source form to IR), defaults
// and checks the scheduler, and computes the content hash. The fields
// fill in as far as prepare gets, so a turned-away request's log record
// still names what it could.
func (s *Server) prepare(req *wire.Request, p *prepared) *wire.Error {
	norm, loop, err := req.Normalize()
	if err != nil {
		// Ops the target cannot execute are a well-formed request for
		// impossible work — unprocessable (422), not malformed (400).
		var ue *machine.UnsupportedOpError
		if errors.As(err, &ue) {
			return &wire.Error{Kind: wire.ErrKindUnsupportedOp, Message: err.Error()}
		}
		return badRequest(err)
	}
	p.norm, p.loop, p.loopName, p.scheduler = norm, loop, loop.Name, norm.Scheduler
	if p.scheduler == "" {
		p.scheduler = string(core.SchedSlack)
	}
	if _, ok := core.Lookup(core.SchedulerName(p.scheduler)); !ok {
		return &wire.Error{
			Kind:    wire.ErrKindUnknownScheduler,
			Message: fmt.Sprintf("unknown scheduler %q (registered: %v)", p.scheduler, core.Schedulers()),
		}
	}
	if p.hash, err = norm.Hash(); err != nil {
		return badRequest(err)
	}
	return nil
}

func badRequest(err error) *wire.Error {
	return &wire.Error{Kind: wire.ErrKindBadRequest, Message: err.Error()}
}

// reject answers a request read, decode or prepare turned away: 422 for
// unsupported ops, 400 for everything else.
func (s *Server) reject(e *wire.Error) reply {
	s.m.badRequests.Inc()
	status := http.StatusBadRequest
	if e.Kind == wire.ErrKindUnsupportedOp {
		status = http.StatusUnprocessableEntity
	}
	return reply{outcome: errOutcome(status, e)}
}

// lookup answers from the content-addressed result store. A memory-tier
// hit is labelled "hit"; a deeper tier's is "hit-disk", and since it did
// I/O it also leaves a store-get trace in the flight recorder. A memory
// hit pays for a trace only when the trace will be exported.
func (s *Server) lookup(scr *reqScratch) (reply, bool) {
	rec, tier, ok := s.store.GetTier(scr.p.hash)
	if !ok {
		s.m.storeMiss()
		return reply{}, false
	}
	rep := reply{outcome: outcome{status: rec.Status, name: "cache-hit", body: rec.Body}, cache: "hit", refined: rec.Refined}
	if tier > 0 {
		rep.cache = "hit-disk"
		s.m.hit("disk")
	} else {
		s.m.hit("memory")
	}
	if tier > 0 || s.exporting(scr) {
		tr := scr.trace()
		tr.Start("store-get").Int("tier", int64(tier)).Int("body_bytes", int64(len(rec.Body))).End(obs.OutcomeOK)
		tr.Finish(obs.OutcomeOK)
		if tier > 0 {
			s.flight.Record(tr)
		}
		s.exportTrace(tr)
		rep.timing = tr
	}
	return rep, true
}

// dedup is join's follower side: the request waits for the identical
// in-flight compile and shares its response bytes. Its own trace is one
// span covering the wait, under the caller's TraceID, opened before the
// wait so the span measures it; a canceled wait discards it.
func (s *Server) dedup(ctx context.Context, scr *reqScratch, c *call) reply {
	s.m.deduped.Inc()
	var tr *obs.Trace
	if s.exporting(scr) {
		tr = scr.trace()
	}
	sp := tr.Start("dedup-wait")
	out, ok := c.wait(ctx)
	if !ok {
		return reply{outcome: errOutcome(http.StatusServiceUnavailable, &wire.Error{
			Kind: wire.ErrKindInternal, Message: "client canceled while waiting for a duplicate in-flight compile",
		})}
	}
	sp.End(obs.OutcomeOK)
	tr.Finish(obs.OutcomeOK)
	s.exportTrace(tr)
	return reply{outcome: out, cache: "dedup"}
}

// miss is join's leader side: admit, compile, store. It returns the
// outcome and the request's trace — finished, recorded in the flight
// recorder and, when sampled, exported. A request admission turns away
// returns before the trace has any span and leaves it unfinished.
func (s *Server) miss(ctx context.Context, scr *reqScratch) (outcome, *obs.Trace) {
	tr := scr.trace()
	if out, ok := s.admit(ctx); !ok {
		return out, tr
	}
	defer s.adm.release()
	out, err := s.compile(ctx, scr, tr)
	if out.cacheable {
		s.put(scr, tr, out)
	}
	if err != nil {
		tr.Err = err.Error()
	}
	if out.name != obs.OutcomeOK {
		// Retention rule: only failed and degraded compiles carry their
		// event tail — that is where replaying the run matters.
		scr.tail.AttachTail(tr)
	}
	tr.Finish(out.name)
	s.flight.Record(tr)
	exID := ""
	if s.exportTrace(tr) {
		// The exemplar on the latency histogram points at a trace the
		// exporter actually accepted — a dashboard bucket links straight
		// to a spooled trace document, never to an ID that resolves to
		// nothing (tracing off, or the trace dropped on a full queue).
		exID = tr.Ctx.TraceID.String()
	}
	s.m.compileDone(scr.p.scheduler, out.name, tr.Dur.Seconds(), exID)
	return out, tr
}

// admit claims an admission-queue slot without blocking (429 when the
// queue is full), then waits for a worker slot (503 when ctx ends
// first). On success the caller must call s.adm.release.
func (s *Server) admit(ctx context.Context) (outcome, bool) {
	s.m.queueDepth.Observe(float64(s.adm.waiting()))
	switch err := s.adm.enter(ctx); {
	case errors.Is(err, errOverloaded):
		s.m.rejected.Inc()
		return errOutcome(http.StatusTooManyRequests, &wire.Error{
			Kind:    wire.ErrKindOverloaded,
			Message: fmt.Sprintf("admission queue full (%d running, %d waiting)", s.adm.running(), s.adm.waiting()),
		}), false
	case err != nil:
		return errOutcome(http.StatusServiceUnavailable, &wire.Error{
			Kind: wire.ErrKindInternal, Message: fmt.Sprintf("canceled while queued: %v", err),
		}), false
	}
	return outcome{}, true
}

// compile runs scheduling and pressure measurement (no codegen) behind
// the panic barrier, under the request's trace and deadline, folds the
// compile's effort counters into the registry, and maps the result
// onto an outcome.
func (s *Server) compile(ctx context.Context, scr *reqScratch, tr *obs.Trace) (outcome, error) {
	p := &scr.p
	cfg := p.norm.Options.SchedConfig()
	cfg.Budget.Deadline = s.effectiveDeadline(cfg.Budget.Deadline)
	cfg.Observer = scr.tail
	c, err := safeCompile(obs.WithTrace(ctx, tr), &scr.c, p.loop, core.Options{
		Scheduler:   core.SchedulerName(p.scheduler),
		Config:      cfg,
		SkipCodegen: true,
		Degrade:     p.norm.Options.Degrade,
	})
	if c != nil && c.Result != nil {
		s.m.foldEffort(c.Result.Stats)
	}
	if err == nil && c.OK() {
		if mii := c.Result.Bounds.MII; mii > 0 {
			s.m.iiOverMII.Observe(float64(c.Result.Schedule.II) / float64(mii))
		}
		s.m.maxLive.Observe(float64(c.RR.MaxLive))
	}
	return outcomeOf(p, c, err, false), err
}

// put writes a cacheable outcome through every store tier under its own
// span: with a disk tier this is the request's only durable I/O, and
// the flight recorder should show what it cost.
func (s *Server) put(scr *reqScratch, tr *obs.Trace, out outcome) {
	sp := tr.Start("store-put")
	s.store.Put(scr.p.hash, store.Record{Status: out.status, Machine: scr.p.norm.Machine, Body: out.body})
	sp.Int("body_bytes", int64(len(out.body))).End(obs.OutcomeOK)
}

// effectiveDeadline applies the server's default and cap to the
// request's wall-clock budget.
func (s *Server) effectiveDeadline(req time.Duration) time.Duration {
	d := req
	if d == 0 && s.cfg.DefaultDeadline > 0 {
		d = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d < 0 {
		d = 0
	}
	return d
}

// safeCompile is core.CompileInto behind a panic barrier: one
// request's panic becomes a *core.PanicError isolated to that request.
// It returns dst, or nil after a panic (dst half-written).
func safeCompile(ctx context.Context, dst *core.Compiled, l *ir.Loop, opt core.Options) (c *core.Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, core.Recovered("server", l.Name, r)
		}
	}()
	return dst, core.CompileInto(ctx, dst, l, opt)
}

// outcomeOf is the one response builder: it maps a compilation result
// onto the wire response and HTTP status, and decides cacheability.
// Live compiles and refinements both build their bodies here; a
// refinement passes the exact compile with refined set, under the
// scheduler name the request asked for.
func outcomeOf(p *prepared, c *core.Compiled, err error, refined bool) outcome {
	resp := &wire.Response{
		Hash:      p.hash,
		Loop:      p.loopName,
		Machine:   p.norm.Machine,
		Scheduler: p.scheduler,
		Refined:   refined,
	}
	if c != nil && c.Result != nil {
		b := c.Result.Bounds
		resp.Bounds = wire.Bounds{ResMII: b.ResMII, RecMII: b.RecMII, MII: b.MII}
		resp.Effort = wire.EffortOf(c.Result.Stats)
	}

	// The outcome label carries a budget exhaustion's bound (deadline,
	// central-iterations, ii-attempts, canceled), so the labelled
	// compile counters can tell cancellation from exhaustion.
	name := core.Outcome(c, err)
	if err != nil {
		return failedOutcome(name, resp, err)
	}
	res := c.Result
	resp.OK = c.OK()
	resp.Degraded = c.Degraded
	if !c.OK() {
		// Defensive: core.CompileInto reports infeasibility via err,
		// so this branch only guards external Result producers.
		return respOutcome(http.StatusUnprocessableEntity, name, resp, &wire.Error{
			Kind:    wire.ErrKindInfeasible,
			Message: fmt.Sprintf("no feasible schedule (last II attempted %d)", res.FailedII),
			MII:     res.Bounds.MII,
			LastII:  res.FailedII,
		}, true)
	}
	sc := res.Schedule
	resp.II = sc.II
	resp.Length = sc.Length()
	resp.Stages = sc.Stages()
	resp.Times = sc.Time
	resp.MaxLive = c.RR.MaxLive
	resp.MinAvg = c.MinAvg
	resp.ICR = c.ICR
	resp.GPRs = c.GPRs
	// Degraded schedules come from a wall-clock fallback and are not
	// reproducible; keep them out of the cache.
	return respOutcome(http.StatusOK, name, resp, nil, !c.Degraded)
}

// failedOutcome maps a failed compile, named name by core.Outcome, onto
// its HTTP status and wire error. It is outcomeOf's error half, apart so
// that the errors.As targets, which escape, cost only failed compiles.
func failedOutcome(name string, resp *wire.Response, err error) outcome {
	var be *sched.BudgetError
	switch {
	case name == obs.OutcomePanic:
		return respOutcome(http.StatusInternalServerError, name, resp, &wire.Error{
			Kind: wire.ErrKindPanic, Message: err.Error(),
		}, false)
	case errors.As(err, &be):
		return respOutcome(http.StatusGatewayTimeout, name, resp, &wire.Error{
			Kind:    wire.ErrKindBudgetExhausted,
			Message: be.Error(),
			Reason:  be.Reason,
			MII:     be.MII,
			LastII:  be.LastII,
		}, false)
	case name == obs.OutcomeInfeasible:
		var ie *sched.InfeasibleError
		e := &wire.Error{Kind: wire.ErrKindInfeasible, Message: err.Error()}
		if errors.As(err, &ie) {
			e.MII, e.LastII = ie.MII, ie.LastII
		}
		// An infeasible verdict is deterministic for a given request
		// (the II ceiling is part of the content hash), so cache it.
		return respOutcome(http.StatusUnprocessableEntity, name, resp, e, true)
	}
	return respOutcome(http.StatusInternalServerError, name, resp, &wire.Error{
		Kind: wire.ErrKindInternal, Message: err.Error(),
	}, false)
}

// respOutcome serializes resp with its error. A wire.Response holds
// only strings, integers, booleans and slices of them, so Marshal
// cannot fail.
func respOutcome(status int, name string, resp *wire.Response, e *wire.Error, cacheable bool) outcome {
	resp.Error = e
	body, _ := json.Marshal(resp)
	return outcome{status: status, name: name, body: body, cacheable: cacheable}
}

func errOutcome(status int, e *wire.Error) outcome {
	return respOutcome(status, e.Kind, &wire.Response{}, e, false)
}

// reply is what respond writes: an outcome plus what travels beside the
// body. Cache state and the refined marker are headers, never body
// bytes, so a cached replay stays byte-identical to the original.
type reply struct {
	outcome
	cache   string     // X-Lsmsd-Cache: hit, hit-disk, miss or dedup
	refined bool       // X-Lsmsd-Refined: a hit on an upgraded record
	timing  *obs.Trace // rendered as Server-Timing when it has spans
}

// respond writes one compile response — its headers, status and body —
// then logs its one structured record and records its one SLO sample.
// 5xx responses spend error budget; 4xx are the caller's fault and do
// not.
func (s *Server) respond(w http.ResponseWriter, scr *reqScratch, rep reply) {
	h := w.Header()
	h.Set("X-Request-Id", scr.id)
	// Echo the server's own span context so the caller can stitch this
	// hop into its trace — and assert the TraceID it sent came through.
	h.Set("Traceparent", scr.tc.ctx.Traceparent())
	if rep.cache != "" {
		h.Set("X-Lsmsd-Cache", rep.cache)
	}
	if rep.refined {
		h.Set("X-Lsmsd-Refined", "true")
	}
	if st := serverTiming(rep.timing); st != "" {
		h.Set("Server-Timing", st)
	}
	if rep.status == http.StatusTooManyRequests {
		h.Set("Retry-After", strconv.Itoa(max(1, int(s.cfg.RetryAfter/time.Second))))
	}
	writeJSON(w, rep.status, rep.body)
	d := time.Since(scr.start)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("compile",
			"request_id", scr.id,
			"loop", scr.p.loopName,
			"scheduler", scr.p.scheduler,
			"status", rep.status,
			"cache", rep.cache,
			"outcome", rep.name,
			"duration_ms", float64(d.Microseconds())/1000,
		)
	}
	s.slo.Record(rep.status < 500, d)
}

// serverTiming renders a finished trace's spans as a Server-Timing
// header value (RFC 8941-ish: `name;dur=ms`, comma-separated), summing
// spans that share a name — the per-stage latency breakdown a caller
// sees without fetching the exported trace.
func serverTiming(tr *obs.Trace) string {
	if tr == nil || len(tr.Spans) == 0 {
		return ""
	}
	var names []string
	durs := map[string]time.Duration{}
	for _, sp := range tr.Spans {
		if _, ok := durs[sp.Name]; !ok {
			names = append(names, sp.Name)
		}
		durs[sp.Name] += sp.Dur
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s;dur=%.3f", n, float64(durs[n].Microseconds())/1000)
	}
	return b.String()
}

// traceCtx places one compile's trace: its own span context, plus the
// caller's span it nests under (live requests) or the span that caused
// it (warm-start and refinement, which run under fresh TraceIDs and
// link back).
type traceCtx struct{ ctx, parent, link obs.SpanContext }

// linkedTo roots a fresh trace linked to cause, inheriting its
// sampling verdict.
func linkedTo(cause obs.SpanContext) traceCtx {
	return traceCtx{
		ctx:  obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: cause.Sampled},
		link: cause,
	}
}

// trace starts a trace for the request as far as prepare got: its ID,
// loop and scheduler, placed by its traceCtx.
func (scr *reqScratch) trace() *obs.Trace {
	tr := obs.NewTrace(scr.id, scr.p.loopName)
	tr.Scheduler = scr.p.scheduler
	tr.Ctx, tr.Parent = scr.tc.ctx, scr.tc.parent
	if !scr.tc.link.IsZero() {
		tr.Links = []obs.SpanContext{scr.tc.link}
	}
	return tr
}

// exporting reports whether a trace of this request would be exported.
func (s *Server) exporting(scr *reqScratch) bool {
	return s.exporter != nil && scr.tc.ctx.Sampled
}

// exportTrace offers a finished trace to the exporter when the request
// was sampled, reporting whether the exporter accepted it. Nil-safe on
// every axis (no exporter, nil trace, unsampled: false).
func (s *Server) exportTrace(tr *obs.Trace) bool {
	if s.exporter != nil && tr != nil && tr.Ctx.Sampled {
		return s.exporter.Export(tr)
	}
	return false
}
