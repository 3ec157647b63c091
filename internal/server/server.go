// Package server implements lsmsd's HTTP service: modulo-scheduling
// compilation as admission-controlled, cached, observable traffic on
// top of the governed pipeline (core.Compile + sched.Budget).
//
// Endpoints:
//
//	POST /v1/compile    — compile one loop (wire.Request: source or IR form)
//	GET  /v1/schedulers — the registered scheduling policies
//	GET  /healthz       — liveness and pool occupancy
//	GET  /metrics       — Prometheus-style counters, including the
//	                      folded scheduler event stream
//
// Request handling is tiered: a content-addressed result store (keyed
// by the canonical wire hash; a per-node LRU in front of an optional
// crash-safe disk log, see package store) answers repeats without
// scheduling at all — across process restarts when the disk tier is
// configured; a singleflight group collapses concurrent identical
// requests into one compilation whose response bytes every waiter
// shares; everything else passes admission control — a non-blocking
// queue semaphore that rejects overload with 429 + Retry-After, then a
// worker semaphore that bounds concurrent compiles. Per-request
// deadlines map onto sched.Budget, panics are isolated per request
// (mirroring bench.LoopPanicError), and Shutdown drains in-flight
// compiles before returning, then closes the store.
//
// Error mapping (also in README "Running the service"):
//
//	400 bad-request / unknown-scheduler — malformed wire document,
//	     unknown machine, or unregistered policy
//	422 infeasible — the II ceiling was exhausted (deterministic
//	     verdict; cacheable, carries bounds + last II as evidence)
//	429 overloaded — admission queue full; Retry-After is set
//	500 panic / internal — isolated per-request failure
//	503 shutting-down — the server is draining
//	504 budget-exhausted — the per-request deadline or work cap ran
//	     out (carries the sched.BudgetError evidence; never cached)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/wire"
)

// Config tunes the service; the zero value gets sensible defaults.
type Config struct {
	// Workers bounds concurrent compiles; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds admitted-but-waiting requests; default 64.
	QueueDepth int
	// CacheEntries bounds the in-memory tier of the result store;
	// default 1024, negative disables the memory tier.
	CacheEntries int
	// StoreDir, when non-empty, adds a persistent disk tier behind the
	// memory tier: an append-only checksummed log (see store.Disk) that
	// answers repeats byte-identically across process restarts.
	StoreDir string
	// StoreMaxBytes bounds the disk tier's log size (compaction plus
	// oldest-first eviction); 0 means unbounded.
	StoreMaxBytes int64
	// Store, when non-nil, replaces the tiers the fields above would
	// build — the injection point for custom tier stacks. The server
	// owns it from New on and closes it during Shutdown.
	Store store.Tier
	// DefaultDeadline applies when a request carries no deadline_ms;
	// default 30s, negative means unbudgeted.
	DefaultDeadline time.Duration
	// MaxDeadline caps any requested deadline; default 2m.
	MaxDeadline time.Duration
	// RetryAfter is the hint returned with 429; default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds the request body; default 8 MiB.
	MaxBodyBytes int64
	// FlightEntries bounds the flight recorder's ring of recent compile
	// traces; default obs.DefaultFlightEntries.
	FlightEntries int
	// Refine enables the background exact-refinement tier: cold compiles
	// are re-searched by the exact backend under RefineDeadline /
	// RefineNodes, and a strict improvement upgrades the store record in
	// place (served with X-Lsmsd-Refined on subsequent hits). Off by
	// default: with refinement on, the bytes served for a key can change
	// (improve) between hits, which callers relying on replay
	// byte-identity across a key's whole lifetime must opt into.
	Refine bool
	// RefineWorkers bounds concurrent background refinements; default 1.
	RefineWorkers int
	// RefineDeadline is the wall-clock budget of one refinement; default
	// 5s.
	RefineDeadline time.Duration
	// RefineNodes caps one refinement's search nodes
	// (sched.Budget.MaxCentralIters for the exact backend); default
	// 1<<20.
	RefineNodes int64
	// RefineQueue bounds the pending-refinement queue; a full queue
	// drops new jobs (the served record stays valid, just unrefined).
	// Default 256.
	RefineQueue int
	// TraceDir, when non-empty, spools sampled request traces to disk as
	// lsms-trace/1 JSON documents, one file per trace (obs.Exporter).
	TraceDir string
	// TraceCollector, when non-empty, POSTs sampled traces to an HTTP
	// collector endpoint instead. TraceDir wins when both are set.
	TraceCollector string
	// TraceSample is the deterministic head-sampling rate for locally
	// rooted traces: 1-in-N by trace ID. 1 (the default) samples every
	// trace; negative disables local sampling. A request arriving with a
	// sampled traceparent is always sampled — the caller already paid
	// for the trace, this hop completes it.
	TraceSample int
	// TraceQueue bounds the trace exporter's backlog; default 256. A
	// full queue drops the trace and counts the drop — exporting never
	// blocks the request path.
	TraceQueue int
	// SLOObjective is the success-rate objective in (0,1); default 0.99.
	SLOObjective float64
	// SLOLatency is the per-request latency objective; default 500ms.
	SLOLatency time.Duration
	// SLOBurnThreshold is the error-budget burn rate above which /readyz
	// degrades (both the 5-minute and 1-hour windows must exceed it, the
	// multi-window rule); default 10, negative disables the check.
	SLOBurnThreshold float64
	// Logger, when non-nil, receives one structured record per compile
	// request (request ID, loop, scheduler, status, cache tier, outcome,
	// duration).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RefineWorkers <= 0 {
		c.RefineWorkers = 1
	}
	if c.RefineDeadline <= 0 {
		c.RefineDeadline = 5 * time.Second
	}
	if c.RefineNodes <= 0 {
		c.RefineNodes = 1 << 20
	}
	if c.RefineQueue <= 0 {
		c.RefineQueue = 256
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.SLOBurnThreshold == 0 {
		c.SLOBurnThreshold = 10
	}
	return c
}

// Server is the compilation service. Create with New, mount Handler,
// and call Shutdown to drain.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	adm       *admission
	store     *store.Tiered
	disk      *store.Disk // the persistent tier, nil when not configured
	flights   *flightGroup
	refine    *refiner // nil unless Config.Refine
	flight    *obs.FlightRecorder
	exporter  *obs.Exporter // nil unless tracing is configured
	slo       *obs.SLO
	m         *metrics
	logger    *slog.Logger
	started   time.Time
	gate      *drainGate
	reqSeq    atomic.Uint64
	closeOnce sync.Once
	closeErr  error
}

// New returns a ready-to-serve Server. The only error source is the
// persistent store tier (Config.StoreDir): an unopenable or unwritable
// store directory fails construction rather than silently serving
// without persistence.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.Workers, cfg.QueueDepth),
		flights: newFlightGroup(),
		flight:  obs.NewFlightRecorder(cfg.FlightEntries),
		logger:  cfg.Logger,
		started: time.Now(),
		gate:    newDrainGate(),
	}
	if cfg.Store != nil {
		if tiered, ok := cfg.Store.(*store.Tiered); ok {
			s.store = tiered
		} else {
			s.store = store.NewTiered(cfg.Store)
		}
		for _, tier := range s.store.Tiers() {
			if d, ok := tier.(*store.Disk); ok {
				s.disk = d
				break
			}
		}
	} else {
		mem := store.NewMemory(cfg.CacheEntries)
		if cfg.StoreDir != "" {
			d, err := store.Open(cfg.StoreDir, cfg.StoreMaxBytes)
			if err != nil {
				return nil, err
			}
			s.disk = d
			s.store = store.NewTiered(mem, d)
		} else {
			s.store = store.NewTiered(mem)
		}
	}
	if cfg.TraceDir != "" || cfg.TraceCollector != "" {
		exp, err := obs.NewExporter(obs.ExporterConfig{
			Dir: cfg.TraceDir, URL: cfg.TraceCollector, Queue: cfg.TraceQueue,
		})
		if err != nil {
			s.store.Close()
			return nil, err
		}
		s.exporter = exp
	}
	s.slo = obs.NewSLO(obs.SLOConfig{
		Objective:        cfg.SLOObjective,
		LatencyObjective: cfg.SLOLatency,
	})
	s.m = newMetrics(s)
	if cfg.Refine {
		s.refine = newRefiner(s)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("GET /v1/schedulers", s.handleSchedulers)
	s.mux.HandleFunc("GET /v1/machines", s.handleMachines)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops admitting new compiles (they get 503), waits for
// in-flight ones to drain or for ctx to expire, then closes the result
// store (syncing the disk tier). The store is closed even when the
// drain is interrupted: a record the disk tier has already absorbed
// survives the restart either way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gate.beginDrain()
	select {
	case <-s.gate.idle:
		return s.Close()
	case <-ctx.Done():
		err := fmt.Errorf("server: drain interrupted with %d request(s) in flight: %w",
			s.gate.inFlight(), ctx.Err())
		if cerr := s.Close(); cerr != nil {
			return errors.Join(err, cerr)
		}
		return err
	}
}

// Close releases the result store without draining — Shutdown's last
// step, and the test-friendly teardown. The refiner stops first (its
// in-flight upgrades either land in a live store or are dropped by the
// closed tiers), then the store closes. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.refine != nil {
			s.refine.close()
		}
		// The exporter closes after the refiner (whose last traces it
		// drains) and before the store.
		s.exporter.Close()
		s.closeErr = s.store.Close()
	})
	return s.closeErr
}

// CacheLen reports how many records the result store holds, summed
// over its tiers — a key resident in both the memory and disk tiers
// counts twice (store.Tiered.Len's contract).
func (s *Server) CacheLen() int { return s.store.Len() }

// Store returns the server's tiered result store — read-only use only
// (tests and warm-start probes); the server owns its lifecycle.
func (s *Server) Store() *store.Tiered { return s.store }

// StoreLoadReport reports what the persistent tier found on disk at
// Open time: records loaded and records rejected by verification.
// ok is false when no disk tier is configured.
func (s *Server) StoreLoadReport() (loaded int, rejected int64, ok bool) {
	if s.disk == nil {
		return 0, 0, false
	}
	loaded, rejected = s.disk.LoadReport()
	return loaded, rejected, true
}

// FlightRecorder exposes the ring of recent compile traces —
// /debug/flightrecorder serves it, and cmd/lsmsd dumps it on SIGQUIT.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight }

// requestID returns the caller's X-Request-Id, or mints a
// process-unique one, so every log record and flight-recorder entry of
// this request shares a correlation key.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	return fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
}

// logRequest emits the one structured record per compile request.
func (s *Server) logRequest(reqID, loop, scheduler string, status int, cache, outcome string, d time.Duration) {
	if s.logger == nil {
		return
	}
	s.logger.Info("compile",
		"request_id", reqID,
		"loop", loop,
		"scheduler", scheduler,
		"status", status,
		"cache", cache,
		"outcome", outcome,
		"duration_ms", float64(d.Microseconds())/1000,
	)
}

// traceContext resolves the request's W3C trace context: the caller's
// traceparent when present and valid (an invalid header starts a fresh
// trace, per spec — it must never break the request), a fresh TraceID
// otherwise, and always a server-minted root SpanID. The sampling
// verdict is the caller's flag OR the deterministic 1-in-N head sample.
func (s *Server) traceContext(r *http.Request) (sctx, parent obs.SpanContext) {
	if h := r.Header.Get("traceparent"); h != "" {
		if sc, err := obs.ParseTraceparent(h); err == nil {
			parent = sc
		}
	}
	sctx = obs.SpanContext{TraceID: parent.TraceID, SpanID: obs.NewSpanID()}
	if sctx.TraceID.IsZero() {
		sctx.TraceID = obs.NewTraceID()
	}
	sctx.Sampled = parent.Sampled || obs.Sample(sctx.TraceID, s.cfg.TraceSample)
	return sctx, parent
}

// statusWriter captures the response status for the SLO tracker.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
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

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := s.requestID(r)
	sctx, parent := s.traceContext(r)
	w.Header().Set("X-Request-Id", reqID)
	// Echo the server's own span context so the caller can stitch this
	// hop into its trace — and assert the TraceID it sent came through.
	w.Header().Set("Traceparent", sctx.Traceparent())
	sw := &statusWriter{ResponseWriter: w}
	w = sw
	defer func() {
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		// 5xx spend error budget; 4xx are the caller's fault and do not.
		s.slo.Record(status < 500, time.Since(start))
	}()
	s.m.requests.Inc()
	if !s.gate.enter() {
		s.writeError(w, http.StatusServiceUnavailable, &wire.Error{
			Kind: wire.ErrKindShuttingDown, Message: "server is draining",
		}, "")
		return
	}
	defer s.gate.exit()

	scr := reqScratchPool.Get().(*reqScratch)
	defer scr.release()
	body, err := readBody(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1), &scr.body)
	if err != nil {
		s.badRequest(w, fmt.Errorf("reading body: %w", err))
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		s.badRequest(w, fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	req, err := scr.dec.DecodeRequest(body)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	norm, loop, err := req.Normalize()
	if err != nil {
		// Ops the target cannot execute are a well-formed request for
		// impossible work — unprocessable (422), not malformed (400).
		var ue *machine.UnsupportedOpError
		if errors.As(err, &ue) {
			s.m.badRequests.Inc()
			s.writeError(w, http.StatusUnprocessableEntity, &wire.Error{
				Kind:    wire.ErrKindUnsupportedOp,
				Message: err.Error(),
			}, "")
			return
		}
		s.badRequest(w, err)
		return
	}
	schedName := norm.Scheduler
	if schedName == "" {
		schedName = string(core.SchedSlack)
	}
	if _, ok := core.Lookup(core.SchedulerName(schedName)); !ok {
		s.m.badRequests.Inc()
		s.writeError(w, http.StatusBadRequest, &wire.Error{
			Kind:    wire.ErrKindUnknownScheduler,
			Message: fmt.Sprintf("unknown scheduler %q (registered: %v)", schedName, core.Schedulers()),
		}, "")
		return
	}
	hash, err := norm.Hash()
	if err != nil {
		s.badRequest(w, err)
		return
	}

	// Tier 1: the content-addressed result store. A memory-tier hit
	// keeps the pre-store "hit" label; a hit served from a deeper tier
	// is "hit-disk" — it did I/O, so it also leaves a store-get trace
	// in the flight recorder.
	if rec, tier, ok := s.store.GetTier(hash); ok {
		label := "hit"
		if tier > 0 {
			label = "hit-disk"
			s.m.hit("disk")
		} else {
			s.m.hit("memory")
		}
		// Memory hits only pay for a trace when it will be exported; a
		// deeper-tier hit did I/O, so it also leaves a flight-recorder
		// entry unconditionally.
		if tier > 0 || (s.exporter != nil && sctx.Sampled) {
			tr := obs.NewTrace(reqID, loop.Name)
			tr.Scheduler = schedName
			tr.Ctx, tr.Parent = sctx, parent
			sp := tr.Start("store-get")
			sp.Int("tier", int64(tier)).Int("body_bytes", int64(len(rec.Body)))
			sp.End(obs.OutcomeOK)
			tr.Finish(obs.OutcomeOK)
			if tier > 0 {
				s.flight.Record(tr)
			}
			s.exportTrace(tr)
			if st := serverTiming(tr); st != "" {
				w.Header().Set("Server-Timing", st)
			}
		}
		if rec.Refined {
			// Header only: the stored body already says refined, and the
			// bytes must replay unchanged for the hit to stay byte-stable.
			w.Header().Set("X-Lsmsd-Refined", "true")
		}
		s.writeRaw(w, rec.Status, rec.Body, label)
		s.logRequest(reqID, loop.Name, schedName, rec.Status, label, "cache-hit", time.Since(start))
		return
	}
	s.m.storeMiss()

	// Tier 2: singleflight — concurrent identical requests share one
	// compilation and its response bytes.
	c, leader := s.flights.join(hash)
	if !leader {
		s.m.deduped.Inc()
		// The waiter's own trace: one span covering the wait, under the
		// caller's TraceID (the leader's compile has its own). Both are
		// opened before the select so the span measures the wait it is
		// named for; a cancelled wait just discards them (nil-safe).
		var wtr *obs.Trace
		var wsp *obs.Span
		if s.exporter != nil && sctx.Sampled {
			wtr = obs.NewTrace(reqID, loop.Name)
			wtr.Scheduler = schedName
			wtr.Ctx, wtr.Parent = sctx, parent
			wsp = wtr.Start("dedup-wait")
		}
		select {
		case <-c.done:
			wsp.End(obs.OutcomeOK)
			wtr.Finish(obs.OutcomeOK)
			s.exportTrace(wtr)
			s.writeRaw(w, c.out.status, c.out.body, "dedup")
			s.logRequest(reqID, loop.Name, schedName, c.out.status, "dedup", c.out.name, time.Since(start))
		case <-r.Context().Done():
			s.writeError(w, http.StatusServiceUnavailable, &wire.Error{
				Kind: wire.ErrKindInternal, Message: "client canceled while waiting for a duplicate in-flight compile",
			}, "")
		}
		return
	}

	// Tier 3: admission control, then a worker slot. admitAndCompile
	// writes cacheable outcomes through the store itself, finishes the
	// trace, and exports it when sampled.
	tr := obs.NewTrace(reqID, loop.Name)
	tr.Scheduler = schedName
	tr.Ctx, tr.Parent = sctx, parent
	out := s.admitAndCompile(r.Context(), norm, loop, schedName, hash, reqID, scr.tail, &scr.sm, tr)
	s.flights.finish(hash, c, out)
	if s.refine != nil && out.cacheable && out.status == http.StatusOK &&
		out.name == obs.OutcomeOK && schedName != string(core.SchedExact) {
		// Background refinement rides on the cold compile that created the
		// store record. The job owns a copy of the raw request (the decode
		// scratch is pooled) and references the response bytes (immutable
		// once published). The request's span context rides along as the
		// link target: the refine trace is caused by this request without
		// being nested under it.
		s.refine.enqueue(refineJob{
			hash:      hash,
			reqID:     reqID,
			schedName: schedName,
			loopName:  loop.Name,
			rawReq:    append([]byte(nil), body...),
			baseBody:  out.body,
			link:      sctx,
		})
	}
	if st := serverTiming(tr); st != "" {
		w.Header().Set("Server-Timing", st)
	}
	s.writeRaw(w, out.status, out.body, "miss")
	s.logRequest(reqID, loop.Name, schedName, out.status, "miss", out.name, time.Since(start))
}

// reqScratch is the pooled per-request decode state: the body buffer,
// the wire decode scratch (envelope, loop document, request struct),
// the event tail recorder, and the compile's scheduler metrics. A
// worker that has served a request of a given size serves the next one
// of that size without allocating any of them. One scratch belongs to one request from Get to release; the
// response bytes it produces are freshly allocated (they outlive the
// request in the result cache and singleflight waiters), so nothing the
// scratch owns escapes the handler.
type reqScratch struct {
	body []byte
	dec  wire.Scratch
	tail *sched.TailRecorder
	sm   sched.Metrics
}

var reqScratchPool = sync.Pool{
	New: func() any { return &reqScratch{tail: sched.NewTailRecorder(0)} },
}

// release drops every reference to request data — decoded strings, the
// loop document's contents, the recorded event tail — while keeping the
// buffers' capacity, then returns the scratch to the pool.
func (scr *reqScratch) release() {
	scr.body = scr.body[:0]
	scr.dec.Reset()
	scr.tail.Reset()
	reqScratchPool.Put(scr)
}

// readBody reads r to EOF into *buf, reusing its capacity.
func readBody(r io.Reader, buf *[]byte) ([]byte, error) {
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			*buf = b
			return b, nil
		}
		if err != nil {
			*buf = b
			return nil, err
		}
	}
}

// admitAndCompile runs the admission-controlled compilation and
// serializes its outcome, recording the request's trace — spans from
// every pipeline stage plus, for failed or degraded runs, the tail of
// the scheduler event stream — into the flight recorder and, when the
// trace is sampled, the exporter; sm aggregates the compile's event
// stream and is folded into the registry afterwards. The caller builds
// tr (stamped with the request's span context); rejected or
// canceled-in-queue requests return before the trace starts and leave
// it unfinished.
func (s *Server) admitAndCompile(ctx context.Context, norm *wire.Request, loop *ir.Loop, schedName, hash, reqID string, tail *sched.TailRecorder, sm *sched.Metrics, tr *obs.Trace) outcome {
	s.m.queueDepth.Observe(float64(s.adm.waiting()))
	if !s.adm.tryEnter() {
		s.m.rejected.Inc()
		return s.errOutcome(http.StatusTooManyRequests, &wire.Error{
			Kind:    wire.ErrKindOverloaded,
			Message: fmt.Sprintf("admission queue full (%d running, %d waiting)", s.adm.running(), s.adm.waiting()),
		})
	}
	defer s.adm.leave()
	if err := s.adm.acquireWorker(ctx); err != nil {
		return s.errOutcome(http.StatusServiceUnavailable, &wire.Error{
			Kind: wire.ErrKindInternal, Message: fmt.Sprintf("canceled while queued: %v", err),
		})
	}
	defer s.adm.releaseWorker()

	cfg := norm.Options.SchedConfig()
	cfg.Budget.Deadline = s.effectiveDeadline(cfg.Budget.Deadline)
	cfg.Observer = sched.Tee(sm, tail)
	compiled, err := s.safeCompile(obs.WithTrace(ctx, tr), loop, core.Options{
		Scheduler:   core.SchedulerName(schedName),
		Config:      cfg,
		SkipCodegen: true,
		Degrade:     norm.Options.Degrade,
	})
	s.m.foldSched(sm)
	out := s.outcomeOf(norm, loop, schedName, hash, compiled, err)
	if out.cacheable {
		// Write-through under its own span: when the disk tier is
		// configured this is the request's only durable I/O, and the
		// flight recorder should show what it cost.
		sp := tr.Start("store-put")
		s.store.Put(hash, store.Record{Status: out.status, Machine: norm.Machine, Body: out.body})
		sp.Int("body_bytes", int64(len(out.body))).End(obs.OutcomeOK)
	}
	if err != nil {
		tr.Err = err.Error()
	}
	if out.name != obs.OutcomeOK {
		// Retention rule: only failed and degraded compiles carry their
		// event tail — that is where replaying the run matters.
		tail.AttachTail(tr)
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
	s.m.compileDone(schedName, out.name, tr.Dur.Seconds(), exID)
	return out
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

// panicError mirrors bench.LoopPanicError: one request's panic is
// recovered, stamped with its stack, and isolated to that request.
type panicError struct {
	Loop      string
	Recovered any
	Stack     []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("server: %s: panic: %v", e.Loop, e.Recovered)
}

// safeCompile is core.Compile behind a panic barrier.
func (s *Server) safeCompile(ctx context.Context, l *ir.Loop, opt core.Options) (c *core.Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, &panicError{Loop: l.Name, Recovered: r, Stack: debug.Stack()}
		}
	}()
	return core.Compile(ctx, l, opt)
}

// outcomeOf maps a compilation result onto the wire response and HTTP
// status, and decides cacheability.
func (s *Server) outcomeOf(norm *wire.Request, loop *ir.Loop, schedName, hash string, c *core.Compiled, err error) outcome {
	resp := &wire.Response{
		Hash:      hash,
		Loop:      loop.Name,
		Machine:   norm.Machine,
		Scheduler: schedName,
	}
	if c != nil && c.Result != nil {
		b := c.Result.Bounds
		resp.Bounds = wire.Bounds{ResMII: b.ResMII, RecMII: b.RecMII, MII: b.MII}
		resp.Effort = wire.EffortOf(c.Result.Stats)
	}

	var pe *panicError
	var be *sched.BudgetError
	switch {
	case err == nil:
		// fall through to the success body below
	case errors.As(err, &pe):
		return s.respOutcome(http.StatusInternalServerError, obs.OutcomePanic, resp, &wire.Error{
			Kind: wire.ErrKindPanic, Message: pe.Error(),
		}, false)
	case errors.As(err, &be):
		// The outcome label carries the exhausted bound (deadline,
		// central-iterations, ii-attempts, canceled), so the labelled
		// compile counters can tell cancellation from exhaustion.
		name := be.Reason
		if name == "" {
			name = obs.OutcomeBudgetExhausted
		}
		return s.respOutcome(http.StatusGatewayTimeout, name, resp, &wire.Error{
			Kind:    wire.ErrKindBudgetExhausted,
			Message: be.Error(),
			Reason:  be.Reason,
			MII:     be.MII,
			LastII:  be.LastII,
		}, false)
	case errors.Is(err, sched.ErrInfeasible):
		var ie *sched.InfeasibleError
		e := &wire.Error{Kind: wire.ErrKindInfeasible, Message: err.Error()}
		if errors.As(err, &ie) {
			e.MII, e.LastII = ie.MII, ie.LastII
		}
		// An infeasible verdict is deterministic for a given request
		// (the II ceiling is part of the content hash), so cache it.
		return s.respOutcome(http.StatusUnprocessableEntity, obs.OutcomeInfeasible, resp, e, true)
	default:
		return s.respOutcome(http.StatusInternalServerError, obs.OutcomeError, resp, &wire.Error{
			Kind: wire.ErrKindInternal, Message: err.Error(),
		}, false)
	}

	res := c.Result
	resp.OK = c.OK()
	resp.Degraded = c.Degraded
	if !c.OK() {
		// Defensive: core.Compile reports infeasibility via err,
		// so this branch only guards external Result producers.
		return s.respOutcome(http.StatusUnprocessableEntity, obs.OutcomeInfeasible, resp, &wire.Error{
			Kind:    wire.ErrKindInfeasible,
			Message: fmt.Sprintf("no feasible schedule (last II attempted %d)", res.FailedII),
			MII:     res.Bounds.MII,
			LastII:  res.FailedII,
		}, true)
	}
	name := obs.OutcomeOK
	if c.Degraded {
		name = obs.OutcomeDegraded
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
	if mii := res.Bounds.MII; mii > 0 {
		s.m.iiOverMII.Observe(float64(sc.II) / float64(mii))
	}
	s.m.maxLive.Observe(float64(c.RR.MaxLive))
	// Degraded schedules come from a wall-clock fallback and are not
	// reproducible; keep them out of the cache.
	return s.respOutcome(http.StatusOK, name, resp, nil, !c.Degraded)
}

func (s *Server) respOutcome(status int, name string, resp *wire.Response, e *wire.Error, cacheable bool) outcome {
	resp.Error = e
	body, err := json.Marshal(resp)
	if err != nil {
		body = []byte(fmt.Sprintf(`{"error":{"kind":%q,"message":%q}}`, wire.ErrKindInternal, err.Error()))
		status, cacheable = http.StatusInternalServerError, false
	}
	return outcome{status: status, name: name, body: body, cacheable: cacheable}
}

func (s *Server) errOutcome(status int, e *wire.Error) outcome {
	body, _ := json.Marshal(&wire.Response{Error: e})
	return outcome{status: status, name: e.Kind, body: body}
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.m.badRequests.Inc()
	s.writeError(w, http.StatusBadRequest, &wire.Error{
		Kind: wire.ErrKindBadRequest, Message: err.Error(),
	}, "")
}

func (s *Server) writeError(w http.ResponseWriter, status int, e *wire.Error, cacheState string) {
	body, _ := json.Marshal(&wire.Response{Error: e})
	s.writeRaw(w, status, body, cacheState)
}

// writeRaw writes a serialized response. cacheState ("hit", "miss",
// "dedup") lands in the X-Lsmsd-Cache header, never in the body, so
// cached replays stay byte-identical to the original response.
func (s *Server) writeRaw(w http.ResponseWriter, status int, body []byte, cacheState string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if cacheState != "" {
		h.Set("X-Lsmsd-Cache", cacheState)
	}
	if status == http.StatusTooManyRequests {
		secs := int(s.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		h.Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) handleSchedulers(w http.ResponseWriter, r *http.Request) {
	names := core.Schedulers()
	out := struct {
		Schedulers []core.SchedulerName `json:"schedulers"`
		Default    core.SchedulerName   `json:"default"`
	}{Schedulers: names, Default: core.SchedSlack}
	body, _ := json.Marshal(out)
	s.writeRaw(w, http.StatusOK, body, "")
}

// handleMachines lists the registered targets with their unit mixes,
// mirroring /v1/schedulers: what can this daemon compile for, and with
// what resources. Clients with a target the daemon has never heard of
// embed a machine_spec in the compile request instead.
func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	type unit struct {
		Name         string `json:"name"`
		Count        int    `json:"count"`
		NotPipelined bool   `json:"not_pipelined,omitempty"`
	}
	type target struct {
		Name  string `json:"name"`
		Units []unit `json:"units"`
	}
	descs := machine.Machines()
	out := struct {
		Machines []target `json:"machines"`
		Default  string   `json:"default"`
	}{Machines: make([]target, 0, len(descs)), Default: machine.PaperMachine}
	for _, d := range descs {
		t := target{Name: d.Name}
		for _, u := range d.Units() {
			t.Units = append(t.Units, unit{Name: u.Name, Count: u.Count, NotPipelined: u.NotPipelined})
		}
		out.Machines = append(out.Machines, t)
	}
	body, _ := json.Marshal(out)
	s.writeRaw(w, http.StatusOK, body, "")
}

// ready is the readiness verdict behind /readyz and lsmsd_slo_ready:
// the server is unready when draining, when the SLO burn rate exceeds
// the threshold in both windows, or when the refine queue is wedged
// solid. Each of these degrades readiness while /healthz (liveness)
// still answers 200 — the deploy orchestrator routes traffic away
// before anything restarts the process.
func (s *Server) ready() (bool, string) {
	if s.gate.isDraining() {
		return false, "draining"
	}
	if s.slo.Burning(s.cfg.SLOBurnThreshold) {
		return false, "slo-burn"
	}
	if s.refine != nil && cap(s.refine.jobs) > 0 && len(s.refine.jobs) == cap(s.refine.jobs) {
		return false, "refine-wedged"
	}
	return true, "ok"
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.ready()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	snap := s.slo.Snapshot()
	out := struct {
		Ready     bool    `json:"ready"`
		Reason    string  `json:"reason"`
		BurnShort float64 `json:"burn_rate_5m"`
		BurnLong  float64 `json:"burn_rate_1h"`
		BurnMax   float64 `json:"burn_threshold"`
	}{ready, reason, snap.Short.BurnRate(), snap.Long.BurnRate(), s.cfg.SLOBurnThreshold}
	body, _ := json.Marshal(out)
	s.writeRaw(w, code, body, "")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.gate.isDraining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	out := struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Workers       int     `json:"workers"`
		Running       int     `json:"running"`
		Waiting       int     `json:"waiting"`
		CacheEntries  int     `json:"cache_entries"`
	}{status, time.Since(s.started).Seconds(), s.cfg.Workers, s.adm.running(), s.adm.waiting(), s.store.Len()}
	body, _ := json.Marshal(out)
	s.writeRaw(w, code, body, "")
}
