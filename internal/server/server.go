// Package server implements lsmsd's HTTP service: modulo-scheduling
// compilation as admission-controlled, cached, observable traffic on
// top of the governed pipeline (core.Compile + sched.Budget).
//
// Endpoints:
//
//	POST /v1/compile    — compile one loop (wire.Request: source or IR form)
//	GET  /v1/schedulers — the registered scheduling policies
//	GET  /healthz       — liveness and pool occupancy
//	GET  /metrics       — Prometheus-style counters, including each
//	                      compile's sched.Stats summed
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
// (as a *core.PanicError), and Shutdown drains in-flight
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
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/store"
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
	if c.RefineWorkers <= 0 {
		c.RefineWorkers = 1
	}
	if c.RefineDeadline <= 0 {
		c.RefineDeadline = 5 * time.Second
	}
	if c.RefineNodes <= 0 {
		c.RefineNodes = 1 << 20
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

// writeJSON writes a serialized JSON response.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
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
	writeJSON(w, http.StatusOK, body)
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
	writeJSON(w, http.StatusOK, body)
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
	if s.refine != nil && len(s.refine.jobs) == refineQueue {
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
	writeJSON(w, code, body)
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
	writeJSON(w, code, body)
}
