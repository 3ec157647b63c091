package server

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
)

// metrics is the server's obs.Registry plus the handles the request
// path mutates. Every mutation and the whole scrape render run under
// the registry's one mutex, so a scrape observes a single consistent
// snapshot: a request counted in lsmsd_requests_total is also counted
// in exactly one tier/outcome counter — the guarantee the old
// per-atomic /metrics could not make (a scrape could land between the
// requests_total increment and the outcome increment and see totals
// that do not add up).
type metrics struct {
	reg *obs.Registry

	requests     *obs.Family
	hitsC        *obs.Family // lsmsd_cache_hits_total{tier}
	cacheMissesC *obs.Family
	deduped      *obs.Family
	rejected     *obs.Family
	badRequests  *obs.Family

	// Background refinement tier (Config.Refine); every started
	// refinement ends in exactly one of the three outcome counters.
	refineStarted   *obs.Family
	refineImproved  *obs.Family
	refineUnchanged *obs.Family
	refineExhausted *obs.Family

	// The scheduler/outcome-labelled view of finished compiles, and the
	// distribution histograms.
	compiles       *obs.Family // lsmsd_compiles_total{scheduler,outcome}
	compileSeconds *obs.Family // lsmsd_compile_seconds{scheduler,outcome}
	iiOverMII      *obs.Family // lsmsd_ii_over_mii
	maxLive        *obs.Family // lsmsd_maxlive
	queueDepth     *obs.Family // lsmsd_queue_depth

	// The Section 6 effort counters, lsmsd_sched_<field>_total for each
	// wire.Effort field, folded in once per compile (foldEffort).
	iiAttempts, centralIters, placements, forces, ejections, restarts *obs.Family

	// hits/lookups back the cache-hit-ratio gauge callback: a GaugeFunc
	// runs under the registry lock and therefore cannot read the
	// counter families, so the ratio derives from these mirrors.
	hits, lookups atomic.Int64
}

func newMetrics(s *Server) *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r}
	m.requests = r.Counter("lsmsd_requests_total", "Compile requests received.")
	m.hitsC = r.Counter("lsmsd_cache_hits_total", "Requests answered from a result-store tier: memory, or disk (served byte-identically across restarts).", "tier")
	m.hitsC.Add(0, "memory")
	m.hitsC.Add(0, "disk")
	m.cacheMissesC = r.Counter("lsmsd_cache_misses_total", "Requests that missed every result-store tier.")
	m.deduped = r.Counter("lsmsd_dedup_total", "Requests collapsed onto an identical in-flight compile.")
	m.rejected = r.Counter("lsmsd_rejected_total", "Requests rejected 429 by admission control.")
	m.badRequests = r.Counter("lsmsd_bad_requests_total", "Malformed or unresolvable requests.")
	m.refineStarted = r.Counter("lsmsd_refine_started_total", "Background exact refinements started.")
	m.refineImproved = r.Counter("lsmsd_refine_improved_total", "Refinements that strictly improved (II, MaxLive) and upgraded the store record.")
	m.refineUnchanged = r.Counter("lsmsd_refine_unchanged_total", "Refinements whose exact result did not beat the served schedule.")
	m.refineExhausted = r.Counter("lsmsd_refine_exhausted_total", "Refinements that ended without a usable exact result (budget, cancellation, decode failure).")

	m.compiles = r.Counter("lsmsd_compiles_total",
		"Finished compilations by scheduling policy and outcome.", "scheduler", "outcome")
	m.compileSeconds = r.Histogram("lsmsd_compile_seconds",
		"Wall time of one compilation, by scheduling policy and outcome.",
		obs.ExpBuckets(0.0005, 2, 16), "scheduler", "outcome")
	m.iiOverMII = r.Histogram("lsmsd_ii_over_mii",
		"Achieved II over the MII lower bound for feasible schedules (1 = optimal).",
		[]float64{1, 1.02, 1.05, 1.1, 1.2, 1.3, 1.5, 2, 3})
	m.maxLive = r.Histogram("lsmsd_maxlive",
		"MaxLive register pressure of feasible schedules.",
		obs.ExpBuckets(1, 2, 10))
	m.queueDepth = r.Histogram("lsmsd_queue_depth",
		"Admission queue depth observed as each request entered admission.",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128})

	r.GaugeFunc("lsmsd_running", "Compiles holding a worker slot.",
		func() float64 { return float64(s.adm.running()) })
	r.GaugeFunc("lsmsd_waiting", "Admitted requests queued for a worker.",
		func() float64 { return float64(s.adm.waiting()) })
	r.GaugeFunc("lsmsd_cache_entries", "Records held by the result store, summed over tiers.",
		func() float64 { return float64(s.store.Len()) })
	if s.disk != nil {
		r.GaugeFunc("lsmsd_store_records", "Records held by the persistent disk tier.",
			func() float64 { return float64(s.disk.Len()) })
		r.CounterFunc("lsmsd_store_rejects_total", "Store records rejected by checksum or framing verification (on load or on read); rejected records are never served.",
			func() float64 { return float64(s.disk.Stats().Rejects) })
	}
	r.GaugeFunc("lsmsd_cache_hit_ratio", "Cache hits over cache lookups since boot (0 before any lookup).",
		func() float64 {
			if n := m.lookups.Load(); n > 0 {
				return float64(m.hits.Load()) / float64(n)
			}
			return 0
		})
	r.GaugeFunc("lsmsd_flightrecorder_entries", "Compile traces held by the flight recorder.",
		func() float64 { return float64(s.flight.Len()) })
	// Arena pool health (process-wide: the sched arena pool is shared by
	// every compile in the process, not scoped to one Server).
	r.GaugeFunc("lsmsd_arena_inuse", "Pooled scheduler scratch arenas held by in-flight compiles.",
		func() float64 { inUse, _ := sched.ArenaStats(); return float64(inUse) })
	r.CounterFunc("lsmsd_arena_recycled_total", "Scheduler scratch arenas returned to the pool since process start.",
		func() float64 { _, recycled := sched.ArenaStats(); return float64(recycled) })

	// Build identity: the conventional *_build_info constant-1 gauge
	// whose labels say what is running where.
	obs.RegisterBuildInfo(r, "lsmsd_build_info",
		"Build identity of the running lsmsd binary (constant 1; the labels carry the information).",
		[]string{"machines"}, []string{strconv.Itoa(len(machine.Machines()))})

	// Trace exporter health. The closures read s.exporter at scrape time
	// (Stats is nil-safe), so a tracing-off daemon scrapes zeros.
	r.CounterFunc("lsmsd_trace_exported_total", "Traces written to the spool or posted to the collector.",
		func() float64 { return float64(s.exporter.Stats().Exported) })
	r.CounterFunc("lsmsd_trace_dropped_total", "Sampled traces dropped because the export queue was full.",
		func() float64 { return float64(s.exporter.Stats().Dropped) })
	r.CounterFunc("lsmsd_trace_export_failures_total", "Traces dequeued but not delivered (spool write or collector POST failed).",
		func() float64 { return float64(s.exporter.Stats().Failed) })

	// SLO families, derived from the rolling multi-window tracker. Each
	// GaugeFunc snapshots the ring at scrape time — scrape-rate work.
	r.GaugeFunc("lsmsd_slo_objective", "Configured success-rate objective.",
		func() float64 { return s.slo.Snapshot().Objective })
	r.GaugeFunc("lsmsd_slo_requests_1h", "Requests observed by the SLO tracker in the last hour.",
		func() float64 { return float64(s.slo.Snapshot().Long.Total) })
	r.GaugeFunc("lsmsd_slo_errors_1h", "Budget-spending (5xx) responses in the last hour.",
		func() float64 { return float64(s.slo.Snapshot().Long.Errors) })
	r.GaugeFunc("lsmsd_slo_success_ratio_5m", "Success ratio over the 5-minute window (1 when the window is empty).",
		func() float64 { return s.slo.Snapshot().Short.SuccessRate })
	r.GaugeFunc("lsmsd_slo_burn_rate_5m", "Error-budget burn rate over the 5-minute window (1 = sustainable pace; worse of error and latency burns).",
		func() float64 { return s.slo.Snapshot().Short.BurnRate() })
	r.GaugeFunc("lsmsd_slo_burn_rate_1h", "Error-budget burn rate over the 1-hour window.",
		func() float64 { return s.slo.Snapshot().Long.BurnRate() })
	r.GaugeFunc("lsmsd_slo_ready", "The /readyz verdict: 1 ready, 0 degraded (draining, burning, or wedged refine queue).",
		func() float64 {
			if ok, _ := s.ready(); ok {
				return 1
			}
			return 0
		})

	effort := func(name, help string) *obs.Family {
		f := r.Counter("lsmsd_sched_"+name+"_total", help+" Summed over compiles; a response's effort field carries its own.")
		f.Add(0)
		return f
	}
	m.iiAttempts = effort("ii_attempts", "II values tried.")
	m.centralIters = effort("central_iters", "Central-loop iterations (exact: search nodes).")
	m.placements = effort("placements", "Operations placed, re-placements included.")
	m.forces = effort("forces", "Window scans that found no conflict-free cycle (step 3).")
	m.ejections = effort("ejections", "Operations ejected from partial schedules.")
	m.restarts = effort("restarts", "II attempts abandoned at the ejection budget (step 6).")
	return m
}

// hit / storeMiss keep the hit-ratio mirrors in step with the counter
// families. A hit from any tier counts toward the ratio; the family
// splits it by tier ("memory" or "disk").
func (m *metrics) hit(tier string) {
	m.hitsC.Inc(tier)
	m.hits.Add(1)
	m.lookups.Add(1)
}

func (m *metrics) storeMiss() {
	m.cacheMissesC.Inc()
	m.lookups.Add(1)
}

// compileDone records the labelled counter and latency histogram for
// one finished compilation. traceID, when non-empty, becomes the
// exemplar on the histogram bucket the observation lands in — the
// trace-correlation channel that never touches label cardinality.
func (m *metrics) compileDone(scheduler, outcome string, seconds float64, traceID string) {
	m.compiles.Inc(scheduler, outcome)
	m.compileSeconds.ObserveExemplar(seconds, "trace_id", traceID, scheduler, outcome)
}

// foldEffort adds one compile's Section 6 counters to the effort
// families: the sums of the effort fields of the responses built from
// those compiles.
func (m *metrics) foldEffort(st sched.Stats) {
	m.iiAttempts.Add(float64(st.IIAttempts))
	m.centralIters.Add(float64(st.CentralIters))
	m.placements.Add(float64(st.Placements))
	m.forces.Add(float64(st.Forces))
	m.ejections.Add(float64(st.Ejections))
	m.restarts.Add(float64(st.Restarts))
}

// handleMetrics renders the registry in the Prometheus text exposition
// format — scrapeable, lintable (obs.LintExposition), and
// dependency-free — under the registry's one lock, so a scrape is one
// consistent snapshot.
//
// The format is negotiated: the default is the classic 0.0.4 text
// format, in which exemplar syntax is illegal and therefore omitted; a
// scraper whose Accept header asks for application/openmetrics-text
// gets the OpenMetrics render — histogram exemplars included,
// terminated by the mandatory "# EOF" line.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	if obs.AcceptsOpenMetrics(r.Header.Get("Accept")) {
		s.m.reg.WriteOpenMetrics(&b)
		b.WriteString("# EOF\n")
		w.Header().Set("Content-Type", obs.OpenMetricsContentType)
	} else {
		s.m.reg.WriteText(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	w.Write([]byte(b.String()))
}
