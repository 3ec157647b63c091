package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceFormat names the export document format: OTLP/JSON's
// resourceSpans shape under an explicit version tag, so a future
// lsms-trace/2 can change the layout without ambiguity. Any OTLP-aware
// tool that accepts ExportTraceServiceRequest JSON can ingest the
// resourceSpans value as-is.
const TraceFormat = "lsms-trace/1"

// Exporter ships finished traces out of the process in the background:
// to a spool directory (one lsms-trace/1 JSON file per trace) or to an
// HTTP collector endpoint. Export is non-blocking and never touches
// the request path's latency — a full queue drops the trace and counts
// the drop, the same load-shedding discipline the admission layer
// applies to compiles. Only sampled traces should be offered (the
// caller owns the head-sampling decision; see Sample).
type Exporter struct {
	dir    string
	url    string
	client *http.Client

	ch       chan *Trace
	wg       sync.WaitGroup
	seq      atomic.Uint64
	exported atomic.Uint64
	dropped  atomic.Uint64
	failed   atomic.Uint64

	// mu serializes Export's channel send against Close's close(ch):
	// senders hold it shared, Close holds it exclusive while flipping
	// closed, so no send can race the close and panic. Late Exports
	// (shutdown overlaps in-flight handlers and warm-start goroutines)
	// see closed and count a drop instead.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once
}

// ExporterConfig configures an Exporter; exactly one of Dir or URL
// should be set (Dir wins when both are).
type ExporterConfig struct {
	// Dir is the spool directory; each trace becomes
	// trace-<seq>-<traceid>.json.
	Dir string
	// URL is an HTTP collector endpoint; each trace is POSTed as one
	// lsms-trace/1 JSON document.
	URL string
	// Queue bounds the export backlog; default 256. A full queue drops.
	Queue int
	// Client overrides the HTTP client used for URL mode (tests).
	Client *http.Client
}

// NewExporter starts the background export worker. Dir mode fails fast
// when the spool directory cannot be created or written — like an
// unopenable store directory, a misconfigured spool should fail the
// boot, not silently drop every trace.
func NewExporter(cfg ExporterConfig) (*Exporter, error) {
	if cfg.Dir == "" && cfg.URL == "" {
		return nil, fmt.Errorf("obs: exporter needs a spool dir or a collector URL")
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("obs: trace spool: %w", err)
		}
		probe := filepath.Join(cfg.Dir, ".probe")
		if err := os.WriteFile(probe, nil, 0o644); err != nil {
			return nil, fmt.Errorf("obs: trace spool not writable: %w", err)
		}
		os.Remove(probe)
	}
	q := cfg.Queue
	if q <= 0 {
		q = 256
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	e := &Exporter{dir: cfg.Dir, url: cfg.URL, client: client, ch: make(chan *Trace, q)}
	e.wg.Add(1)
	go e.run()
	return e, nil
}

// Export offers a finished trace to the background worker. Non-blocking
// and nil-safe (a nil exporter absorbs everything): returns false and
// counts a drop when the queue is full or the exporter is closed.
func (e *Exporter) Export(t *Trace) bool {
	if e == nil || t == nil {
		return false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.dropped.Add(1)
		return false
	}
	select {
	case e.ch <- t:
		return true
	default:
		e.dropped.Add(1)
		return false
	}
}

// ExportStats is a snapshot of the exporter's lifetime counters.
type ExportStats struct {
	// Exported counts traces successfully written or posted.
	Exported uint64
	// Dropped counts traces rejected because the queue was full.
	Dropped uint64
	// Failed counts traces dequeued but not delivered (write or POST
	// error); each failure is also logged nowhere — the counter is the
	// signal, scraped as lsmsd_trace_export_failures_total.
	Failed uint64
}

// Stats returns the lifetime counters.
func (e *Exporter) Stats() ExportStats {
	if e == nil {
		return ExportStats{}
	}
	return ExportStats{
		Exported: e.exported.Load(),
		Dropped:  e.dropped.Load(),
		Failed:   e.failed.Load(),
	}
}

// Close drains the queue, delivers what it can, and stops the worker.
// Export calls that arrive during or after Close return false and count
// a drop — they never panic on the closed channel. Idempotent.
func (e *Exporter) Close() error {
	if e == nil {
		return nil
	}
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		close(e.ch)
		e.mu.Unlock()
	})
	e.wg.Wait()
	return nil
}

func (e *Exporter) run() {
	defer e.wg.Done()
	for t := range e.ch {
		if err := e.deliver(t); err != nil {
			e.failed.Add(1)
		} else {
			e.exported.Add(1)
		}
	}
}

func (e *Exporter) deliver(t *Trace) error {
	doc, err := MarshalTrace(t)
	if err != nil {
		return err
	}
	if e.dir != "" {
		name := fmt.Sprintf("trace-%06d-%s.json", e.seq.Add(1), t.Ctx.TraceID)
		return spool(e.dir, name, doc)
	}
	resp, err := e.client.Post(e.url, "application/json", bytes.NewReader(doc))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("obs: collector returned %d", resp.StatusCode)
	}
	return nil
}

// spool writes doc to dir/name atomically: it writes a temp file in the
// same directory and renames it into place, so a reader listing the
// spool never sees a partial document. The temp name starts with a dot
// and ends in .tmp, so no trace-*.json pattern matches it.
func spool(dir, name string, doc []byte) error {
	tmp, err := os.CreateTemp(dir, ".trace-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(doc)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// The lsms-trace/1 document shape: OTLP/JSON resourceSpans with the
// fields this pipeline populates. Field names and nesting match
// opentelemetry-proto's JSON mapping (camelCase, stringified uint64
// nanos) so the documents load into OTLP tooling unmodified.

// TraceDoc is one exported trace.
type TraceDoc struct {
	Format        string          `json:"format"`
	ResourceSpans []ResourceSpans `json:"resourceSpans"`
}

// ResourceSpans groups the spans of one resource (here: one process).
type ResourceSpans struct {
	Resource   Resource     `json:"resource"`
	ScopeSpans []ScopeSpans `json:"scopeSpans"`
}

// Resource carries process-identifying attributes.
type Resource struct {
	Attributes []KeyValue `json:"attributes,omitempty"`
}

// ScopeSpans groups spans produced by one instrumentation scope.
type ScopeSpans struct {
	Scope Scope      `json:"scope"`
	Spans []SpanData `json:"spans"`
}

// Scope names the instrumentation that produced the spans.
type Scope struct {
	Name string `json:"name"`
}

// SpanData is one OTLP span.
type SpanData struct {
	TraceID      string     `json:"traceId"`
	SpanID       string     `json:"spanId"`
	ParentSpanID string     `json:"parentSpanId,omitempty"`
	Name         string     `json:"name"`
	Kind         int        `json:"kind,omitempty"` // 2 = SPAN_KIND_SERVER
	StartNano    string     `json:"startTimeUnixNano"`
	EndNano      string     `json:"endTimeUnixNano"`
	Attributes   []KeyValue `json:"attributes,omitempty"`
	Links        []SpanLink `json:"links,omitempty"`
	Status       SpanStatus `json:"status"`
}

// SpanLink points at a span in another trace.
type SpanLink struct {
	TraceID string `json:"traceId"`
	SpanID  string `json:"spanId"`
}

// SpanStatus is the OTLP status enum (JSON mapping uses the code
// number: 0 unset, 1 ok, 2 error).
type SpanStatus struct {
	Code    int    `json:"code"`
	Message string `json:"message,omitempty"`
}

// KeyValue is one OTLP attribute.
type KeyValue struct {
	Key   string   `json:"key"`
	Value AnyValue `json:"value"`
}

// AnyValue is the OTLP attribute value union (the two arms this
// pipeline uses).
type AnyValue struct {
	Str *string `json:"stringValue,omitempty"`
	Int *string `json:"intValue,omitempty"` // OTLP JSON stringifies int64
}

func strAttr(k, v string) KeyValue {
	return KeyValue{Key: k, Value: AnyValue{Str: &v}}
}

func intAttr(k string, v int64) KeyValue {
	s := strconv.FormatInt(v, 10)
	return KeyValue{Key: k, Value: AnyValue{Int: &s}}
}

func nano(t time.Time) string {
	return strconv.FormatInt(t.UnixNano(), 10)
}

// statusOf maps a span/trace outcome onto the OTLP status enum: ok and
// still-acceptable verdicts (degraded, infeasible — the service
// answered correctly) are OK; budget exhaustions, errors, and panics
// are ERROR with the outcome as the message.
func statusOf(outcome string) SpanStatus {
	switch outcome {
	case OutcomeOK, OutcomeDegraded, OutcomeInfeasible, "":
		return SpanStatus{Code: 1}
	default:
		return SpanStatus{Code: 2, Message: outcome}
	}
}

// MarshalTrace renders one finished trace as an lsms-trace/1 document:
// a root span for the whole request and one child span per pipeline
// phase, all under the trace's W3C context. Child span IDs are derived
// deterministically from the root span ID, so re-exporting the same
// trace yields byte-identical output (the golden-fixture contract).
// Traces without a span context (purely local runs) get a zero trace
// ID and are still valid documents — but servers only export traces
// they gave a context to.
func MarshalTrace(t *Trace) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("obs: cannot export a nil trace")
	}
	root := SpanData{
		TraceID:   t.Ctx.TraceID.String(),
		SpanID:    t.Ctx.SpanID.String(),
		Name:      "compile-request",
		Kind:      2, // SPAN_KIND_SERVER
		StartNano: nano(t.Began),
		EndNano:   nano(t.Began.Add(t.Dur)),
		Status:    statusOf(t.Outcome),
	}
	if !t.Parent.IsZero() {
		root.ParentSpanID = t.Parent.SpanID.String()
	}
	root.Attributes = append(root.Attributes,
		strAttr("lsms.request_id", t.ID),
		strAttr("lsms.loop", t.Name),
	)
	if t.Scheduler != "" {
		root.Attributes = append(root.Attributes, strAttr("lsms.scheduler", t.Scheduler))
	}
	if t.Outcome != "" {
		root.Attributes = append(root.Attributes, strAttr("lsms.outcome", t.Outcome))
	}
	if t.Culprit != "" {
		root.Attributes = append(root.Attributes, strAttr("lsms.culprit", t.Culprit))
	}
	if t.Err != "" {
		root.Attributes = append(root.Attributes, strAttr("lsms.err", t.Err))
	}
	for _, link := range t.Links {
		root.Links = append(root.Links, SpanLink{
			TraceID: link.TraceID.String(),
			SpanID:  link.SpanID.String(),
		})
	}
	spans := make([]SpanData, 0, len(t.Spans)+1)
	spans = append(spans, root)
	for i, s := range t.Spans {
		sd := SpanData{
			TraceID:      root.TraceID,
			SpanID:       deriveSpanID(t.Ctx.SpanID, i).String(),
			ParentSpanID: root.SpanID,
			Name:         s.Name,
			StartNano:    nano(t.Began.Add(s.Start)),
			EndNano:      nano(t.Began.Add(s.Start + s.Dur)),
			Status:       statusOf(s.Outcome),
		}
		for _, a := range s.Attrs {
			if a.Str != "" {
				sd.Attributes = append(sd.Attributes, strAttr(a.Key, a.Str))
			} else {
				sd.Attributes = append(sd.Attributes, intAttr(a.Key, a.Int))
			}
		}
		spans = append(spans, sd)
	}
	doc := TraceDoc{
		Format: TraceFormat,
		ResourceSpans: []ResourceSpans{{
			Resource: Resource{Attributes: []KeyValue{strAttr("service.name", "lsmsd")}},
			ScopeSpans: []ScopeSpans{{
				Scope: Scope{Name: "repro/internal/obs"},
				Spans: spans,
			}},
		}},
	}
	return json.MarshalIndent(&doc, "", "  ")
}
