// Package obs is the observability layer of the compile pipeline: a
// span-based tracer threaded through frontend → mindist → mii
// → per-II scheduling attempts → regalloc → codegen, a flight recorder
// holding the last N compile traces, a Chrome trace_event exporter, and
// a dependency-free Prometheus exposition registry.
//
// The tracer is built for a hot path that almost never traces: every
// entry point is nil-safe, so code under measurement holds a *Trace
// (usually from FromContext) and calls Start/End unconditionally — when
// no trace is attached the calls are no-ops costing one nil check. A
// disabled pipeline therefore pays one context lookup per compile and
// nothing per placement, which is what keeps the lsms-bench full-sweep
// regression under the 2% budget.
//
// A Trace and its Spans belong to one compilation and are mutated from
// that compilation's goroutine only; once Finish has been called the
// trace is immutable and may be shared freely (the FlightRecorder's
// contract).
package obs

import (
	"context"
	"time"
)

// Outcome values stamped on spans and traces. A budget exhaustion is
// named by its sched.BudgetError Reason (deadline, central-iterations,
// ii-attempts, canceled), so a flight-recorder entry names it the same
// way the error does; sched.Outcome and core.Outcome pick the name.
const (
	OutcomeOK              = "ok"
	OutcomeInfeasible      = "infeasible"
	OutcomeDegraded        = "degraded"
	OutcomeError           = "error"
	OutcomePanic           = "panic"
	OutcomeBudgetExhausted = "budget-exhausted"
)

// Attr is one key/value annotation on a span. Values are int64 or
// string; the two-field split keeps span annotation allocation-free for
// the common counter case.
type Attr struct {
	Key string `json:"key"`
	Int int64  `json:"int,omitempty"`
	Str string `json:"str,omitempty"`
}

// Span is one timed phase of a compilation. Start/Dur are offsets from
// the owning trace's Began time, so spans serialize compactly and
// export to trace_event without clock arithmetic.
type Span struct {
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_us"`
	Dur     time.Duration `json:"dur_us"`
	Outcome string        `json:"outcome,omitempty"`
	Attrs   []Attr        `json:"attrs,omitempty"`

	began time.Time // absolute start, for computing Dur at End
}

// Int annotates the span with an integer attribute. Nil-safe.
func (s *Span) Int(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Int: v})
	return s
}

// Str annotates the span with a string attribute. Nil-safe.
func (s *Span) Str(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v})
	return s
}

// End closes the span with an outcome. Nil-safe; a second End is
// ignored so defer-based closing composes with early explicit closes.
func (s *Span) End(outcome string) {
	if s == nil || s.Dur != 0 {
		return
	}
	s.Dur = time.Since(s.began)
	if s.Dur == 0 {
		s.Dur = 1 // distinguish "closed instantly" from "never closed"
	}
	s.Outcome = outcome
}

// Trace is the record of one compilation: identity, the span list in
// start order, the overall outcome, and (for failed or degraded runs)
// the tail of the scheduler's typed event stream.
type Trace struct {
	// ID is the request or run identifier (server request ID, or the
	// loop name for CLI runs).
	ID string `json:"id"`
	// Name is the compiled loop's name.
	Name string `json:"name"`
	// Scheduler is the policy that ran (may be empty pre-compile).
	Scheduler string    `json:"scheduler,omitempty"`
	Began     time.Time `json:"began"`
	// Dur is the whole-trace wall time, set by Finish.
	Dur     time.Duration `json:"dur_us"`
	Outcome string        `json:"outcome,omitempty"`
	Err     string        `json:"err,omitempty"`
	// Culprit names the span that consumed the budget (or otherwise
	// matches the failing outcome); see Finish.
	Culprit string  `json:"culprit,omitempty"`
	Spans   []*Span `json:"spans"`

	// Ctx is the trace's W3C span context — the TraceID shared with the
	// caller (or minted at the boundary), the root span's SpanID, and
	// the sampling verdict. Zero for purely local traces (CLI runs).
	Ctx SpanContext `json:"ctx,omitzero"`
	// Parent is the caller's span context when the request arrived with
	// a traceparent header: the exported root span's parentSpanId.
	Parent SpanContext `json:"parent,omitzero"`
	// Links are span links attached to the root span: the originating
	// request contexts of async work (refine-pool re-searches,
	// warm-start compiles), so an upgrade is attributable to the
	// request that caused it without pretending to be nested under it.
	Links []SpanContext `json:"links,omitempty"`

	// Tail is the bounded tail of the scheduler's event stream,
	// attached by the producer for failed or degraded runs only (the
	// flight recorder's retention rule). Elements are sched.Event
	// values; obs stays dependency-free by not naming the type.
	Tail []any `json:"tail,omitempty"`
	// TailDropped counts events that fell off the front of the tail.
	TailDropped int `json:"tail_dropped,omitempty"`
}

// NewTrace starts a trace. The zero cost of *not* calling it is the
// disabled path: a nil *Trace accepts every method below.
func NewTrace(id, name string) *Trace {
	return &Trace{ID: id, Name: name, Began: time.Now()}
}

// Start opens a span. Nil-safe: returns nil (itself accepting Int/Str/
// End) when the trace is nil.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	now := time.Now()
	s := &Span{Name: name, Start: now.Sub(t.Began), began: now}
	t.Spans = append(t.Spans, s)
	return s
}

// Finish closes the trace: stamps the outcome and total duration, and
// elects the culprit span — the most recent span whose outcome matches
// the trace's (the phase that was running when a budget tripped), or
// the longest span when none matches. Nil-safe.
func (t *Trace) Finish(outcome string) {
	if t == nil {
		return
	}
	t.Dur = time.Since(t.Began)
	t.Outcome = outcome
	for i := len(t.Spans) - 1; i >= 0; i-- {
		if t.Spans[i].Outcome == outcome {
			t.Culprit = t.Spans[i].Name
			return
		}
	}
	var longest *Span
	for _, s := range t.Spans {
		if longest == nil || s.Dur > longest.Dur {
			longest = s
		}
	}
	if longest != nil {
		t.Culprit = longest.Name
	}
}

// ctxKey is the context key Trace travels under.
type ctxKey struct{}

// WithTrace attaches the trace to the context; the pipeline's stages
// recover it with FromContext.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the attached trace, or nil — and every Trace and
// Span method accepts nil, so callers never branch on it.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
