package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/wire"
)

const fixedTraceparent = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"

// postTraced posts a compile request carrying a traceparent header.
func postTraced(t *testing.T, url string, body []byte, traceparent string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// spoolDocs polls dir until pred accepts at least one exported trace
// document (export is asynchronous), returning every accepted doc.
func spoolDocs(t *testing.T, dir string, pred func(*obs.TraceDoc) bool) []*obs.TraceDoc {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var hits []*obs.TraceDoc
		names, _ := filepath.Glob(filepath.Join(dir, "trace-*.json"))
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				continue
			}
			doc := new(obs.TraceDoc)
			if err := json.Unmarshal(b, doc); err != nil || doc.Format != obs.TraceFormat {
				t.Fatalf("spool file %s (format %q) is not lsms-trace/1: %v", name, doc.Format, err)
			}
			if pred(doc) {
				hits = append(hits, doc)
			}
		}
		if len(hits) > 0 {
			return hits
		}
		if time.Now().After(deadline) {
			t.Fatalf("no matching trace in spool %s (%d files)", dir, len(names))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func rootSpan(t *testing.T, doc *obs.TraceDoc) obs.SpanData {
	t.Helper()
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) == 0 {
		t.Fatal("trace document has no spans")
	}
	return spans[0]
}

// TestTraceparentEchoAndSpool is the tentpole's end-to-end contract: a
// request arriving with a sampled W3C traceparent keeps its TraceID
// through the whole pipeline — the response echoes it under a
// server-minted span, the spooled lsms-trace/1 document roots at it
// with the caller's span as parent, and the pipeline stages show up
// both as child spans and as a Server-Timing breakdown.
func TestTraceparentEchoAndSpool(t *testing.T) {
	spool := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, TraceDir: spool})
	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})

	resp, out := postTraced(t, ts.URL, body, fixedTraceparent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	echo, err := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if err != nil {
		t.Fatalf("response traceparent: %v", err)
	}
	if echo.TraceID.String() != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("response joined the wrong trace: %s", echo.TraceID)
	}
	if echo.SpanID.String() == "0123456789abcdef" {
		t.Fatal("server must mint its own span, not echo the caller's")
	}
	if !echo.Sampled {
		t.Fatal("caller-sampled request lost its sampled flag")
	}
	st := resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "schedule;dur=") {
		t.Fatalf("Server-Timing missing the schedule stage: %q", st)
	}

	docs := spoolDocs(t, spool, func(d *obs.TraceDoc) bool {
		return rootSpan(t, d).TraceID == "0123456789abcdef0123456789abcdef"
	})
	root := rootSpan(t, docs[0])
	if root.Name != "compile-request" {
		t.Fatalf("root span %q", root.Name)
	}
	if root.ParentSpanID != "0123456789abcdef" {
		t.Fatalf("root parent %q, want the caller's span", root.ParentSpanID)
	}
	if root.SpanID != echo.SpanID.String() {
		t.Fatalf("spooled root span %s != echoed span %s", root.SpanID, echo.SpanID)
	}
	var stages []string
	for _, sp := range docs[0].ResourceSpans[0].ScopeSpans[0].Spans[1:] {
		stages = append(stages, sp.Name)
	}
	joined := strings.Join(stages, " ")
	if !strings.Contains(joined, "schedule") || !strings.Contains(joined, "store-put") {
		t.Fatalf("pipeline stages missing from trace: %v", stages)
	}
}

// TestTraceRootGeneratedWhenAbsent: a bare request (no traceparent, or
// a malformed one) still gets a root trace and a valid response header.
func TestTraceRootGeneratedWhenAbsent(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})

	resp, _ := post(t, ts.URL, body)
	sc, err := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if err != nil {
		t.Fatalf("generated traceparent invalid: %v", err)
	}
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		t.Fatal("generated root has zero IDs")
	}

	resp2, _ := postTraced(t, ts.URL, body, "garbage-header")
	sc2, err := obs.ParseTraceparent(resp2.Header.Get("Traceparent"))
	if err != nil {
		t.Fatalf("traceparent after malformed input: %v", err)
	}
	if sc2.TraceID == sc.TraceID {
		t.Fatal("fresh trace expected for a malformed traceparent")
	}
}

// TestTraceSamplingNegativeDropsLocalRoots: -trace-sample < 0 turns off
// locally rooted sampling, but a caller-sampled traceparent still wins
// — the upstream already committed to the trace.
func TestTraceSamplingNegativeDropsLocalRoots(t *testing.T) {
	spool := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, TraceDir: spool, TraceSample: -1})
	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})

	resp, _ := post(t, ts.URL, body)
	if sc, err := obs.ParseTraceparent(resp.Header.Get("Traceparent")); err != nil || sc.Sampled {
		t.Fatalf("local root should be unsampled (err %v)", err)
	}
	resp2, _ := postTraced(t, ts.URL, body, fixedTraceparent)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	docs := spoolDocs(t, spool, func(d *obs.TraceDoc) bool { return true })
	for _, d := range docs {
		if id := rootSpan(t, d).TraceID; id != "0123456789abcdef0123456789abcdef" {
			t.Fatalf("unsampled trace %s leaked into the spool", id)
		}
	}
}

// TestRefineTraceLinked: the background refinement runs under its own
// TraceID (it outlives the request) but carries a span link back to the
// compile request that caused it — the async-causality half of the
// tracing story.
func TestRefineTraceLinked(t *testing.T) {
	spool := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, Refine: true, TraceDir: spool})
	body := requestBody(t, kernelLoop(t, "triad"), "slack", wire.Options{})

	resp, out := postTraced(t, ts.URL, body, fixedTraceparent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	waitRefined(t, ts.URL, body)

	docs := spoolDocs(t, spool, func(d *obs.TraceDoc) bool {
		root := d.ResourceSpans[0].ScopeSpans[0].Spans[0]
		for _, l := range root.Links {
			if l.TraceID == "0123456789abcdef0123456789abcdef" {
				return true
			}
		}
		return false
	})
	root := rootSpan(t, docs[0])
	if root.TraceID == "0123456789abcdef0123456789abcdef" {
		t.Fatal("refine trace must root a fresh TraceID, not nest in the request's")
	}
	var refined bool
	for _, sp := range docs[0].ResourceSpans[0].ScopeSpans[0].Spans {
		if strings.Contains(sp.Name, "refine") {
			refined = true
		}
	}
	if !refined {
		t.Fatalf("linked trace has no refine span")
	}
}

// TestWarmStartTracesLinked: warm-start compiles trace like background
// work — fresh TraceIDs, linked to one shared warm-start root.
func TestWarmStartTracesLinked(t *testing.T) {
	spool := t.TempDir()
	s, _ := newTestServer(t, Config{Workers: 2, TraceDir: spool})
	req, err := wire.NewRequest(fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.WarmStart(context.Background(), []*wire.Request{req})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compiled != 1 {
		t.Fatalf("warm stats %+v", stats)
	}
	docs := spoolDocs(t, spool, func(d *obs.TraceDoc) bool {
		return len(rootSpan(t, d).Links) == 1
	})
	root := rootSpan(t, docs[0])
	if root.Links[0].TraceID == root.TraceID {
		t.Fatal("warm link must point outside the warm compile's own trace")
	}
}

// TestReadyzFlipsUnderErrorBurn: a sustained 5xx burn degrades /readyz
// (reason slo-burn) while /healthz stays 200 — readiness fails first,
// liveness only under drain. /debug/slo reports the burn with nonzero
// request counts.
func TestReadyzFlipsUnderErrorBurn(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, SLOBurnThreshold: 5})
	debug := httptest.NewServer(s.DebugHandler())
	defer debug.Close()

	getJSON := func(url string, out any) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}

	var rz struct {
		Ready  bool    `json:"ready"`
		Reason string  `json:"reason"`
		Burn5m float64 `json:"burn_rate_5m"`
	}
	if code := getJSON(ts.URL+"/readyz", &rz); code != http.StatusOK || !rz.Ready {
		t.Fatalf("fresh server unready: %d %+v", code, rz)
	}

	// Every request 500s: error rate 1.0 against a 1% budget is a burn
	// rate of 100 in both windows (all traffic is recent), over any
	// sane threshold.
	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "test-panic", wire.Options{})
	for i := 0; i < 5; i++ {
		resp, _ := post(t, ts.URL, body)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("test-panic returned %d", resp.StatusCode)
		}
	}

	if code := getJSON(ts.URL+"/readyz", &rz); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d %+v after full-burn traffic", code, rz)
	}
	if rz.Reason != "slo-burn" || rz.Burn5m < 5 {
		t.Fatalf("readyz verdict %+v", rz)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if code := getJSON(ts.URL+"/healthz", &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz should stay live under SLO burn: %d %+v", code, hz)
	}

	var slo struct {
		Short struct {
			Total  int64 `json:"total"`
			Errors int64 `json:"errors"`
		} `json:"short"`
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	getJSON(debug.URL+"/debug/slo", &slo)
	if slo.Short.Total < 5 || slo.Short.Errors < 5 {
		t.Fatalf("/debug/slo counts %+v", slo)
	}
	if slo.Ready || slo.Reason != "slo-burn" {
		t.Fatalf("/debug/slo verdict %+v", slo)
	}

	if v := metricValue(t, ts.URL, "lsmsd_slo_ready"); v != 0 {
		t.Fatalf("lsmsd_slo_ready = %d during burn", v)
	}
}

// TestFlightRecorderTraceFilter: flight entries carry the W3C TraceID,
// and ?trace=<id> narrows the dump to one trace's entries.
func TestFlightRecorderTraceFilter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	debug := httptest.NewServer(s.DebugHandler())
	defer debug.Close()

	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})
	resp, _ := postTraced(t, ts.URL, body, fixedTraceparent)
	sc, err := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if err != nil {
		t.Fatal(err)
	}
	// A second, unrelated compile to give the filter something to drop.
	post(t, ts.URL, requestBody(t, fixture.Reduction(machine.Cydra()), "slack", wire.Options{}))

	var dump struct {
		Total   int `json:"total_recorded"`
		Entries []struct {
			Ctx obs.SpanContext `json:"ctx"`
		} `json:"entries"`
	}
	get := func(url string) {
		t.Helper()
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		dump.Entries = nil
		if err := json.NewDecoder(r.Body).Decode(&dump); err != nil {
			t.Fatal(err)
		}
	}
	get(debug.URL + "/debug/flightrecorder")
	if len(dump.Entries) != 2 {
		t.Fatalf("unfiltered dump has %d entries, want 2", len(dump.Entries))
	}
	get(debug.URL + "/debug/flightrecorder?trace=" + sc.TraceID.String())
	if len(dump.Entries) != 1 {
		t.Fatalf("filtered dump has %d entries, want 1", len(dump.Entries))
	}
	if got := dump.Entries[0].Ctx.TraceID.String(); got != sc.TraceID.String() {
		t.Fatalf("filtered entry belongs to trace %s", got)
	}
	if dump.Total != 2 {
		t.Fatalf("total_recorded %d should stay unfiltered", dump.Total)
	}
	get(debug.URL + "/debug/flightrecorder?trace=" + strings.Repeat("0", 32))
	if len(dump.Entries) != 0 {
		t.Fatalf("bogus trace ID matched %d entries", len(dump.Entries))
	}
}

// TestBuildInfoAndTraceMetrics: the build-info gauge and the trace
// exporter counters are on /metrics; a sampled compile lands an
// exemplar on the latency histogram, but only in the negotiated
// OpenMetrics render — the default classic 0.0.4 render must stay
// exemplar-free (exemplar syntax is illegal there and fails a stock
// Prometheus scrape). Both renders pass the linter.
func TestBuildInfoAndTraceMetrics(t *testing.T) {
	spool := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, TraceDir: spool})
	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})
	postTraced(t, ts.URL, body, fixedTraceparent)
	spoolDocs(t, spool, func(d *obs.TraceDoc) bool { return true })

	scrape := func(accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.Header.Get("Content-Type")
	}

	exemplar := `# {trace_id="0123456789abcdef0123456789abcdef"}`

	out, ctype := scrape("")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("default scrape content type %q", ctype)
	}
	for _, want := range []string{
		"lsmsd_build_info{",
		"lsmsd_trace_exported_total 1",
		"lsmsd_trace_dropped_total 0",
		"lsmsd_slo_objective 0.99",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, exemplar) {
		t.Fatalf("classic 0.0.4 scrape carries an exemplar (illegal syntax there):\n%s", out)
	}
	if errs := obs.LintExposition(strings.NewReader(out)); len(errs) > 0 {
		t.Fatalf("/metrics fails promlint: %v", errs)
	}

	om, ctype := scrape("application/openmetrics-text;version=1.0.0")
	if !strings.HasPrefix(ctype, "application/openmetrics-text") {
		t.Fatalf("OpenMetrics scrape content type %q", ctype)
	}
	for _, want := range []string{
		"lsmsd_trace_exported_total 1",
		"# TYPE lsmsd_requests counter",
		exemplar,
		"# EOF\n",
	} {
		if !strings.Contains(om, want) {
			t.Fatalf("OpenMetrics /metrics missing %q:\n%s", want, om)
		}
	}
	if errs := obs.LintExposition(strings.NewReader(om)); len(errs) > 0 {
		t.Fatalf("OpenMetrics /metrics fails promlint: %v", errs)
	}
}

// TestServerTimingAndRequestIDBytes pins the Server-Timing header and
// the minted request IDs byte for byte, against literals and against
// the fmt formatting they replaced: repeated span names sum in
// first-seen order, durations print in milliseconds to three places,
// and IDs are zero-padded to six digits, wider past 999,999.
func TestServerTimingAndRequestIDBytes(t *testing.T) {
	tr := &obs.Trace{Spans: []*obs.Span{
		{Name: "mindist", Dur: 1500 * time.Microsecond},
		{Name: "attempt", Dur: 2*time.Millisecond + 499*time.Nanosecond},
		{Name: "mindist", Dur: 250 * time.Microsecond},
		{Name: "store-put", Dur: 0},
		{Name: "attempt", Dur: 12345678 * time.Microsecond},
	}}
	const want = "mindist;dur=1.750,attempt;dur=12347.678,store-put;dur=0.000"
	if got := serverTiming(tr); got != want {
		t.Errorf("serverTiming = %q, want %q", got, want)
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
	if b.String() != want {
		t.Errorf("fmt rendering %q differs from the pinned %q", b.String(), want)
	}
	if got := serverTiming(&obs.Trace{}); got != "" {
		t.Errorf("serverTiming of a trace without spans = %q, want empty", got)
	}
	for n, want := range map[uint64]string{
		1: "req-000001", 42: "req-000042", 999999: "req-999999",
		1000000: "req-1000000", 123456789012: "req-123456789012", math.MaxUint64: "req-18446744073709551615",
	} {
		if got := requestID(n); got != want || got != fmt.Sprintf("req-%06d", n) {
			t.Errorf("requestID(%d) = %q, want %q", n, got, want)
		}
	}
}
