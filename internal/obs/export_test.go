package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the lsms-trace/1 golden fixture")

// goldenTrace builds a fully deterministic finished trace: fixed clock,
// fixed IDs, fixed span offsets. Everything MarshalTrace emits for it is
// a pure function of these values.
func goldenTrace() *Trace {
	began := time.Unix(1700000000, 0).UTC()
	tr := &Trace{
		ID:        "req-000042",
		Name:      "triad",
		Scheduler: "slack",
		Began:     began,
		Dur:       1500 * time.Microsecond,
		Outcome:   OutcomeOK,
	}
	copy(tr.Ctx.TraceID[:], []byte("0123456789abcdef"))
	copy(tr.Ctx.SpanID[:], []byte("fedcba98"))
	tr.Ctx.Sampled = true
	copy(tr.Parent.TraceID[:], []byte("0123456789abcdef"))
	copy(tr.Parent.SpanID[:], []byte("89abcdef"))
	tr.Parent.Sampled = true
	var link SpanContext
	copy(link.TraceID[:], []byte("fedcba9876543210"))
	copy(link.SpanID[:], []byte("01234567"))
	tr.Links = []SpanContext{link}
	tr.Spans = []*Span{
		{Name: "schedule", Start: 10 * time.Microsecond, Dur: 900 * time.Microsecond, Outcome: OutcomeOK,
			Attrs: []Attr{{Key: "ii", Int: 4}, {Key: "policy", Str: "slack"}}},
		{Name: "pressure", Start: 950 * time.Microsecond, Dur: 200 * time.Microsecond, Outcome: OutcomeOK},
		{Name: "store-put", Start: 1200 * time.Microsecond, Dur: 250 * time.Microsecond, Outcome: OutcomeOK,
			Attrs: []Attr{{Key: "body_bytes", Int: 512}}},
	}
	return tr
}

// TestMarshalTraceGolden pins the lsms-trace/1 byte layout: the same
// trace must marshal to the committed fixture byte for byte (child span
// IDs are derived, timestamps fixed), and the fixture must parse back
// through unmarshalTraceDoc with structure intact.
func TestMarshalTraceGolden(t *testing.T) {
	doc, err := MarshalTrace(goldenTrace())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(doc, want) {
		t.Fatalf("lsms-trace/1 output drifted from the golden fixture.\ngot:\n%s\nwant:\n%s", doc, want)
	}

	parsed, err := unmarshalTraceDoc(want)
	if err != nil {
		t.Fatal(err)
	}
	spans := parsed.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != 4 {
		t.Fatalf("want root + 3 children, got %d spans", len(spans))
	}
	root := spans[0]
	if root.Name != "compile-request" || root.Kind != 2 {
		t.Fatalf("bad root span: %+v", root)
	}
	if root.ParentSpanID == "" {
		t.Fatal("root should carry the caller's parentSpanId")
	}
	if len(root.Links) != 1 {
		t.Fatalf("root links: %+v", root.Links)
	}
	for _, child := range spans[1:] {
		if child.TraceID != root.TraceID {
			t.Fatalf("child %s left the trace", child.Name)
		}
		if child.ParentSpanID != root.SpanID {
			t.Fatalf("child %s not parented to the root", child.Name)
		}
	}
}

// unmarshalTraceDoc parses an lsms-trace/1 document, rejecting other
// format tags — the round-trip half of the export contract.
func unmarshalTraceDoc(b []byte) (*TraceDoc, error) {
	var doc TraceDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("obs: parsing trace document: %w", err)
	}
	if doc.Format != TraceFormat {
		return nil, fmt.Errorf("obs: trace document format %q, want %q", doc.Format, TraceFormat)
	}
	return &doc, nil
}

func TestUnmarshalTraceDocRejectsOtherFormats(t *testing.T) {
	if _, err := unmarshalTraceDoc([]byte(`{"format":"lsms-trace/2","resourceSpans":[]}`)); err == nil {
		t.Fatal("future format tag accepted")
	}
	if _, err := unmarshalTraceDoc([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestExporterSpoolsToDir(t *testing.T) {
	dir := t.TempDir()
	e, err := NewExporter(ExporterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tr := goldenTrace()
	if !e.Export(tr) {
		t.Fatal("export rejected")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "trace-*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("spool files %v (err %v)", names, err)
	}
	if !strings.Contains(names[0], tr.Ctx.TraceID.String()) {
		t.Fatalf("spool name %s missing the trace ID", names[0])
	}
	b, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unmarshalTraceDoc(b); err != nil {
		t.Fatalf("spooled document does not round-trip: %v", err)
	}
	if st := e.Stats(); st.Exported != 1 || st.Dropped != 0 || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// A reader polling the spool while the exporter writes must only ever
// see complete documents: spool files appear by rename, never by a
// create-then-write a reader can catch half done.
func TestExporterSpoolReaderSeesWholeDocuments(t *testing.T) {
	dir := t.TempDir()
	e, err := NewExporter(ExporterConfig{Dir: dir, Queue: 512})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	checked := make(chan int)
	go func() {
		seen := map[string]bool{}
		for {
			select {
			case <-stop:
				checked <- len(seen)
				return
			default:
			}
			names, _ := filepath.Glob(filepath.Join(dir, "trace-*.json"))
			for _, name := range names {
				if seen[name] {
					continue
				}
				b, err := os.ReadFile(name)
				if err != nil {
					t.Errorf("reading listed spool file %s: %v", name, err)
					continue
				}
				if _, err := unmarshalTraceDoc(b); err != nil {
					t.Errorf("spool file %s is partial (%d bytes): %v", name, len(b), err)
				}
				seen[name] = true
			}
		}
	}()
	// A large attribute keeps each write in flight long enough for the
	// reader to catch a non-atomic one.
	traces := 40
	if testing.Short() {
		traces = 10
	}
	pad := strings.Repeat("x", 1<<20)
	for i := 0; i < traces; i++ {
		tr := NewTrace(fmt.Sprintf("req-%d", i), "loop")
		tr.Ctx = NewSpanContext()
		tr.Ctx.Sampled = true
		tr.Start("stage").Str("pad", pad).End(OutcomeOK)
		tr.Finish(OutcomeOK)
		if !e.Export(tr) {
			t.Error("export rejected")
			break
		}
	}
	e.Close()
	close(stop)
	seen := <-checked
	if st := e.Stats(); st.Exported != uint64(traces) || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(names) != traces {
		t.Fatalf("%d files in the spool for %d traces (temp files left behind?)", len(names), traces)
	}
	t.Logf("reader checked %d of %d documents while they were spooled", seen, traces)
}

func TestExporterUnwritableSpoolFailsFast(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root writes anywhere")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	if _, err := NewExporter(ExporterConfig{Dir: filepath.Join(dir, "spool")}); err == nil {
		t.Fatal("unwritable spool accepted")
	}
}

// TestExporterDropCounting pins the load-shedding contract: a full
// queue drops the trace and counts it, it never blocks the caller. The
// collector handler blocks until released, so the queue state at each
// Export call is deterministic.
func TestExporterDropCounting(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	col := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	}))
	defer col.Close()

	e, err := NewExporter(ExporterConfig{URL: col.URL, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Export(goldenTrace()) {
		t.Fatal("first export rejected")
	}
	<-entered // worker holds trace 1 in-flight; the queue is empty again
	if !e.Export(goldenTrace()) {
		t.Fatal("second export should occupy the queue slot")
	}
	for i := 0; i < 3; i++ {
		if e.Export(goldenTrace()) {
			t.Fatalf("export %d accepted with a full queue", i+3)
		}
	}
	if st := e.Stats(); st.Dropped != 3 {
		t.Fatalf("dropped %d, want 3", st.Dropped)
	}
	close(release)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Exported != 2 || st.Dropped != 3 || st.Failed != 0 {
		t.Fatalf("final stats %+v", st)
	}
}

func TestExporterCountsDeliveryFailures(t *testing.T) {
	col := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusServiceUnavailable)
	}))
	defer col.Close()
	e, err := NewExporter(ExporterConfig{URL: col.URL})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.Export(goldenTrace())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Failed != 3 || st.Exported != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestExporterExportAfterClose pins the shutdown contract: Export on a
// closed exporter returns false and counts a drop — it must never panic
// on the closed channel, because Server.Shutdown closes the exporter
// while late handlers and warm-start goroutines may still offer traces.
func TestExporterExportAfterClose(t *testing.T) {
	e, err := NewExporter(ExporterConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Export(goldenTrace()) {
		t.Fatal("closed exporter accepted a trace")
	}
	if st := e.Stats(); st.Dropped != 1 {
		t.Fatalf("late export not counted as a drop: %+v", st)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err) // Close stays idempotent
	}
}

// TestExporterCloseExportRace races Export against Close (meaningful
// under -race): no send may hit the closed channel, and every offer is
// accounted for as exported or dropped.
func TestExporterCloseExportRace(t *testing.T) {
	e, err := NewExporter(ExporterConfig{Dir: t.TempDir(), Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 100
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < per; i++ {
				e.Export(goldenTrace())
			}
		}()
	}
	close(start)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if st := e.Stats(); st.Exported+st.Dropped+st.Failed != workers*per {
		t.Fatalf("accounting leak after racing Close: %+v over %d offers", st, workers*per)
	}
}

// TestExporterConcurrent hammers Export and Stats from many goroutines
// (meaningful under -race): every offered trace is accounted for as
// exported or dropped, never lost.
func TestExporterConcurrent(t *testing.T) {
	dir := t.TempDir()
	e, err := NewExporter(ExporterConfig{Dir: dir, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr := NewTrace(fmt.Sprintf("req-%d-%d", w, i), "loop")
				tr.Ctx = NewSpanContext()
				tr.Ctx.Sampled = true
				sp := tr.Start("schedule")
				sp.End(OutcomeOK)
				tr.Finish(OutcomeOK)
				e.Export(tr)
				e.Stats()
			}
		}(w)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Exported+st.Dropped != workers*per {
		t.Fatalf("accounting leak: %+v over %d offers", st, workers*per)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "trace-*.json"))
	if uint64(len(names)) != st.Exported {
		t.Fatalf("%d spool files for %d exported", len(names), st.Exported)
	}
}
