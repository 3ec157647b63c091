package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// A traced sweep attaches a finished span trace to every run, and the
// collected traces export as one valid Chrome trace_event document.
func TestSweepTracesExportToChrome(t *testing.T) {
	s := suite(t, 20)
	s.Trace = true
	rs, err := s.Runs(core.SchedSlack)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*obs.Trace, 0, len(rs))
	for _, r := range rs {
		if r.Trace == nil {
			t.Fatalf("%s: no trace attached", r.Info.Name)
		}
		if r.Trace.Outcome == "" || r.Trace.Dur == 0 {
			t.Fatalf("%s: trace not finished: %+v", r.Info.Name, r.Trace)
		}
		if len(r.Trace.Spans) == 0 {
			t.Fatalf("%s: trace recorded no spans", r.Info.Name)
		}
		traces = append(traces, r.Trace)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace holds no events")
	}
}
