package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// The -metricsjson record must be byte-deterministic: same corpus, same
// JSON bytes, regardless of the worker pool. Map keys marshal sorted,
// policies in registry order, counters folded in loop order.
func TestMetricsJSONByteDeterministic(t *testing.T) {
	seq := suite(t, 60)
	seq.Parallel = 1
	par := suite(t, 60)
	par.Parallel = 8

	mr1, err := CollectMetrics(seq)
	if err != nil {
		t.Fatal(err)
	}
	mr2, err := CollectMetrics(par)
	if err != nil {
		t.Fatal(err)
	}
	mr1.Parallel, mr2.Parallel = 0, 0 // the pool size is the one legitimate difference
	b1, err := json.MarshalIndent(mr1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.MarshalIndent(mr2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("metrics JSON differs between pool sizes:\nserial:\n%s\nparallel:\n%s", b1, b2)
	}
	for _, p := range mr1.Policies {
		var total int64
		for _, n := range p.Outcomes {
			total += n
		}
		if attempts := p.Events[sched.EvAttemptStart.String()]; total != attempts {
			t.Fatalf("%s: outcome total %d != attempts %d", p.Policy, total, attempts)
		}
	}
}

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
