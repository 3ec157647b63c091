package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// A nil trace must absorb the whole span API without allocating or
// panicking — that is the disabled pipeline's fast path.
func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.Start("phase")
	sp.Int("n", 3).Str("k", "v")
	sp.End(OutcomeOK)
	tr.Finish(OutcomeOK)
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on a bare context = %v, want nil", got)
	}
	if ctx := WithTrace(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("WithTrace(nil) should not attach anything")
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTrace("req-1", "daxpy")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through the context")
	}
	a := tr.Start("mindist").Int("ii", 7)
	a.End(OutcomeOK)
	b := tr.Start("attempt").Int("ii", 7)
	b.End("deadline")
	tr.Finish(OutcomeBudgetExhausted)
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Dur <= 0 || tr.Spans[1].Dur <= 0 {
		t.Fatal("span durations not recorded")
	}
	if tr.Dur <= 0 || tr.Outcome != OutcomeBudgetExhausted {
		t.Fatalf("trace not finished: %+v", tr)
	}
}

// The culprit is the most recent span whose outcome matches the
// trace's — the phase that was running when the budget tripped.
func TestCulpritElection(t *testing.T) {
	tr := NewTrace("r", "l")
	tr.Start("mindist").End(OutcomeOK)
	tr.Start("attempt").End("deadline")
	tr.Finish("deadline")
	if tr.Culprit != "attempt" {
		t.Fatalf("culprit = %q, want attempt", tr.Culprit)
	}

	// No matching span: fall back to the longest one.
	tr2 := NewTrace("r", "l")
	s1 := tr2.Start("short")
	s1.End(OutcomeOK)
	s2 := tr2.Start("long")
	s2.End(OutcomeOK)
	s2.Dur = time.Second
	tr2.Finish(OutcomeError)
	if tr2.Culprit != "long" {
		t.Fatalf("culprit = %q, want long", tr2.Culprit)
	}
}

func TestSpanDoubleEndIgnored(t *testing.T) {
	tr := NewTrace("r", "l")
	sp := tr.Start("x")
	sp.End(OutcomeOK)
	d := sp.Dur
	sp.End(OutcomeError)
	if sp.Dur != d || sp.Outcome != OutcomeOK {
		t.Fatal("second End should be a no-op")
	}
}

func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder(3)
	for i := 0; i < 5; i++ {
		tr := NewTrace(fmt.Sprintf("req-%d", i), "loop")
		tr.Finish(OutcomeOK)
		r.Record(tr)
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len=%d Total=%d, want 3 and 5", r.Len(), r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot holds %d, want 3", len(snap))
	}
	for i, want := range []string{"req-2", "req-3", "req-4"} {
		if snap[i].ID != want {
			t.Fatalf("snapshot[%d] = %s, want %s (oldest-first)", i, snap[i].ID, want)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Total   uint64            `json:"total_recorded"`
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if dump.Total != 5 || len(dump.Entries) != 3 {
		t.Fatalf("dump total=%d entries=%d", dump.Total, len(dump.Entries))
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTrace("id", "loop")
				tr.Finish(OutcomeOK)
				r.Record(tr)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Total() != 1600 {
		t.Fatalf("Total = %d, want 1600", r.Total())
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTrace("req-1", "daxpy")
	tr.Scheduler = "slack"
	tr.Start("mindist").Int("ii", 7).End(OutcomeOK)
	tr.Start("attempt").Int("ii", 7).Str("policy", "slack").End(OutcomeOK)
	tr.Finish(OutcomeOK)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Trace{tr, nil}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%s", err, buf.String())
	}
	// One metadata event, one compile event, two phase events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4:\n%s", len(doc.TraceEvents), buf.String())
	}
	byPh := map[string]int{}
	for _, e := range doc.TraceEvents {
		byPh[e.Ph]++
		if e.Ph == "X" {
			if e.TS == nil {
				t.Fatalf("complete event %q missing ts", e.Name)
			}
			if e.PID != 1 || e.TID != 1 {
				t.Fatalf("event %q on pid/tid %d/%d", e.Name, e.PID, e.TID)
			}
		}
	}
	if byPh["M"] != 1 || byPh["X"] != 3 {
		t.Fatalf("event phases %v, want 1 M + 3 X", byPh)
	}
}
