package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/wire"
)

// newDebugServer mounts the debug surface the way cmd/lsmsd does: on
// its own listener, separate from the compile port.
func newDebugServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ds := httptest.NewServer(s.DebugHandler())
	t.Cleanup(ds.Close)
	return ds
}

// A scrape taken after traffic on every outcome path must pass the
// exposition lint: HELP/TYPE for every family, no duplicate samples,
// counters suffixed _total, histograms with cumulative le buckets.
func TestMetricsExpositionLints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	m := machine.Cydra()

	// Success, cache hit, budget-exhausted, infeasible, panic, bad
	// request — populate every family the lint will see.
	body := requestBody(t, fixture.Daxpy(m), "slack", wire.Options{})
	post(t, ts.URL, body)
	post(t, ts.URL, body)
	post(t, ts.URL, requestBody(t, fixture.Divide(m), "slack", budgetTripOptions))
	post(t, ts.URL, requestBody(t, fixture.Daxpy(m), "slack", wire.Options{MaxII: 1}))
	post(t, ts.URL, requestBody(t, fixture.Daxpy(m), "test-panic", wire.Options{}))
	post(t, ts.URL, []byte("{not json"))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if issues := obs.LintExposition(bytes.NewReader(b)); len(issues) != 0 {
		t.Fatalf("exposition lint found %d issues in:\n%s\nissues: %v", len(issues), b, issues)
	}
	// The labelled compile counter carries both dimensions and every
	// outcome, including the ones the retired per-outcome families
	// below used to count.
	for _, want := range []string{
		`lsmsd_compiles_total{scheduler="slack",outcome="ok"} 1`,
		`lsmsd_compiles_total{scheduler="slack",outcome="central-iterations"} 1`,
		`lsmsd_compiles_total{scheduler="slack",outcome="infeasible"} 1`,
		`lsmsd_compiles_total{scheduler="test-panic",outcome="panic"} 1`,
	} {
		if !strings.Contains(string(b), want+"\n") {
			t.Fatalf("no sample %q in:\n%s", want, b)
		}
	}
	// Families that only repeated lsmsd_compiles_total or
	// lsmsd_cache_misses_total are gone.
	for _, gone := range []string{
		"lsmsd_compile_ok_total", "lsmsd_compile_degraded_total",
		"lsmsd_compile_infeasible_total", "lsmsd_compile_budget_exhausted_total",
		"lsmsd_panics_total", "lsmsd_internal_errors_total", "lsmsd_store_misses_total",
	} {
		if strings.Contains(string(b), gone) {
			t.Errorf("retired family %s still exported", gone)
		}
	}
}

// budgetTripOptions make divide's first II attempt give up (one ejection
// and out) and the central-iteration cap trip at the attempt boundary —
// a deterministic mid-compile budget exhaustion with a real event tail.
var budgetTripOptions = wire.Options{EjectBudgetPerOp: 1, MinEjectBudget: 1, MaxCentralIters: 1}

// The flight recorder retains every compile's trace and, for non-ok
// outcomes, the tail of the scheduler event stream; the debug endpoint
// serves the dump as JSON.
func TestFlightRecorderEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	ds := newDebugServer(t, s)
	m := machine.Cydra()

	post(t, ts.URL, requestBody(t, fixture.Daxpy(m), "slack", wire.Options{}))
	post(t, ts.URL, requestBody(t, fixture.Divide(m), "slack", budgetTripOptions))

	resp, err := http.Get(ds.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flightrecorder status %d", resp.StatusCode)
	}
	var dump struct {
		Total   uint64 `json:"total_recorded"`
		Entries []struct {
			ID      string `json:"id"`
			Name    string `json:"name"`
			Outcome string `json:"outcome"`
			Culprit string `json:"culprit"`
			Spans   []struct {
				Name string `json:"name"`
			} `json:"spans"`
			Tail []json.RawMessage `json:"tail"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Total != 2 || len(dump.Entries) != 2 {
		t.Fatalf("dump holds %d/%d traces, want 2", dump.Total, len(dump.Entries))
	}

	ok, failed := dump.Entries[0], dump.Entries[1]
	if ok.Outcome != obs.OutcomeOK || ok.Name != "daxpy" {
		t.Fatalf("first entry %+v, want ok daxpy", ok)
	}
	if len(ok.Spans) == 0 {
		t.Fatal("ok trace recorded no spans")
	}
	if len(ok.Tail) != 0 {
		t.Error("ok trace retained an event tail; retention is for non-ok runs only")
	}
	if ok.ID == "" {
		t.Error("trace missing its request ID")
	}

	if failed.Outcome != obs.OutcomeCentralIters {
		t.Fatalf("failed entry outcome %q, want %q", failed.Outcome, obs.OutcomeCentralIters)
	}
	if len(failed.Tail) == 0 {
		t.Fatal("failed trace retained no event tail")
	}
	if failed.Culprit == "" {
		t.Error("failed trace elected no culprit span")
	}

	if n := metricValue(t, ts.URL, "lsmsd_flightrecorder_entries"); n != 2 {
		t.Errorf("lsmsd_flightrecorder_entries = %d, want 2", n)
	}
}

// The pprof surface is mounted on the debug handler, not the compile
// handler.
func TestDebugPprof(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ds := newDebugServer(t, s)

	resp, err := http.Get(ds.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable on the compile port")
	}
}

// Every compile response is stamped with a request ID (caller-supplied
// X-Request-Id wins), and the structured log carries it.
func TestRequestIDAndLogging(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	s, err := New(Config{Workers: 2, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "caller-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-7" {
		t.Errorf("request ID %q, want the caller's caller-7", got)
	}

	r2, _ := post(t, ts.URL, body) // cache hit, server-generated ID
	if got := r2.Header.Get("X-Request-Id"); got == "" || got == "caller-7" {
		t.Errorf("second request ID %q, want a fresh server-generated one", got)
	}

	var sawCompile, sawHit bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if rec["request_id"] == "caller-7" && rec["outcome"] == obs.OutcomeOK {
			sawCompile = true
		}
		if rec["cache"] == "hit" {
			sawHit = true
		}
	}
	if !sawCompile || !sawHit {
		t.Errorf("log stream missing compile/hit records:\n%s", logBuf.String())
	}
}

// schedEvents sums lsmsd_sched_events_total over every kind; tests use
// it to prove a store hit scheduled nothing.
func schedEvents(s *Server) int64 {
	var n float64
	for k := range (sched.Metrics{}).Events {
		n += s.m.schedEvents.Value(sched.EventKind(k).String())
	}
	return int64(n)
}

// TestSchedFamiliesMatchEventStream is the -race test of lsmsd's one
// exposition path for the scheduler event stream: concurrent distinct
// misses each fold their own sched.Metrics into the registry, and the
// family totals must equal one sched.Metrics fed the same compiles.
// Every kind and outcome series is listed from boot, and the sched
// families are exactly the three the registry declares.
func TestSchedFamiliesMatchEventStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	var zero sched.Metrics
	boot := scrape(t, ts.URL)
	var series []string
	for k := range zero.Events {
		series = append(series, fmt.Sprintf("lsmsd_sched_events_total{kind=%q} 0", sched.EventKind(k)))
	}
	for o := range zero.AttemptOutcomes {
		series = append(series, fmt.Sprintf("lsmsd_sched_attempt_outcomes_total{outcome=%q} 0", sched.AttemptOutcome(o)))
	}
	series = append(series, "lsmsd_sched_scan_failures_total 0",
		`lsmsd_cache_hits_total{tier="memory"} 0`, `lsmsd_cache_hits_total{tier="disk"} 0`)
	for _, line := range series {
		if !strings.Contains(boot, "\n"+line+"\n") {
			t.Errorf("boot exposition lacks %q", line)
		}
	}
	var fams []string
	for _, line := range strings.Split(boot, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE lsmsd_sched_"); ok {
			fams = append(fams, "lsmsd_sched_"+strings.Fields(name)[0])
		}
	}
	if want := []string{"lsmsd_sched_events_total", "lsmsd_sched_attempt_outcomes_total",
		"lsmsd_sched_scan_failures_total"}; !slices.Equal(fams, want) {
		t.Errorf("sched families %v, want %v", fams, want)
	}

	loops := fixture.All(machine.Cydra())
	want := &sched.Metrics{}
	bodies := make([][]byte, len(loops))
	for i, l := range loops {
		req, err := wire.NewRequest(l, "slack", wire.Options{})
		if err != nil {
			t.Fatal(err)
		}
		norm, loop, err := req.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		cfg := norm.Options.SchedConfig()
		cfg.Observer = want
		if _, err := core.Compile(context.Background(), loop, core.Options{Config: cfg, SkipCodegen: true}); err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		bodies[i] = requestBody(t, l, "slack", wire.Options{})
	}

	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("%s: %v", loops[i].Name, err)
				return
			}
			b, _ := io.ReadAll(r.Body)
			r.Body.Close()
			if r.StatusCode != http.StatusOK || r.Header.Get("X-Lsmsd-Cache") != "miss" {
				t.Errorf("%s: status %d, cache %q: %s", loops[i].Name, r.StatusCode, r.Header.Get("X-Lsmsd-Cache"), b)
			}
		}()
	}
	wg.Wait()

	for k, n := range want.Events {
		kind := sched.EventKind(k).String()
		if got := s.m.schedEvents.Value(kind); got != float64(n) {
			t.Errorf("events{kind=%s} = %v, want %d", kind, got, n)
		}
	}
	for o, n := range want.AttemptOutcomes {
		outcome := sched.AttemptOutcome(o).String()
		if got := s.m.schedOutcomes.Value(outcome); got != float64(n) {
			t.Errorf("attempt_outcomes{outcome=%s} = %v, want %d", outcome, got, n)
		}
	}
	if got := s.m.schedScanFailures.Value(); got != float64(want.ScanFailures) {
		t.Errorf("scan_failures = %v, want %d", got, want.ScanFailures)
	}
	if want.Events[sched.EvPlace] == 0 {
		t.Fatal("reference stream is empty")
	}
}

// scrape returns the /metrics text exposition.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
