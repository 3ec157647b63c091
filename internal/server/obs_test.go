package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mii"
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
	post(t, ts.URL, requestBody(t, srotLoop(t), "slack", budgetTripOptions))
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
	// The compile histogram's count carries both dimensions and every
	// outcome, including the ones the retired families below counted.
	for _, want := range []string{
		`lsmsd_compile_seconds_count{scheduler="slack",outcome="ok"} 1`,
		`lsmsd_compile_seconds_count{scheduler="slack",outcome="central-iterations"} 1`,
		`lsmsd_compile_seconds_count{scheduler="slack",outcome="infeasible"} 1`,
		`lsmsd_compile_seconds_count{scheduler="test-panic",outcome="panic"} 1`,
	} {
		if !strings.Contains(string(b), want+"\n") {
			t.Fatalf("no sample %q in:\n%s", want, b)
		}
	}
	// Families that only repeated lsmsd_compile_seconds_count or the
	// cache counters are gone.
	for _, gone := range []string{
		"lsmsd_compile_ok_total", "lsmsd_compile_degraded_total",
		"lsmsd_compile_infeasible_total", "lsmsd_compile_budget_exhausted_total",
		"lsmsd_panics_total", "lsmsd_internal_errors_total", "lsmsd_store_misses_total",
		"lsmsd_compiles_total", "lsmsd_cache_hit_ratio",
	} {
		if strings.Contains(string(b), gone) {
			t.Errorf("retired family %s still exported", gone)
		}
	}
}

// budgetTripOptions make the central-iteration cap trip on srot (see
// srotLoop) at the boundary after its first II attempt, which restarts
// once and gives up after 213 iterations — a deterministic mid-compile
// budget exhaustion with a real event tail.
var budgetTripOptions = wire.Options{MaxCentralIters: 1}

// srotLoop is testdata/loops/srot.f's loop on cydra. Under the default
// ejection budget its slack schedule restarts (step 6) at MII 17, 18
// and 19 and lands at II 20.
func srotLoop(t *testing.T) *ir.Loop {
	t.Helper()
	src, err := os.ReadFile("../../testdata/loops/srot.f")
	if err != nil {
		t.Fatal(err)
	}
	cl, _, err := frontend.CompileIndex(string(src), 0, machine.Cydra())
	if err != nil || cl == nil || cl.Ineligible != nil {
		t.Fatalf("srot does not lower: %v", err)
	}
	return cl.Loop
}

// The flight recorder retains every compile's trace and, for non-ok
// outcomes, the tail of the scheduler event stream; the debug endpoint
// serves the dump as JSON.
func TestFlightRecorderEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	ds := newDebugServer(t, s)
	m := machine.Cydra()

	post(t, ts.URL, requestBody(t, fixture.Daxpy(m), "slack", wire.Options{}))
	post(t, ts.URL, requestBody(t, srotLoop(t), "slack", budgetTripOptions))

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

	if failed.Outcome != sched.ReasonCentralIters {
		t.Fatalf("failed entry outcome %q, want %q", failed.Outcome, sched.ReasonCentralIters)
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

	// Turned-away requests log too: one record each, with the status
	// and the wire error kind as the outcome.
	rejected := map[string][]byte{
		"bad-json":  []byte("{not json"),
		"bad-sched": requestBody(t, fixture.Daxpy(machine.Cydra()), "no-such-policy", wire.Options{}),
	}
	for id, b := range rejected {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(b))
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var sawCompile, sawHit bool
	records := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		id, _ := rec["request_id"].(string)
		records[id]++
		if id == "caller-7" && rec["outcome"] == obs.OutcomeOK {
			sawCompile = true
		}
		if rec["cache"] == "hit" {
			sawHit = true
		}
		want := map[string]string{"bad-json": wire.ErrKindBadRequest, "bad-sched": wire.ErrKindUnknownScheduler}[id]
		if want != "" && (rec["status"] != float64(http.StatusBadRequest) || rec["outcome"] != want) {
			t.Errorf("%s logged status %v outcome %v, want 400 %s", id, rec["status"], rec["outcome"], want)
		}
	}
	if !sawCompile || !sawHit {
		t.Errorf("log stream missing compile/hit records:\n%s", logBuf.String())
	}
	if got := s.slo.Snapshot().Short.Total; got != 4 {
		t.Errorf("SLO tracker saw %d samples for 4 compile responses", got)
	}
	for id := range rejected {
		if records[id] != 1 {
			t.Errorf("%s left %d log records, want 1:\n%s", id, records[id], logBuf.String())
		}
	}
}

// effortFamilies are the lsmsd_sched_* counters in registration order,
// one per wire.Effort field.
var effortFamilies = []string{
	"lsmsd_sched_ii_attempts_total", "lsmsd_sched_central_iters_total",
	"lsmsd_sched_placements_total", "lsmsd_sched_forces_total",
	"lsmsd_sched_ejections_total", "lsmsd_sched_restarts_total",
}

// effortFields lists an Effort's counters in effortFamilies' order.
func effortFields(e wire.Effort) []int64 {
	return []int64{int64(e.IIAttempts), e.CentralIters, e.Placements, e.Forces, e.Ejections, e.Restarts}
}

// schedEffort sums every lsmsd_sched_* effort counter; tests use it to
// prove a store hit scheduled nothing.
func schedEffort(s *Server) int64 {
	var n float64
	for _, f := range []*obs.Family{s.m.iiAttempts, s.m.centralIters, s.m.placements, s.m.forces, s.m.ejections, s.m.restarts} {
		n += f.Value()
	}
	return int64(n)
}

// TestEffortFamiliesMatchResponses is the -race test of lsmsd's effort
// counters: a concurrent burst of distinct misses, in-flight duplicates
// and later repeats (an infeasible verdict among them), after which
// each lsmsd_sched_*_total in the /metrics scrape equals the sum of the
// effort field over the responses served as X-Lsmsd-Cache: miss. The six
// series exist at boot, and they are the only sched families.
func TestEffortFamiliesMatchResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	boot := scrape(t, ts.URL)
	for _, name := range effortFamilies {
		if !strings.Contains(boot, "\n"+name+" 0\n") {
			t.Errorf("boot exposition lacks %s 0", name)
		}
	}
	var fams []string
	for _, line := range strings.Split(boot, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE lsmsd_sched_"); ok {
			fams = append(fams, "lsmsd_sched_"+strings.Fields(name)[0])
		}
	}
	if !slices.Equal(fams, effortFamilies) {
		t.Errorf("sched families %v, want %v", fams, effortFamilies)
	}

	var bodies [][]byte
	for _, l := range fixture.All(machine.Cydra()) {
		for _, name := range []string{"slack", "cydrome", "list"} {
			bodies = append(bodies, requestBody(t, l, name, wire.Options{}))
		}
	}
	// srot restarts (step 6) at its MII; capped there, the verdict is
	// infeasible, and an infeasible response still reports its effort.
	srot := srotLoop(t)
	b, err := mii.Compute(context.Background(), srot)
	if err != nil {
		t.Fatal(err)
	}
	bodies = append(bodies, requestBody(t, srot, "slack", wire.Options{}))
	bodies = append(bodies, requestBody(t, srot, "slack", wire.Options{MaxII: b.MII}))

	var (
		mu         sync.Mutex
		want       wire.Effort
		misses     int
		infeasible atomic.Int64
	)
	send := func(body []byte) {
		r, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusUnprocessableEntity {
			infeasible.Add(1)
		} else if r.StatusCode != http.StatusOK {
			t.Errorf("status %d: %s", r.StatusCode, b)
			return
		}
		if r.Header.Get("X-Lsmsd-Cache") != "miss" {
			return
		}
		var resp wire.Response
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Error(err)
			return
		}
		e := resp.Effort
		mu.Lock()
		misses++
		want.IIAttempts += e.IIAttempts
		want.CentralIters += e.CentralIters
		want.Placements += e.Placements
		want.Forces += e.Forces
		want.Ejections += e.Ejections
		want.Restarts += e.Restarts
		mu.Unlock()
	}
	for round := 0; round < 2; round++ { // the second round repeats the first
		var wg sync.WaitGroup
		for _, body := range bodies {
			for dup := 0; dup < 3; dup++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					send(body)
				}()
			}
		}
		wg.Wait()
	}
	if misses != len(bodies) {
		t.Fatalf("%d misses for %d distinct requests", misses, len(bodies))
	}
	if want.Placements == 0 || want.Restarts == 0 || infeasible.Load() == 0 {
		t.Fatalf("the burst exercised too little: %+v, %d infeasible responses", want, infeasible.Load())
	}

	after := scrape(t, ts.URL)
	for i, name := range effortFamilies {
		line := fmt.Sprintf("\n%s %d\n", name, effortFields(want)[i])
		if !strings.Contains(after, line) {
			t.Errorf("scrape lacks %q", strings.TrimSpace(line))
		}
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

// A panicking registered runner is named "panic" alike in a bench run's
// trace and in the lsmsd compile label: both panic barriers return a
// *core.PanicError, and both name the compile through core.Outcome.
func TestPanicOutcomeInBenchAndServer(t *testing.T) {
	suite, err := bench.NewSuite(loopgen.Options{Size: 2, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	suite.Trace = true
	rs, err := suite.Runs("test-panic")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		var pe *core.PanicError
		if !errors.As(r.Err, &pe) || r.Trace == nil || r.Trace.Outcome != obs.OutcomePanic {
			t.Fatalf("%s: Err %v, trace %+v; want a *core.PanicError and outcome %q", r.Info.Name, r.Err, r.Trace, obs.OutcomePanic)
		}
	}

	_, ts := newTestServer(t, Config{})
	if resp, _ := post(t, ts.URL, requestBody(t, rs[0].Info.Loop, "test-panic", wire.Options{})); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("test-panic returned %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if want := `lsmsd_compile_seconds_count{scheduler="test-panic",outcome="panic"} 1`; !strings.Contains(string(b), want+"\n") {
		t.Fatalf("no sample %q in:\n%s", want, b)
	}
}
