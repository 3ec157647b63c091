package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mii"
	"repro/internal/sched"
	"repro/internal/wire"
)

// The test-only schedulers exercise the server's failure paths through
// the real registry. blockRelease gates "test-block": compiles park on
// it until the test closes it, which is how the saturation and drain
// tests hold worker slots deterministically.
var blockRelease chan struct{}

func init() {
	core.Register("test-block", func(cfg sched.Config) core.Runner {
		return core.RunnerFunc(func(ctx context.Context, l *ir.Loop, dst *sched.Result) error {
			select {
			case <-blockRelease:
			case <-ctx.Done():
				return ctx.Err()
			}
			return sched.Slack(cfg).ScheduleInto(ctx, l, dst)
		})
	})
	core.Register("test-panic", func(cfg sched.Config) core.Runner {
		return core.RunnerFunc(func(context.Context, *ir.Loop, *sched.Result) error {
			panic("synthetic scheduler panic")
		})
	})
	core.Register("test-budget", func(cfg sched.Config) core.Runner {
		return core.RunnerFunc(func(ctx context.Context, l *ir.Loop, dst *sched.Result) error {
			return &sched.BudgetError{
				Loop: l.Name, Policy: "test-budget", Reason: sched.ReasonDeadline, MII: 2, LastII: 3,
			}
		})
	})
	core.Register("test-empty", func(cfg sched.Config) core.Runner {
		return core.RunnerFunc(func(context.Context, *ir.Loop, *sched.Result) error { return nil })
	})
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func requestBody(t *testing.T, l *ir.Loop, scheduler string, opt wire.Options) []byte {
	t.Helper()
	req, err := wire.NewRequest(l, scheduler, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/compile", "application/json", bytes.NewReader(body))
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

func decodeResponse(t *testing.T, body []byte) *wire.Response {
	t.Helper()
	var r wire.Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad response body %s: %v", body, err)
	}
	return &r
}

// metricValue scrapes one counter/gauge series from /metrics; name
// includes the label set of a labelled series.
func metricValue(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, b)
	return 0
}

// A list response that stepped II past a failed attempt still reports
// "restarts": 0 on the wire: the list scheduler has no step-6 restart.
func TestListResponseCountsNoRestarts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := post(t, ts.URL, requestBody(t, kernelLoop(t, "smooth3"), "list", wire.Options{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	r := decodeResponse(t, body)
	if !r.OK || r.Effort.IIAttempts < 2 {
		t.Fatalf("want a list schedule found after a failed II, got %+v", r)
	}
	if !bytes.Contains(body, []byte(`"restarts":0`)) {
		t.Fatalf("list response does not carry \"restarts\":0: %s", body)
	}
}

// TestCompileCacheHit is the acceptance test of ISSUE 4: the same loop
// compiled twice; the second response must be a byte-identical cache
// replay — cache-hit counter incremented, no new scheduler events.
func TestCompileCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})

	r1, b1 := post(t, ts.URL, body)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first compile: status %d, body %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Lsmsd-Cache"); got != "miss" {
		t.Errorf("first compile cache header: %q, want miss", got)
	}
	first := decodeResponse(t, b1)
	if !first.OK || first.II < first.Bounds.MII || len(first.Times) == 0 {
		t.Fatalf("first response implausible: %+v", first)
	}
	effortAfterFirst := schedEffort(s)
	if effortAfterFirst == 0 {
		t.Fatal("first compile counted no scheduling effort")
	}
	hitsBefore := metricValue(t, ts.URL, `lsmsd_cache_hits_total{tier="memory"}`)

	r2, b2 := post(t, ts.URL, body)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second compile: status %d", r2.StatusCode)
	}
	if got := r2.Header.Get("X-Lsmsd-Cache"); got != "hit" {
		t.Errorf("second compile cache header: %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cached response not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
	if hits := metricValue(t, ts.URL, `lsmsd_cache_hits_total{tier="memory"}`); hits != hitsBefore+1 {
		t.Errorf("cache hits: %d, want %d", hits, hitsBefore+1)
	}
	if after := schedEffort(s); after != effortAfterFirst {
		t.Errorf("cache hit scheduled: %d before, %d after", effortAfterFirst, after)
	}
}

// TestSourceAndIRFormsShareCacheEntry proves canonicalization: the
// mini-FORTRAN form and the IR form of the same loop hit one entry.
func TestSourceAndIRFormsShareCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	src := "      subroutine triad(n, q, a, b, c)\n" +
		"      real a(1001), b(1001), c(1001), q\n" +
		"      integer n, i\n" +
		"      do i = 1, 1000\n" +
		"        a(i) = b(i) + q*c(i)\n" +
		"      end do\n" +
		"      end\n"
	srcReq, _ := json.Marshal(&wire.Request{
		Version: wire.Version, Machine: "cydra", Scheduler: "slack", Source: src,
	})
	r1, b1 := post(t, ts.URL, srcReq)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("source-form compile: status %d, body %s", r1.StatusCode, b1)
	}

	parsed := &wire.Request{Version: wire.Version, Machine: "cydra", Scheduler: "slack", Source: src}
	norm, _, err := parsed.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	r2, b2 := post(t, ts.URL, irBody(t, norm))
	if got := r2.Header.Get("X-Lsmsd-Cache"); got != "hit" {
		t.Errorf("IR form after source form: cache %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("source- and IR-form responses differ")
	}
}

// canonicalRequest is a normalized request as encoding/json decodes its
// canonical bytes: a normalized source-form request keeps its loop only
// as those bytes, so this is how a test gets the loop document back
// without the package's own decoder.
func canonicalRequest(t *testing.T, norm *wire.Request) wire.Request {
	t.Helper()
	c, err := norm.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var r wire.Request
	if err := json.Unmarshal(c, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// irBody is the IR form of a normalized request as a client would send
// it: json.Marshal of its canonicalRequest.
func irBody(t *testing.T, norm *wire.Request) []byte {
	t.Helper()
	r := canonicalRequest(t, norm)
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestColdSourceAndIRFormsAnswerIdentically: over the 120-loop wire
// corpus (loopgen seed 1993) under slack, cydrome and list, a
// source-form request to one fresh server and its IR form — the JSON of
// what Normalize made of it — to another get identical status and body,
// both compiled cold. Each scheduler's source carries its own count of
// trailing newlines, so every source-form request is a new key to the
// process's source memo and its first lowering runs the frontend.
func TestColdSourceAndIRFormsAnswerIdentically(t *testing.T) {
	suite, err := loopgen.Build(loopgen.Options{Size: 120, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	_, srcTS := newTestServer(t, Config{})
	_, irTS := newTestServer(t, Config{})
	idx := 0
	for i, l := range suite.Loops {
		if i > 0 && suite.Loops[i-1].Source == l.Source {
			idx++
		} else {
			idx = 0
		}
		for k, name := range []string{"slack", "cydrome", "list"} {
			req := &wire.Request{
				Version: wire.Version, Machine: "cydra", Scheduler: name,
				Source: l.Source + strings.Repeat("\n", k+1), LoopIndex: idx,
			}
			srcBody, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			srcResp, srcOut := post(t, srcTS.URL, srcBody)
			norm, _, err := req.Normalize()
			if err != nil {
				t.Fatalf("%s/%s: %v", l.Name, name, err)
			}
			irResp, irOut := post(t, irTS.URL, irBody(t, norm))
			for _, r := range []*http.Response{srcResp, irResp} {
				if c := r.Header.Get("X-Lsmsd-Cache"); c != "miss" {
					t.Fatalf("%s/%s: cache %q on a fresh server, want miss", l.Name, name, c)
				}
			}
			if srcResp.StatusCode != irResp.StatusCode || !bytes.Equal(srcOut, irOut) {
				t.Errorf("%s/%s: source form answered %d %s\nIR form answered %d %s",
					l.Name, name, srcResp.StatusCode, srcOut, irResp.StatusCode, irOut)
			}
		}
	}
}

// TestSaturation floods a Workers=1, QueueDepth=1 server with six
// distinct blocked compiles: exactly two are admitted (one running,
// one queued), four are rejected 429 with Retry-After — and after the
// release, the admitted compiles complete with correct schedules.
func TestSaturation(t *testing.T) {
	blockRelease = make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	m := machine.Cydra()
	const n = 6
	bodies := make([][]byte, n)
	loops := make([]*ir.Loop, n)
	for i := range bodies {
		w, err := wire.EncodeLoop(fixture.Daxpy(m))
		if err != nil {
			t.Fatal(err)
		}
		w.Name = fmt.Sprintf("sat-%d", i) // distinct content hashes
		l, err := w.DecodeLoop(m)
		if err != nil {
			t.Fatal(err)
		}
		loops[i] = l
		bodies[i] = requestBody(t, l, "test-block", wire.Options{})
	}

	type reply struct {
		status     int
		retryAfter string
		resp       *wire.Response
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func(body []byte) {
			resp, out := post(t, ts.URL, body)
			replies <- reply{resp.StatusCode, resp.Header.Get("Retry-After"), decodeResponse(t, out)}
		}(bodies[i])
	}

	// All six requests park (2 admitted, 4 rejected); collect the 429s
	// first — they return immediately while the admitted ones block.
	var rejected []reply
	for len(rejected) < n-2 {
		r := <-replies
		if r.status != http.StatusTooManyRequests {
			t.Fatalf("got status %d before the release; want only 429s (resp %+v)", r.status, r.resp)
		}
		rejected = append(rejected, r)
	}
	for _, r := range rejected {
		if r.retryAfter == "" {
			t.Error("429 without Retry-After")
		}
		if r.resp.Error == nil || r.resp.Error.Kind != wire.ErrKindOverloaded {
			t.Errorf("429 error kind: %+v", r.resp.Error)
		}
	}
	if got := metricValue(t, ts.URL, "lsmsd_rejected_total"); got != int64(n-2) {
		t.Errorf("rejected counter: %d, want %d", got, n-2)
	}
	if running := s.adm.running(); running != 1 {
		t.Errorf("running gauge: %d, want 1", running)
	}

	close(blockRelease)
	byName := map[string]*ir.Loop{}
	for _, l := range loops {
		byName[l.Name] = l
	}
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("admitted request failed: status %d, %+v", r.status, r.resp)
		}
		l := byName[r.resp.Loop]
		if l == nil {
			t.Fatalf("response names unknown loop %q", r.resp.Loop)
		}
		// The schedule must be complete and at a plausible II.
		if r.resp.II < r.resp.Bounds.MII || len(r.resp.Times) != len(l.Ops) {
			t.Errorf("%s: implausible schedule: II=%d MII=%d times=%d/%d",
				r.resp.Loop, r.resp.II, r.resp.Bounds.MII, len(r.resp.Times), len(l.Ops))
		}
		for op, c := range r.resp.Times {
			if c == ir.Unplaced {
				t.Errorf("%s: op %d unplaced in returned schedule", r.resp.Loop, op)
			}
		}
	}
}

// TestSingleflightDedup: two concurrent identical requests share one
// compilation; the follower's bytes match the leader's.
func TestSingleflightDedup(t *testing.T) {
	blockRelease = make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 2})
	body := requestBody(t, fixture.Reduction(machine.Cydra()), "test-block", wire.Options{})

	type reply struct {
		status int
		cache  string
		body   []byte
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, out := post(t, ts.URL, body)
			replies <- reply{resp.StatusCode, resp.Header.Get("X-Lsmsd-Cache"), out}
		}()
	}
	// Wait until both requests are in the server (one compiling, one
	// parked on the flight group), then release.
	deadline := time.Now().Add(5 * time.Second)
	for s.m.deduped.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.m.deduped.Value(); n != 1 {
		t.Fatalf("dedup counter: %v, want 1", n)
	}
	close(blockRelease)

	a, b := <-replies, <-replies
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses %d/%d", a.status, b.status)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Error("dedup follower got different bytes than the leader")
	}
	got := map[string]bool{a.cache: true, b.cache: true}
	if !got["miss"] || !got["dedup"] {
		t.Errorf("cache headers %q/%q, want one miss and one dedup", a.cache, b.cache)
	}
}

func TestErrorMapping(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	m := machine.Cydra()

	t.Run("bad json", func(t *testing.T) {
		resp, out := post(t, ts.URL, []byte("{not json"))
		r := decodeResponse(t, out)
		if resp.StatusCode != http.StatusBadRequest || r.Error == nil || r.Error.Kind != wire.ErrKindBadRequest {
			t.Errorf("status %d, error %+v", resp.StatusCode, r.Error)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := requestBody(t, fixture.Daxpy(m), "slack", wire.Options{})
		b = bytes.Replace(b, []byte(wire.Version), []byte("lsms-wire/99"), 1)
		resp, _ := post(t, ts.URL, b)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown scheduler", func(t *testing.T) {
		resp, out := post(t, ts.URL, requestBody(t, fixture.Daxpy(m), "quantum", wire.Options{}))
		r := decodeResponse(t, out)
		if resp.StatusCode != http.StatusBadRequest || r.Error == nil || r.Error.Kind != wire.ErrKindUnknownScheduler {
			t.Errorf("status %d, error %+v", resp.StatusCode, r.Error)
		}
	})
	t.Run("infeasible is 422 and cached", func(t *testing.T) {
		// MaxII below MII: the II search space is empty, so the verdict
		// is deterministic — and must be served from cache on repeat.
		body := requestBody(t, fixture.Daxpy(m), "slack", wire.Options{MaxII: 1})
		resp, out := post(t, ts.URL, body)
		r := decodeResponse(t, out)
		if resp.StatusCode != http.StatusUnprocessableEntity || r.Error == nil || r.Error.Kind != wire.ErrKindInfeasible {
			t.Fatalf("status %d, error %+v", resp.StatusCode, r.Error)
		}
		if r.Bounds.MII <= 1 {
			t.Errorf("expected MII > 1 in evidence, got %+v", r.Bounds)
		}
		resp2, out2 := post(t, ts.URL, body)
		if resp2.Header.Get("X-Lsmsd-Cache") != "hit" || !bytes.Equal(out, out2) {
			t.Error("infeasible verdict was not cached byte-identically")
		}
	})
	t.Run("budget exhausted is 504 and not cached", func(t *testing.T) {
		body := requestBody(t, fixture.Daxpy(m), "test-budget", wire.Options{})
		resp, out := post(t, ts.URL, body)
		r := decodeResponse(t, out)
		if resp.StatusCode != http.StatusGatewayTimeout || r.Error == nil || r.Error.Kind != wire.ErrKindBudgetExhausted {
			t.Fatalf("status %d, error %+v", resp.StatusCode, r.Error)
		}
		if r.Error.Reason != sched.ReasonDeadline || r.Error.LastII != 3 {
			t.Errorf("budget evidence not carried: %+v", r.Error)
		}
		resp2, _ := post(t, ts.URL, body)
		if resp2.Header.Get("X-Lsmsd-Cache") == "hit" {
			t.Error("budget-exhausted outcome must not be cached")
		}
	})
	t.Run("zero-omega circuit is 400 and not cached", func(t *testing.T) {
		// a and b read each other in the same iteration: a circuit that
		// ir.validate accepts and only the compile's RecMII rejects.
		l := ir.NewLoop("combinational", m)
		a := l.NewValue("a", ir.RR, ir.Float)
		b := l.NewValue("b", ir.RR, ir.Float)
		l.NewOp(machine.FAdd, []ir.Operand{{Val: b.ID}, {Val: b.ID}}, a.ID)
		l.NewOp(machine.FSub, []ir.Operand{{Val: a.ID}, {Val: a.ID}}, b.ID)
		l.MustFinalize()
		for _, name := range []string{"slack", "exact", "list"} {
			body := requestBody(t, l, name, wire.Options{})
			resp, out := post(t, ts.URL, body)
			r := decodeResponse(t, out)
			if resp.StatusCode != http.StatusBadRequest || r.Error == nil || r.Error.Kind != wire.ErrKindBadRequest ||
				!strings.Contains(r.Error.Message, mii.ErrZeroOmega.Error()) {
				t.Fatalf("%s: status %d, error %+v", name, resp.StatusCode, r.Error)
			}
			resp2, out2 := post(t, ts.URL, body)
			if resp2.StatusCode != http.StatusBadRequest || !bytes.Equal(out, out2) {
				t.Errorf("%s: repeat answered %d %s, first %s", name, resp2.StatusCode, out2, out)
			}
			if c := resp2.Header.Get("X-Lsmsd-Cache"); c != "miss" {
				t.Errorf("%s: repeat cache %q, want miss: a 400 is never stored", name, c)
			}
		}
	})
	t.Run("runner without a schedule is 500 and not cached", func(t *testing.T) {
		body := requestBody(t, fixture.Daxpy(m), "test-empty", wire.Options{})
		for range 2 {
			resp, out := post(t, ts.URL, body)
			r := decodeResponse(t, out)
			if resp.StatusCode != http.StatusInternalServerError || r.Error == nil || r.Error.Kind != wire.ErrKindInternal ||
				!strings.Contains(r.Error.Message, core.ErrNoSchedule.Error()) {
				t.Fatalf("status %d, error %+v", resp.StatusCode, r.Error)
			}
			if c := resp.Header.Get("X-Lsmsd-Cache"); c != "miss" {
				t.Errorf("cache %q, want miss", c)
			}
			if _, ok := s.store.Get(r.Hash); ok {
				t.Fatal("a broken runner's answer was stored")
			}
		}
	})
	t.Run("panic is isolated as 500", func(t *testing.T) {
		resp, out := post(t, ts.URL, requestBody(t, fixture.Daxpy(m), "test-panic", wire.Options{}))
		r := decodeResponse(t, out)
		if resp.StatusCode != http.StatusInternalServerError || r.Error == nil || r.Error.Kind != wire.ErrKindPanic {
			t.Fatalf("status %d, error %+v", resp.StatusCode, r.Error)
		}
		// The server survives: a healthy compile still works.
		resp2, _ := post(t, ts.URL, requestBody(t, fixture.Daxpy(m), "slack", wire.Options{}))
		if resp2.StatusCode != http.StatusOK {
			t.Errorf("server unhealthy after panic: %d", resp2.StatusCode)
		}
	})
}

func TestSchedulersEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/schedulers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Schedulers []string `json:"schedulers"`
		Default    string   `json:"default"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Default != "slack" || len(out.Schedulers) < 4 || out.Schedulers[0] != "slack" {
		t.Errorf("schedulers listing: %+v", out)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	blockRelease = make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1})
	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "test-block", wire.Options{})

	done := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.URL, body)
		done <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.running() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.adm.running() != 1 {
		t.Fatal("compile never started")
	}

	// Drain must block on the in-flight compile...
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Error("Shutdown returned before the in-flight compile finished")
	}
	// ...and new work must be refused while draining.
	resp, out := post(t, ts.URL, body)
	if r := decodeResponse(t, out); resp.StatusCode != http.StatusServiceUnavailable || r.Error.Kind != wire.ErrKindShuttingDown {
		t.Errorf("draining server accepted work: %d %+v", resp.StatusCode, r.Error)
	}

	close(blockRelease)
	if status := <-done; status != http.StatusOK {
		t.Errorf("in-flight compile did not complete through the drain: %d", status)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Shutdown(ctx2); err != nil {
		t.Errorf("final drain: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || out.Workers != 3 {
		t.Errorf("healthz: %+v", out)
	}
}

// TestMachinesEndpoint: GET /v1/machines lists the registered target
// family with unit mixes, paper machine first and marked default.
func TestMachinesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/machines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Machines []struct {
			Name  string `json:"name"`
			Units []struct {
				Name         string `json:"name"`
				Count        int    `json:"count"`
				NotPipelined bool   `json:"not_pipelined"`
			} `json:"units"`
		} `json:"machines"`
		Default string `json:"default"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("bad body %s: %v", b, err)
	}
	if out.Default != machine.PaperMachine {
		t.Errorf("default %q, want %q", out.Default, machine.PaperMachine)
	}
	if len(out.Machines) == 0 || out.Machines[0].Name != machine.PaperMachine {
		t.Fatalf("machines %v: want %q first", out.Machines, machine.PaperMachine)
	}
	listed := map[string]bool{}
	for _, m := range out.Machines {
		listed[m.Name] = true
	}
	for _, want := range []string{"cydra", "shortmem", "longops", "pipediv", "cluster2", "simdwide", "cgra4"} {
		if !listed[want] {
			t.Errorf("built-in %q missing from listing", want)
		}
	}
	cy := out.Machines[0]
	if len(cy.Units) != 6 || cy.Units[0].Name != "MemPort" || cy.Units[0].Count != 2 {
		t.Errorf("cydra unit mix wrong: %+v", cy.Units)
	}
	if !cy.Units[4].NotPipelined {
		t.Errorf("cydra divider not marked not_pipelined: %+v", cy.Units[4])
	}
}

// TestUnsupportedOpMaps422: a request whose ops the target cannot
// execute is unprocessable (422 unsupported-op), not a 400 or a
// panic-isolation 500.
func TestUnsupportedOpMaps422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	l := fixture.Daxpy(machine.Cydra())
	req, err := wire.NewRequest(l, "slack", wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An inline target with no Multiplier: daxpy's fmul cannot run.
	req.Machine = "no-mul"
	req.MachineSpec = &machine.Spec{
		Name:  "no-mul",
		Units: []machine.UnitSpec{{Name: "ALU", Count: 4}, {Name: "Mem", Count: 2}},
		Profiles: []machine.ProfileSpec{
			{Ops: []string{"load", "store"}, Unit: "Mem", Latency: 2},
			{Ops: []string{"fadd", "aadd", "brtop"}, Unit: "ALU", Latency: 1},
		},
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL, b)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	r := decodeResponse(t, body)
	if r.Error == nil || r.Error.Kind != wire.ErrKindUnsupportedOp {
		t.Fatalf("error %+v, want kind %q", r.Error, wire.ErrKindUnsupportedOp)
	}
	if !strings.Contains(r.Error.Message, "fmul") {
		t.Errorf("message %q does not name the unsupported op", r.Error.Message)
	}
}

// TestInlineSpecCompile: a compile against a request-carried target
// works end to end, and distinct inline targets get distinct cache
// entries (the spec is folded into the content hash).
func TestInlineSpecCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := machine.FamilySpec("inline-box", machine.CydraLatencies())
	spec.Units[machine.MemPort].Count = 1
	l := fixture.Daxpy(spec.MustBuild())
	body := requestBody(t, l, "slack", wire.Options{})
	resp, out := post(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	r := decodeResponse(t, out)
	if !r.OK || r.Machine != "inline-box" {
		t.Fatalf("response %+v: want ok on inline-box", r)
	}
	// Same loop on registered cydra: must be a different cache entry
	// with a different (here: lower) II, since cydra has 2 mem ports.
	respCy, outCy := post(t, ts.URL, requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{}))
	if respCy.StatusCode != http.StatusOK {
		t.Fatalf("cydra status %d: %s", respCy.StatusCode, outCy)
	}
	rCy := decodeResponse(t, outCy)
	if rCy.Hash == r.Hash {
		t.Error("inline-box and cydra requests share a content address")
	}
	if r.II <= rCy.II {
		t.Errorf("II %d on one mem port should exceed II %d on two", r.II, rCy.II)
	}
}

// TestSourceMemoLeavesAnswersUnchanged: the requests Normalize never
// memoizes — a source-form request on an inline spec, and failing
// sources (a parse error, an out-of-range loop_index, an ineligible
// loop, an op the target lacks) — and the IR-form documents Lower turns
// away (an unknown opcode, an out-of-range operand, an op the target
// lacks, an unknown opcode under an unknown scheduler) get identical
// answers (status, X-Lsmsd-Cache, body) before and after the memo and
// the store hold a clean lowering of the same loop. A turned-away
// request counts as a bad request and never as a cache miss.
func TestSourceMemoLeavesAnswersUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	daxpy, err := os.ReadFile("../../testdata/loops/daxpy.f")
	if err != nil {
		t.Fatal(err)
	}
	noMul := &machine.Spec{
		Name:  "server-memo-no-mul",
		Units: []machine.UnitSpec{{Name: "ALU", Count: 4}, {Name: "Mem", Count: 2}},
		Profiles: []machine.ProfileSpec{
			{Ops: []string{"load", "store"}, Unit: "Mem", Latency: 2},
			{Ops: []string{"fadd", "aadd", "brtop"}, Unit: "ALU", Latency: 1},
		},
	}
	machine.Register(noMul.MustBuild())
	inline := machine.FamilySpec("server-memo-inline", machine.CydraLatencies())
	short := "      subroutine short(x)\n      real x(10)\n      integer i\n" +
		"      do i = 1, 3\n        x(i) = x(i) + 1.0\n      end do\n      end\n"
	valid := wire.Request{Version: wire.Version, Machine: "cydra", Source: string(daxpy)}
	norm, _, err := valid.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// irForm is daxpy's IR document, decoded afresh from the canonical
	// bytes and edited by mut.
	irForm := func(mach, scheduler string, mut func(*wire.Loop)) wire.Request {
		l := canonicalRequest(t, norm).Loop
		mut(l)
		return wire.Request{Machine: mach, Scheduler: scheduler, Loop: l}
	}
	renameFmul := func(l *wire.Loop) {
		for i := range l.Ops {
			if l.Ops[i].Opcode == machine.FMul.String() {
				l.Ops[i].Opcode = "fmulx"
			}
		}
	}
	cases := []struct {
		name   string
		req    wire.Request
		status int
	}{
		{"inline spec", wire.Request{Machine: inline.Name, MachineSpec: inline, Source: string(daxpy)}, http.StatusOK},
		{"parse error", wire.Request{Machine: "cydra", Source: "      subroutine (\n"}, http.StatusBadRequest},
		{"loop_index", wire.Request{Machine: "cydra", Source: string(daxpy), LoopIndex: 3}, http.StatusBadRequest},
		{"ineligible", wire.Request{Machine: "cydra", Source: short}, http.StatusBadRequest},
		{"unsupported op", wire.Request{Machine: noMul.Name, Source: string(daxpy)}, http.StatusUnprocessableEntity},
		{"ir unknown opcode", irForm("cydra", "", renameFmul), http.StatusBadRequest},
		{"ir out-of-range operand", irForm("cydra", "", func(l *wire.Loop) { l.Ops[0].Args[0].Val = len(l.Values) }),
			http.StatusBadRequest},
		{"ir unsupported op", irForm(noMul.Name, "", func(*wire.Loop) {}), http.StatusUnprocessableEntity},
		{"ir unknown opcode and scheduler", irForm("cydra", "nope", renameFmul), http.StatusBadRequest},
	}
	type answer struct {
		status      int
		cache, body string
	}
	send := func(r wire.Request) answer {
		r.Version = wire.Version
		b, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		resp, out := post(t, ts.URL, b)
		return answer{resp.StatusCode, resp.Header.Get("X-Lsmsd-Cache"), string(out)}
	}
	// round answers every case, holding each turned-away request to one
	// bad request and no cache miss.
	round := func() []answer {
		got := make([]answer, len(cases))
		for i, c := range cases {
			bad := metricValue(t, ts.URL, "lsmsd_bad_requests_total")
			misses := metricValue(t, ts.URL, "lsmsd_cache_misses_total")
			got[i] = send(c.req)
			if got[i].status != c.status {
				t.Fatalf("%s: status %d, want %d: %s", c.name, got[i].status, c.status, got[i].body)
			}
			if c.status == http.StatusOK {
				continue
			}
			if d := metricValue(t, ts.URL, "lsmsd_bad_requests_total") - bad; d != 1 {
				t.Errorf("%s: lsmsd_bad_requests_total rose by %d, want 1", c.name, d)
			}
			if d := metricValue(t, ts.URL, "lsmsd_cache_misses_total") - misses; d != 0 {
				t.Errorf("%s: lsmsd_cache_misses_total rose by %d, want 0", c.name, d)
			}
		}
		return got
	}
	cold := round()
	if !strings.Contains(cold[len(cold)-1].body, `"kind":"bad-request"`) {
		t.Errorf("unknown opcode under an unknown scheduler: %s, want a bad request", cold[len(cold)-1].body)
	}
	// The second daxpy on cydra is lowered from the memo and answered
	// from the store, and so is its IR form.
	for range 2 {
		if a := send(valid); a.status != http.StatusOK {
			t.Fatalf("daxpy on cydra: status %d: %s", a.status, a.body)
		}
	}
	if a := send(irForm("cydra", "", func(*wire.Loop) {})); a.cache != "hit" {
		t.Fatalf("daxpy's IR form on cydra: cache %q, want hit", a.cache)
	}
	for i, warm := range round() {
		want := cold[i]
		if cases[i].status == http.StatusOK {
			want.cache = "hit" // the inline-spec compile stored its answer
		}
		if warm != want {
			t.Errorf("%s: answer changed with a warm memo and store:\ncold: %+v\nwarm: %+v", cases[i].name, cold[i], warm)
		}
	}
}
