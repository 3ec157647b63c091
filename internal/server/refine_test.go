package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/mindist"
	"repro/internal/wire"
)

// kernelLoop pulls one named loop out of the embedded kernel corpus.
// The refinement tests want loops with a known exact-vs-slack verdict:
// on cydra, slack schedules triad at (II=2, MaxLive=19) while the exact
// backend proves (II=2, MaxLive=18), and daxpy is already optimal.
func kernelLoop(t *testing.T, name string) *ir.Loop {
	t.Helper()
	ks, err := loopgen.Kernels(machine.Cydra())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if k.Name == name {
			return k.CL.Loop
		}
	}
	t.Fatalf("kernel %q not in corpus", name)
	return nil
}

// waitRefined polls the compile endpoint until the hit carries
// X-Lsmsd-Refined, returning the refined body. Every poll is a store
// hit (the cold compile already cached a record), so polling never
// re-enqueues work — it just waits for the background upgrade to land.
func waitRefined(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		r, b := post(t, url, body)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", r.StatusCode, b)
		}
		if r.Header.Get("X-Lsmsd-Refined") == "true" {
			return b
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("refinement never landed")
	return nil
}

// TestRefineUpgradesStoreEntry is the refinement tier's acceptance
// test: a cold compile answers immediately from slack, the background
// exact search strictly improves it, the store record is upgraded in
// place, and every later hit — including hits served from disk by a
// restarted server with refinement off — returns the refined bytes
// under the X-Lsmsd-Refined header.
func TestRefineUpgradesStoreEntry(t *testing.T) {
	dir := t.TempDir()
	body := requestBody(t, kernelLoop(t, "triad"), "slack", wire.Options{})

	s1, err := New(Config{Workers: 2, StoreDir: dir, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	r0, b0 := post(t, ts1.URL, body)
	if r0.StatusCode != http.StatusOK {
		t.Fatalf("cold compile: status %d, body %s", r0.StatusCode, b0)
	}
	if got := r0.Header.Get("X-Lsmsd-Refined"); got != "" {
		t.Fatalf("cold compile already refined: %q", got)
	}
	base := decodeResponse(t, b0)
	if !base.OK || base.Refined {
		t.Fatalf("cold response: %+v", base)
	}

	refined := waitRefined(t, ts1.URL, body)
	want, err := os.ReadFile("testdata/refined_triad.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refined, want) {
		t.Fatalf("refined body differs from testdata/refined_triad.json:\n%s\nvs\n%s", refined, want)
	}
	got := decodeResponse(t, refined)
	if !got.OK || !got.Refined {
		t.Fatalf("refined response not marked: %+v", got)
	}
	if got.II > base.II || (got.II == base.II && got.MaxLive >= base.MaxLive) {
		t.Fatalf("refinement did not strictly improve: base (II=%d, ML=%d), refined (II=%d, ML=%d)",
			base.II, base.MaxLive, got.II, got.MaxLive)
	}
	if got.Hash != base.Hash {
		t.Fatalf("refinement changed the request hash: %q vs %q", base.Hash, got.Hash)
	}

	// Once upgraded, the served bytes are stable again.
	r2, b2 := post(t, ts1.URL, body)
	if r2.Header.Get("X-Lsmsd-Refined") != "true" || !bytes.Equal(b2, refined) {
		t.Fatalf("repeat hit unstable after refinement:\n%s\nvs\n%s", refined, b2)
	}

	if v := metricValue(t, ts1.URL, "lsmsd_refine_started_total"); v != 1 {
		t.Errorf("lsmsd_refine_started_total = %d, want 1", v)
	}
	if v := metricValue(t, ts1.URL, "lsmsd_refine_improved_total"); v != 1 {
		t.Errorf("lsmsd_refine_improved_total = %d, want 1", v)
	}

	// The refinement left a trace with a `refine` span in the recorder,
	// and the exact backend's own span carries the proof bit.
	var sawSpan, sawProven bool
	for _, tr := range s1.FlightRecorder().Snapshot() {
		for _, sp := range tr.Spans {
			if sp.Name == "refine" && sp.Outcome == "improved" {
				sawSpan = true
			}
			for _, a := range sp.Attrs {
				if sp.Name == "exact" && a.Key == "proven" {
					sawProven = true
				}
			}
		}
	}
	if !sawSpan {
		t.Error("no refine span with outcome improved in the flight recorder")
	}
	if !sawProven {
		t.Error("the refine trace has no exact span carrying proven")
	}

	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart without refinement: the upgrade is a property of the
	// stored record, not of the serving configuration.
	_, ts2 := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	r3, b3 := post(t, ts2.URL, body)
	if got := r3.Header.Get("X-Lsmsd-Cache"); got != "hit-disk" {
		t.Fatalf("replay cache header: %q, want hit-disk", got)
	}
	if r3.Header.Get("X-Lsmsd-Refined") != "true" {
		t.Fatal("replayed record lost its refined marker")
	}
	if !bytes.Equal(b3, refined) {
		t.Fatalf("replay not byte-identical to refined body:\n%s\nvs\n%s", refined, b3)
	}
}

// TestRefineUnchangedLeavesRecord: when slack already found the exact
// optimum, the refinement records "unchanged" and the served bytes
// never move.
func TestRefineUnchangedLeavesRecord(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Refine: true})
	body := requestBody(t, kernelLoop(t, "daxpy"), "slack", wire.Options{})

	_, b0 := post(t, ts.URL, body)
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(t, ts.URL, "lsmsd_refine_unchanged_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("refinement never finished")
		}
		time.Sleep(25 * time.Millisecond)
	}
	r, b := post(t, ts.URL, body)
	if got := r.Header.Get("X-Lsmsd-Refined"); got != "" {
		t.Fatalf("unchanged refinement set the refined header: %q", got)
	}
	if !bytes.Equal(b, b0) {
		t.Fatalf("unchanged refinement moved the served bytes:\n%s\nvs\n%s", b0, b)
	}
	if v := metricValue(t, ts.URL, "lsmsd_refine_improved_total"); v != 0 {
		t.Errorf("lsmsd_refine_improved_total = %d, want 0", v)
	}
}

// TestRefineSkipsExactRequests: a request that already asked for the
// exact backend has nothing to refine toward; the tier must not
// re-enqueue it.
func TestRefineSkipsExactRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Refine: true})
	body := requestBody(t, kernelLoop(t, "daxpy"), "exact", wire.Options{})
	r, b := post(t, ts.URL, body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("exact compile: status %d, body %s", r.StatusCode, b)
	}
	// Give a would-be enqueue time to start before asserting none did.
	time.Sleep(100 * time.Millisecond)
	if v := metricValue(t, ts.URL, "lsmsd_refine_started_total"); v != 0 {
		t.Errorf("lsmsd_refine_started_total = %d, want 0", v)
	}
}

// refinedOracle is the refined body as the refiner once built it by
// hand: a direct exact.Search, MinDist recomputed at the found II when
// the result carries none, and every derived field filled in place.
func refinedOracle(t *testing.T, l *ir.Loop, hash string, cfg Config) []byte {
	t.Helper()
	req, err := wire.NewRequest(l, "slack", wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	norm, _, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	loop, err := norm.Lower()
	if err != nil {
		t.Fatal(err)
	}
	scfg := norm.Options.SchedConfig()
	scfg.Budget.Deadline = cfg.RefineDeadline
	scfg.Budget.MaxCentralIters = cfg.RefineNodes
	out, err := exact.New(scfg).Search(context.Background(), loop)
	if err != nil || !out.Result.OK() {
		t.Fatalf("%s: exact search: %v", l.Name, err)
	}
	res := out.Result
	md := res.MinDist
	if md == nil || md.II != res.Schedule.II {
		if md, err = mindist.Compute(loop, res.Schedule.II); err != nil {
			t.Fatal(err)
		}
	}
	sc, b := res.Schedule, res.Bounds
	body, err := json.Marshal(&wire.Response{
		Hash: hash, Loop: loop.Name, Machine: norm.Machine, Scheduler: "slack", OK: true,
		Bounds: wire.Bounds{ResMII: b.ResMII, RecMII: b.RecMII, MII: b.MII},
		II:     sc.II, Length: sc.Length(), Stages: sc.Stages(), Times: sc.Time,
		MaxLive: out.MaxLive, MinAvg: mindist.MinAvg(loop, md, ir.RR),
		ICR: lifetime.ICRUsageIn(loop, sc, &lifetime.Scratch{}), GPRs: loop.GPRCount(),
		Effort: wire.EffortOf(res.Stats), Refined: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRefinedBodyIsOutcomeOf holds the refiner to the one response
// builder over the kernel corpus: with the served schedule made
// unbeatable-looking (a huge base II) every job upgrades, and the
// stored body must equal both outcomeOf over a SchedExact compile with
// Refined set and the body the refiner used to build by hand.
func TestRefinedBodyIsOutcomeOf(t *testing.T) {
	// The node cap, not the wall clock, bounds each search, so both
	// sides of the comparison stop at the same node.
	cfg := Config{Workers: 1, RefineDeadline: time.Minute, RefineNodes: 1 << 12}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := &refiner{s: s}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	defer r.cancel()
	scr := reqScratchPool.Get().(*reqScratch)
	defer scr.release()

	ks, err := loopgen.Kernels(machine.Cydra())
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		ks = ks[:8]
	}
	for _, k := range ks {
		raw := requestBody(t, k.CL.Loop, "slack", wire.Options{})
		req, err := wire.NewRequest(k.CL.Loop, "slack", wire.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var p prepared
		if e := s.prepare(req, &p); e != nil {
			t.Fatal(e.Message)
		}
		if e := s.lower(&p); e != nil {
			t.Fatal(e.Message)
		}
		r.process(scr, refineJob{hash: p.hash, reqID: k.Name, schedName: p.scheduler, loopName: p.loopName,
			rawReq: raw, baseII: 1 << 20})
		scr.reset()
		rec, ok := s.store.Get(p.hash)
		if !ok || !rec.Refined {
			t.Fatalf("%s: no refined record stored", k.Name)
		}

		cfg2 := p.norm.Options.SchedConfig()
		cfg2.Budget.Deadline = cfg.RefineDeadline
		cfg2.Budget.MaxCentralIters = cfg.RefineNodes
		c, err := core.Compile(context.Background(), p.loop, core.Options{
			Scheduler: core.SchedExact, Config: cfg2, SkipCodegen: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if want := outcomeOf(&p, c, nil, true); !bytes.Equal(rec.Body, want.body) {
			t.Errorf("%s: refined body is not outcomeOf's:\n%s\nvs\n%s", k.Name, rec.Body, want.body)
		}
		if want := refinedOracle(t, k.CL.Loop, p.hash, cfg); !bytes.Equal(rec.Body, want) {
			t.Errorf("%s: refined body differs from the hand-built one:\n%s\nvs\n%s", k.Name, rec.Body, want)
		}
	}
}
