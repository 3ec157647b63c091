package golden

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/wire"
)

// testdata/golden/responses.txt holds what lsmsd answers to a fixed
// request set, one line per POST:
//
//	id status cache refined body
//
// where cache is the X-Lsmsd-Cache header and refined the
// X-Lsmsd-Refined header ("-" when absent), and body is the response
// body verbatim. Every request is posted twice in a row (ids #1 and
// #2), so the file pins the miss → hit labels as well as the bytes.
// The request set:
//
//   - kernel/<loop>/<scheduler>/<options>: the 34 cydra kernels under
//     every built-in scheduler, with default options, with max_ii 1 and
//     with max_central_iters 50;
//   - source/<file>/<index>: every testdata/loops file in source form
//     at loop_index 0, 1 and 2;
//   - fixture/<name>: the wire fixtures, daxpy.f as the source-form
//     pair of daxpy.wire.json, a zero-ω loop, malformed JSON and an
//     unknown scheduler;
//   - refine/<loop>: each kernel under slack on a refining server, the
//     second post after its refinement has finished. Refinement runs
//     under refineNodes search nodes, a cap reached long before its
//     deadline, so the refined bodies are deterministic.
//
// The refining server's store log, written in that order, is the
// fixture testdata/store/lsmsd.store (TestStoreFixture). Regenerate
// both with
//
//	go test ./internal/golden -run 'TestResponses' -update
//
// A change that alters either must say why in CHANGES.md.

const refineNodes = 1 << 12

var (
	responsesPath = filepath.Join("..", "..", "testdata", "golden", "responses.txt")
	fixtureLog    = filepath.Join("..", "..", "testdata", "store", "lsmsd.store")
	optionSets    = []struct {
		name string
		opt  wire.Options
	}{
		{"default", wire.Options{}},
		{"max_ii=1", wire.Options{MaxII: 1}},
		{"max_central_iters=50", wire.Options{MaxCentralIters: 50}},
	}
)

func TestResponses(t *testing.T) {
	var got []string
	got = append(got, kernelResponses(t)...)
	got = append(got, sourceResponses(t)...)
	got = append(got, fixtureResponses(t)...)
	refined, storeLog := refineResponses(t)
	got = append(got, refined...)
	if *update {
		writeLines(t, responsesPath, got)
		if err := os.MkdirAll(filepath.Dir(fixtureLog), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixtureLog, storeLog, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readResponses(t)
	bad := 0
	for _, line := range got {
		id := respID(line)
		w, ok := want[id]
		switch {
		case !ok:
			t.Errorf("%s: no golden line for %s", responsesPath, id)
		case w != line:
			t.Errorf("%s: %s answers\n got %s\nwant %s", responsesPath, id, line, w)
		default:
			continue
		}
		if bad++; bad == 10 {
			t.Fatal("too many differences")
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: computed %d lines, file has %d", responsesPath, len(got), len(want))
	}
}

// TestStoreFixture restarts a server on a copy of the committed store
// fixture: every kernel answers hit-disk with the refined post's
// golden bytes and X-Lsmsd-Refined header, and nothing is scheduled or
// rejected. A record whose version is not the store's current one is a
// miss, so a change that bumps the record version turns every request
// here into a miss, by design.
func TestStoreFixture(t *testing.T) {
	raw, err := os.ReadFile(fixtureLog)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "lsmsd.store"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if loaded, rejected, _ := s.StoreLoadReport(); rejected != 0 {
		t.Errorf("fixture load: %d loaded, %d rejected", loaded, rejected)
	}
	want := readResponses(t)
	h := s.Handler()
	for _, k := range kernels(t) {
		id := "refine/" + k.Name
		w, ok := want[id+"#2"]
		if !ok {
			t.Fatalf("%s: no golden line for %s#2", responsesPath, id)
		}
		f := strings.SplitN(w, " ", 5)
		rec := postTo(h, requestJSON(t, k.CL.Loop, "slack", wire.Options{}))
		got := responseLine(id+"#2", rec)
		g := strings.SplitN(got, " ", 5)
		if g[2] != "hit-disk" || g[1] != f[1] || g[3] != f[3] || g[4] != f[4] {
			t.Errorf("%s from the fixture store:\n got %s\nwant status %s, hit-disk, refined %s, body %s", id, got, f[1], f[3], f[4])
		}
	}
	if v := scrape(t, h, "lsmsd_cache_misses_total"); v != 0 {
		t.Errorf("lsmsd_cache_misses_total = %d, want 0", v)
	}
}

func kernels(t *testing.T) []*loopgen.Loop {
	t.Helper()
	ks, err := loopgen.Kernels(machine.Cydra())
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// kernelResponses posts each kernel under every built-in scheduler and
// option set to one server.
func kernelResponses(t *testing.T) []string {
	h := newResponseServer(t, server.Config{Workers: 1})
	var out []string
	for _, k := range kernels(t) {
		for _, sch := range []core.SchedulerName{core.SchedSlack, core.SchedSlackUni, core.SchedCydrome, core.SchedList, core.SchedExact} {
			for _, o := range optionSets {
				id := fmt.Sprintf("kernel/%s/%s/%s", k.Name, sch, o.name)
				out = append(out, postTwice(h, id, requestJSON(t, k.CL.Loop, string(sch), o.opt))...)
			}
		}
	}
	return out
}

// sourceResponses posts every testdata/loops file in source form.
func sourceResponses(t *testing.T) []string {
	h := newResponseServer(t, server.Config{Workers: 1})
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "loops", "*.f"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no loop files: %v", err)
	}
	var out []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for idx := 0; idx < 3; idx++ {
			id := fmt.Sprintf("source/%s/%d", filepath.Base(f), idx)
			out = append(out, postTwice(h, id, sourceJSON(t, string(src), idx))...)
		}
	}
	return out
}

// fixtureResponses posts the wire fixtures and the error cases.
func fixtureResponses(t *testing.T) []string {
	h := newResponseServer(t, server.Config{Workers: 1})
	var out []string
	for _, name := range []string{"daxpy.wire.json", "daxpy.spec.wire.json", "daxpy.retired-option.wire.json"} {
		b, err := os.ReadFile(filepath.Join("..", "wire", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, postTwice(h, "fixture/"+name, b)...)
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "loops", "daxpy.f"))
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, postTwice(h, "fixture/daxpy.f", sourceJSON(t, string(src), 0))...)

	// a and b read each other in the same iteration: a circuit only
	// the compile's RecMII rejects.
	l := ir.NewLoop("combinational", machine.Cydra())
	a := l.NewValue("a", ir.RR, ir.Float)
	b := l.NewValue("b", ir.RR, ir.Float)
	l.NewOp(machine.FAdd, []ir.Operand{{Val: b.ID}, {Val: b.ID}}, a.ID)
	l.NewOp(machine.FSub, []ir.Operand{{Val: a.ID}, {Val: a.ID}}, b.ID)
	l.MustFinalize()
	out = append(out, postTwice(h, "fixture/zero-omega", requestJSON(t, l, "slack", wire.Options{}))...)
	out = append(out, postTwice(h, "fixture/malformed-json", []byte("{not json"))...)
	ks := kernels(t)
	out = append(out, postTwice(h, "fixture/unknown-scheduler", requestJSON(t, ks[0].CL.Loop, "quantum", wire.Options{}))...)
	return out
}

// refineResponses posts each kernel under slack to a refining server
// with a disk tier, waits for its refinement, and posts it again. It
// returns the lines and the store log the server leaves behind.
func refineResponses(t *testing.T) ([]string, []byte) {
	dir := t.TempDir()
	s, err := server.New(server.Config{
		Workers: 1, StoreDir: dir,
		Refine: true, RefineNodes: refineNodes, RefineDeadline: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var out []string
	for i, k := range kernels(t) {
		id := "refine/" + k.Name
		body := requestJSON(t, k.CL.Loop, "slack", wire.Options{})
		out = append(out, responseLine(id+"#1", postTo(h, body)))
		waitRefinements(t, h, int64(i+1))
		out = append(out, responseLine(id+"#2", postTo(h, body)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "lsmsd.store"))
	if err != nil {
		t.Fatal(err)
	}
	return out, log
}

// waitRefinements waits until n refinements have finished.
func waitRefinements(t *testing.T, h http.Handler, n int64) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		done := scrape(t, h, "lsmsd_refine_improved_total") +
			scrape(t, h, "lsmsd_refine_unchanged_total") +
			scrape(t, h, "lsmsd_refine_exhausted_total")
		if done >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d refinements finished", done, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func newResponseServer(t *testing.T, cfg server.Config) http.Handler {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s.Handler()
}

func requestJSON(t *testing.T, l *ir.Loop, scheduler string, opt wire.Options) []byte {
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

func sourceJSON(t *testing.T, src string, idx int) []byte {
	t.Helper()
	b, err := json.Marshal(&wire.Request{
		Version: wire.Version, Machine: machine.PaperMachine, Scheduler: "slack",
		Source: src, LoopIndex: idx,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postTo(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
	return rec
}

func postTwice(h http.Handler, id string, body []byte) []string {
	return []string{
		responseLine(id+"#1", postTo(h, body)),
		responseLine(id+"#2", postTo(h, body)),
	}
}

func responseLine(id string, rec *httptest.ResponseRecorder) string {
	return fmt.Sprintf("%s %d %s %s %s", id, rec.Code,
		orDash(rec.Header().Get("X-Lsmsd-Cache")), orDash(rec.Header().Get("X-Lsmsd-Refined")),
		bytes.TrimSpace(rec.Body.Bytes()))
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// scrape reads one unlabelled counter from /metrics.
func scrape(t *testing.T, h http.Handler, name string) int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	b, _ := io.ReadAll(rec.Body)
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("%s not in /metrics", name)
	return 0
}

// readResponses reads the golden by request id. Its lines are long.
func readResponses(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(responsesPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		out[respID(sc.Text())] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// respID is a golden line's request id.
func respID(line string) string { return strings.SplitN(line, " ", 2)[0] }
