package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fixture"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/wire"
)

// corpusBodies wire-encodes the kernel portion of the loopgen corpus —
// the workload the restart tests replay.
func corpusBodies(t *testing.T) [][]byte {
	t.Helper()
	suite, err := loopgen.Build(loopgen.Options{Size: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, 0, len(suite.Loops))
	for _, l := range suite.Loops {
		bodies = append(bodies, requestBody(t, l.CL.Loop, "slack", wire.Options{}))
	}
	if len(bodies) == 0 {
		t.Fatal("empty corpus")
	}
	return bodies
}

// TestRestartByteIdentity is the tentpole's acceptance test: compile
// the kernel corpus, shut the server down, start a new server over the
// same store directory, and replay — every response must be served
// from the disk tier ("hit-disk"), byte-identical to the pre-restart
// response, without scheduling anything.
func TestRestartByteIdentity(t *testing.T) {
	dir := t.TempDir()
	bodies := corpusBodies(t)

	s1, err := New(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	first := make([][]byte, len(bodies))
	for i, body := range bodies {
		r, b := post(t, ts1.URL, body)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("corpus compile %d: status %d, body %s", i, r.StatusCode, b)
		}
		first[i] = b
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	if loaded, rejected, ok := s2.StoreLoadReport(); !ok || loaded != len(bodies) || rejected != 0 {
		t.Fatalf("LoadReport = %d loaded, %d rejected, ok=%v; want %d, 0, true",
			loaded, rejected, ok, len(bodies))
	}
	effortBefore := schedEffort(s2)
	for i, body := range bodies {
		r, b := post(t, ts2.URL, body)
		if got := r.Header.Get("X-Lsmsd-Cache"); got != "hit-disk" {
			t.Errorf("replay %d cache header: %q, want hit-disk", i, got)
		}
		if !bytes.Equal(b, first[i]) {
			t.Errorf("replay %d not byte-identical:\n%s\nvs\n%s", i, first[i], b)
		}
	}
	if after := schedEffort(s2); after != effortBefore {
		t.Errorf("disk replays scheduled: %d before, %d after", effortBefore, after)
	}
	if hits := metricValue(t, ts2.URL, `lsmsd_cache_hits_total{tier="disk"}`); hits != int64(len(bodies)) {
		t.Errorf("disk-tier hits = %d, want %d", hits, len(bodies))
	}
	if recs := metricValue(t, ts2.URL, "lsmsd_store_records"); recs < int64(len(bodies)) {
		t.Errorf("lsmsd_store_records = %d, want >= %d", recs, len(bodies))
	}
}

// TestDiskHitPromotes proves the tier composition: the first replay
// after a restart answers from disk, the second from memory — the disk
// hit was promoted into the LRU tier.
func TestDiskHitPromotes(t *testing.T) {
	dir := t.TempDir()
	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})

	s1, err := New(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	post(t, ts1.URL, body)
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	r1, _ := post(t, ts2.URL, body)
	if got := r1.Header.Get("X-Lsmsd-Cache"); got != "hit-disk" {
		t.Fatalf("first replay: %q, want hit-disk", got)
	}
	r2, _ := post(t, ts2.URL, body)
	if got := r2.Header.Get("X-Lsmsd-Cache"); got != "hit" {
		t.Fatalf("second replay: %q, want hit (promoted to memory)", got)
	}
}

// TestMemoryTierDisabled runs disk-only (CacheEntries < 0): every
// repeat is a disk hit, and nothing is promoted.
func TestMemoryTierDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: -1, StoreDir: t.TempDir()})
	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})
	post(t, ts.URL, body)
	for i := 0; i < 2; i++ {
		r, _ := post(t, ts.URL, body)
		if got := r.Header.Get("X-Lsmsd-Cache"); got != "hit-disk" {
			t.Fatalf("repeat %d: %q, want hit-disk", i, got)
		}
	}
}

// TestServerCorruptStoreMisses is the service-level corruption story: a
// record damaged on disk between runs is never served — the request
// misses, recompiles, and the reject is visible in /metrics.
func TestServerCorruptStoreMisses(t *testing.T) {
	dir := t.TempDir()
	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})

	s1, err := New(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	_, want := post(t, ts1.URL, body)
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Flip the last byte of the log — inside the record's body, which
	// the CRC covers.
	path := filepath.Join(dir, "lsmsd.store")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	if _, rejected, ok := s2.StoreLoadReport(); !ok || rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	r, b := post(t, ts2.URL, body)
	if got := r.Header.Get("X-Lsmsd-Cache"); got != "miss" {
		t.Fatalf("post-corruption request: %q, want miss (never serve damaged bytes)", got)
	}
	if r.StatusCode != http.StatusOK || !bytes.Equal(b, want) {
		t.Fatalf("recompile diverged: status %d", r.StatusCode)
	}
	if rej := metricValue(t, ts2.URL, "lsmsd_store_rejects_total"); rej != 1 {
		t.Errorf("lsmsd_store_rejects_total = %d, want 1", rej)
	}
}

// TestWarmStart exercises the precompile path: a cold warm-start
// compiles the corpus, a second pass finds everything warm, and after a
// restart over the same directory the disk tier alone satisfies it.
func TestWarmStart(t *testing.T) {
	dir := t.TempDir()
	suite, err := loopgen.Build(loopgen.Options{Size: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*wire.Request, 0, len(suite.Loops))
	for _, l := range suite.Loops {
		req, err := wire.NewRequest(l.CL.Loop, "slack", wire.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}

	s1, err := New(Config{Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.WarmStart(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != len(reqs) || st.Compiled != len(reqs) || st.Warm != 0 || st.Failed != 0 {
		t.Fatalf("cold warm-start stats: %+v", st)
	}
	st, err = s1.WarmStart(context.Background(), reqs)
	if err != nil || st.Warm != len(reqs) || st.Compiled != 0 {
		t.Fatalf("second warm-start stats: %+v err=%v", st, err)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	st, err = s2.WarmStart(context.Background(), reqs)
	if err != nil || st.Warm != len(reqs) || st.Compiled != 0 || st.Failed != 0 {
		t.Fatalf("post-restart warm-start stats: %+v err=%v", st, err)
	}
	// And the warmed store serves traffic without scheduling.
	effort := schedEffort(s2)
	r, _ := post(t, ts2.URL, requestBody(t, suite.Loops[0].CL.Loop, "slack", wire.Options{}))
	if got := r.Header.Get("X-Lsmsd-Cache"); got != "hit" && got != "hit-disk" {
		t.Fatalf("warmed request: %q, want a store hit", got)
	}
	if after := schedEffort(s2); after != effort {
		t.Error("warmed request scheduled")
	}
}

// TestWarmStartServesLiveBytes: warm-start runs the live stages, so a
// request it warmed is served byte-identically to a cold POST on a
// fresh server. Warm compiles count in lsmsd_compile_seconds and never
// in lsmsd_requests_total, which counts only HTTP traffic.
func TestWarmStartServesLiveBytes(t *testing.T) {
	suite, err := loopgen.Build(loopgen.Options{Size: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*wire.Request
	var bodies [][]byte
	for _, l := range suite.Loops {
		req, err := wire.NewRequest(l.CL.Loop, "slack", wire.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
		bodies = append(bodies, requestBody(t, l.CL.Loop, "slack", wire.Options{}))
	}

	warmed, tsWarm := newTestServer(t, Config{Workers: 2})
	if st, err := warmed.WarmStart(context.Background(), reqs); err != nil || st.Compiled != len(reqs) {
		t.Fatalf("warm-start stats %+v, err %v", st, err)
	}
	ok := `lsmsd_compile_seconds_count{scheduler="slack",outcome="ok"}`
	if n := metricValue(t, tsWarm.URL, ok); n != int64(len(reqs)) {
		t.Errorf("%s = %d after warm-start, want %d", ok, n, len(reqs))
	}
	if n := metricValue(t, tsWarm.URL, "lsmsd_requests_total"); n != 0 {
		t.Errorf("lsmsd_requests_total = %d after warm-start, want 0", n)
	}

	_, tsCold := newTestServer(t, Config{Workers: 2})
	for i, body := range bodies {
		rw, bw := post(t, tsWarm.URL, body)
		rc, bc := post(t, tsCold.URL, body)
		if rw.Header.Get("X-Lsmsd-Cache") != "hit" || rc.Header.Get("X-Lsmsd-Cache") != "miss" {
			t.Fatalf("request %d: cache %q warmed, %q cold", i, rw.Header.Get("X-Lsmsd-Cache"), rc.Header.Get("X-Lsmsd-Cache"))
		}
		if rw.StatusCode != rc.StatusCode || !bytes.Equal(bw, bc) {
			t.Fatalf("request %d: warmed %d %s\ncold %d %s", i, rw.StatusCode, bw, rc.StatusCode, bc)
		}
	}
	if n := metricValue(t, tsWarm.URL, "lsmsd_requests_total"); n != int64(len(reqs)) {
		t.Errorf("lsmsd_requests_total = %d, want %d", n, len(reqs))
	}
	if n := metricValue(t, tsWarm.URL, ok); n != int64(len(reqs)) {
		t.Errorf("%s = %d after hits, want %d", ok, n, len(reqs))
	}
}

// missFirstTier holds its records but misses the first Get of each key:
// the store a request sees when an identical flight stores its answer
// between the request's lookup and its join.
type missFirstTier struct {
	store.Tier
	mu   sync.Mutex
	seen map[string]bool
}

func (m *missFirstTier) Get(key string) (store.Record, bool) {
	m.mu.Lock()
	first := !m.seen[key]
	m.seen[key] = true
	m.mu.Unlock()
	if first {
		return store.Record{}, false
	}
	return m.Tier.Get(key)
}

// TestLeaderRelookupServesStoredRecord: a request whose key was stored
// after its lookup finds the record at the leader's second lookup, live
// or warm, and schedules nothing.
func TestLeaderRelookupServesStoredRecord(t *testing.T) {
	l := fixture.Daxpy(machine.Cydra())
	req, err := wire.NewRequest(l, "slack", wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, hash, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	stored := []byte(`{"stored":true}`)
	newServer := func() (*Server, *httptest.Server) {
		mem := store.NewMemory(16)
		mem.Put(hash, store.Record{Status: http.StatusOK, Body: stored})
		return newTestServer(t, Config{Workers: 1, Store: &missFirstTier{Tier: mem, seen: map[string]bool{}}})
	}

	live, ts := newServer()
	r, b := post(t, ts.URL, requestBody(t, l, "slack", wire.Options{}))
	if c := r.Header.Get("X-Lsmsd-Cache"); c != "hit" || !bytes.Equal(b, stored) {
		t.Errorf("live request: cache %q, body %s; want hit, %s", c, b, stored)
	}
	if e := schedEffort(live); e != 0 {
		t.Errorf("live request scheduled: effort %d", e)
	}

	warm, _ := newServer()
	st, err := warm.WarmStart(context.Background(), []*wire.Request{req})
	if err != nil || st != (WarmStats{Total: 1, Warm: 1}) {
		t.Errorf("warm-start stats %+v, err %v; want total=1 warm=1", st, err)
	}
	if e := schedEffort(warm); e != 0 {
		t.Errorf("warm-start scheduled: effort %d", e)
	}
}
