package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/loopgen"
	"repro/internal/wire"
)

// TestConcurrentReplay sends each request of a small corpus three
// times in a row from concurrent clients, so the repeats of one
// request race each other through lookup, the flight group and the
// store. Every response must
// be a 200 labelled hit, miss or dedup; every body for one request
// must be byte-identical; and the server must have scheduled exactly
// once per miss.
func TestConcurrentReplay(t *testing.T) {
	const clients, passes = 12, 3
	suite, err := loopgen.Build(loopgen.Options{Size: 20, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(suite.Loops))
	for i, l := range suite.Loops {
		req, err := wire.NewRequest(l.CL.Loop, "slack", wire.Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if bodies[i], err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, Config{Workers: 2})

	type reply struct {
		status int
		cache  string
		body   []byte
		err    error
	}
	replies := make([]reply, passes*len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(replies) {
					return
				}
				resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
					bytes.NewReader(bodies[i/passes]))
				if err != nil {
					replies[i].err = err
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				replies[i] = reply{resp.StatusCode, resp.Header.Get("X-Lsmsd-Cache"), body, err}
			}
		}()
	}
	wg.Wait()

	caches := map[string]int{}
	for i, r := range replies {
		name := suite.Loops[i/passes].Name
		if r.err != nil {
			t.Fatalf("request %d (%s): %v", i, name, r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("request %d (%s): status %d, body %s", i, name, r.status, r.body)
		}
		caches[r.cache]++
		switch r.cache {
		case "hit", "miss", "dedup":
		default:
			t.Errorf("request %d (%s): X-Lsmsd-Cache %q, want hit, miss or dedup", i, name, r.cache)
		}
		if first := replies[i/passes*passes]; !bytes.Equal(r.body, first.body) {
			t.Errorf("request %d (%s): body differs from the first reply to the same request", i, name)
		}
	}
	t.Logf("%d requests over %d loops: %v", len(replies), len(bodies), caches)
	if compiles := familySum(t, ts.URL, "lsmsd_compile_seconds_count"); compiles != int64(caches["miss"]) {
		t.Errorf("lsmsd_compile_seconds_count sums to %d, want one compile per miss (%d)", compiles, caches["miss"])
	}
}

// familySum scrapes /metrics and sums every series of one family.
func familySum(t *testing.T, url, family string) int64 {
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
	var sum int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || (f[0] != family && !strings.HasPrefix(f[0], family+"{")) {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		sum += v
	}
	return sum
}
