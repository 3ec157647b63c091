package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/server"
	"repro/internal/store"
)

// Cache labels lsmsd puts in the X-Lsmsd-Cache response header.
const (
	labelMiss     = "miss"
	labelHit      = "hit"
	labelHitDisk  = "hit-disk"
	cacheHeader   = "X-Lsmsd-Cache"
	compilePath   = "/v1/compile"
	defaultMemory = 1024 // server.Config's default memory-tier entries
)

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// client is one closed-loop caller: it reuses its request, body reader
// and response writer, so the harness adds almost nothing to the
// allocations measured per request.
type client struct {
	r    *http.Request
	body bodyReader
	w    respWriter
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func newClient() *client {
	c := &client{w: respWriter{h: http.Header{}}}
	c.r, _ = http.NewRequest(http.MethodPost, compilePath, nil) // constant method and path
	c.r.Body = &c.body
	return c
}

// do sends one request through h.
func (c *client) do(h http.Handler, doc []byte) {
	clear(c.w.h)
	c.w.status = 0
	c.w.body.Reset()
	c.body.Reset(doc)
	h.ServeHTTP(&c.w, c.r)
}

// slot is one request's outcome within a pass.
type slot struct {
	status int
	label  string
	body   []byte
}

// record copies the client's last response into s.
func (s *slot) record(c *client) {
	s.status = c.w.status
	s.label = c.w.h.Get(cacheHeader)
	s.body = append(s.body[:0], c.w.body.Bytes()...)
}

// servePass sends every doc once through h on n closed-loop clients,
// writing each request's latency and outcome by position.
func servePass(h http.Handler, docs [][]byte, slots []slot, lat opTimes, n int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread() // the handler runs here: its on-CPU time is this thread's
			defer runtime.UnlockOSThread()
			c := newClient()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(docs) {
					return
				}
				start := now()
				c.do(h, docs[k])
				lat.since(k, start)
				slots[k].record(c)
			}
		}()
	}
	wg.Wait()
}

// instance is one lsmsd server with its own store directory.
type instance struct {
	srv  *server.Server
	dir  string
	disk *store.Disk
	clk  *tierClock // non-nil when the store tiers are timed
}

// newInstance starts lsmsd with the default configuration plus a fresh
// store directory, so the memory and disk tiers both run. With timed
// set, the same two tiers are wrapped to time every store call.
func newInstance(cfg config, timed bool) (*instance, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "store-")
	if err != nil {
		return nil, err
	}
	in := &instance{dir: dir}
	scfg := server.Config{StoreDir: dir}
	if timed {
		if in.disk, err = store.Open(dir, 0); err != nil {
			return nil, err
		}
		in.clk = &tierClock{}
		scfg = server.Config{Store: store.NewTiered(
			timedTier{store.NewMemory(defaultMemory), in.clk},
			timedTier{in.disk, in.clk})}
	}
	if in.srv, err = server.New(scfg); err != nil {
		return nil, err
	}
	if !timed {
		for _, t := range in.srv.Store().Tiers() {
			if d, ok := t.(*store.Disk); ok {
				in.disk = d
			}
		}
	}
	return in, nil
}

// close stops the server, counts any disk records that failed
// verification as failures, and removes the store.
func (in *instance) close(rep *report) {
	if in.disk != nil {
		if n := in.disk.Stats().Rejects; n > 0 {
			rep.problem("disk tier rejected %d records", n)
			rep.diskRejects += n
		}
	}
	if err := in.srv.Close(); err != nil {
		rep.problem("closing server: %v", err)
	}
	os.RemoveAll(in.dir)
}

// checkSlots checks a pass's responses: status 200, an allowed cache
// label, and a body byte-identical to the first response seen for the
// hash, which is itself decoded and checked in full (checkBody).
func checkSlots(loops []*entry, idx []int, slots []slot, ref map[string]*served, ok func(label string) bool, rep *report) {
	for k, s := range slots {
		e := loops[idx[k]]
		rep.attempted++
		switch r := ref[e.hash]; {
		case s.status != http.StatusOK:
			rep.fail("%s: status %d: %s", e.name, s.status, s.body)
		case !ok(s.label):
			rep.fail("%s: unexpected cache label %q", e.name, s.label)
		case r != nil:
			if !bytes.Equal(s.body, r.body) {
				rep.fail("%s: body differs from the first response for its hash", e.name)
			}
		default:
			sv, err := checkBody(e, s.body)
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			ref[e.hash] = sv
		}
	}
}

func isMiss(l string) bool { return l == labelMiss }

func isHit(l string) bool { return l == labelHit || l == labelHitDisk }

// missPlain is serve-miss's end-to-end run: IR-form requests, each pass
// on a fresh server with an empty store, so every request schedules and
// writes the store.
func missPlain(cfg config, rep *report) error {
	setup, loops, err := timedSetups(func() ([]*entry, error) { return buildCorpus(cfg, true) }, nil)
	if err != nil {
		return err
	}
	p := newPasses(cfg, loops)
	ref := map[string]*served{}
	var t timing
	for pass := 0; pass == 0 || t.passes == 0 || t.wall < cfg.seconds; pass++ {
		p.shuffle(func(e *entry) []byte { return e.irDoc })
		in, err := newInstance(cfg, false)
		if err != nil {
			return err
		}
		h := in.srv.Handler()
		if pass == 0 {
			servePass(h, p.docs, p.slots, p.lat, checkWorkers()) // warm-up
		} else {
			t.measure(func() opTimes {
				servePass(h, p.docs, p.slots, p.lat, clients)
				return p.lat
			})
		}
		in.close(rep)
		checkSlots(loops, p.idx, p.slots, ref, isMiss, rep)
	}
	rep.endToEnd(setup, &t, servedQuality(ref))
	return nil
}

// passes holds one pass's requests and outcomes, by position.
type passes struct {
	rng   *rand.Rand
	loops []*entry
	idx   []int
	docs  [][]byte
	slots []slot
	lat   opTimes
}

func newPasses(cfg config, loops []*entry) *passes {
	n := len(loops)
	return &passes{
		rng: rand.New(rand.NewSource(cfg.seed)), loops: loops,
		idx: make([]int, n), docs: make([][]byte, n), slots: make([]slot, n), lat: makeOpTimes(n),
	}
}

// shuffle sets the next pass to every loop once, in seeded order.
func (p *passes) shuffle(doc func(*entry) []byte) {
	for k, i := range p.rng.Perm(len(p.loops)) {
		p.idx[k], p.docs[k] = i, doc(p.loops[i])
	}
}

// draw sets the next pass to len(loops) uniform random draws.
func (p *passes) draw(doc func(*entry) []byte) {
	for k := range p.idx {
		i := p.rng.Intn(len(p.loops))
		p.idx[k], p.docs[k] = i, doc(p.loops[i])
	}
}

// hitState is serve-hit's set-up: the corpus and a server whose store
// holds every loop's record.
type hitState struct {
	loops []*entry
	in    *instance
	ref   map[string]*served
	fill  *passes
}

// prefill builds the corpus and a server, then sends every loop's
// source-form request once, in corpus order, so the disk tier holds all
// records and the memory tier the last 1,024.
func prefill(cfg config, timed bool) (*hitState, error) {
	loops, err := buildCorpus(cfg, true)
	if err != nil {
		return nil, err
	}
	in, err := newInstance(cfg, timed)
	if err != nil {
		return nil, err
	}
	p := newPasses(cfg, loops)
	for i, e := range loops {
		p.idx[i], p.docs[i] = i, e.srcDoc
	}
	servePass(in.srv.Handler(), p.docs, p.slots, p.lat, 1) // one client keeps corpus order
	return &hitState{loops: loops, in: in, fill: p}, nil
}

// checkFill checks the pre-fill responses, which become the reference
// bodies every hit must equal.
func (hs *hitState) checkFill(rep *report) {
	hs.ref = map[string]*served{}
	checkSlots(hs.loops, hs.fill.idx, hs.fill.slots, hs.ref, isMiss, rep)
}

// hitPlain is serve-hit's end-to-end run: source-form repeat traffic
// against a pre-filled store, drawn uniformly at random.
func hitPlain(cfg config, rep *report) error {
	setup, hs, err := timedSetups(func() (*hitState, error) { return prefill(cfg, false) },
		func(hs *hitState) { hs.in.close(rep) })
	if err != nil {
		return err
	}
	defer hs.in.close(rep)
	hs.checkFill(rep)
	p := newPasses(cfg, hs.loops)
	h := hs.in.srv.Handler()
	var t timing
	var hits [2]int64
	for pass := 0; pass == 0 || t.passes == 0 || t.wall < cfg.seconds; pass++ {
		p.draw(func(e *entry) []byte { return e.srcDoc })
		if pass == 0 {
			servePass(h, p.docs, p.slots, p.lat, checkWorkers()) // warm-up
		} else {
			t.measure(func() opTimes {
				servePass(h, p.docs, p.slots, p.lat, clients)
				return p.lat
			})
			countHits(p.slots, &hits)
		}
		checkSlots(hs.loops, p.idx, p.slots, hs.ref, isHit, rep)
	}
	rep.endToEnd(setup, &t, servedQuality(hs.ref))
	rep.note("memory_hit_share", float64(hits[0])/float64(t.ops), "ratio", fmt.Sprintf("n=%d", t.ops))
	rep.note("disk_hit_share", float64(hits[1])/float64(t.ops), "ratio", fmt.Sprintf("n=%d", t.ops))
	return nil
}

func countHits(slots []slot, hits *[2]int64) {
	for _, s := range slots {
		switch s.label {
		case labelHit:
			hits[0]++
		case labelHitDisk:
			hits[1]++
		}
	}
}
