package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// attributionTolerance bounds attribution_gap: the per-layer self times
// must sum to the untraced per-op time within this share of it.
const attributionTolerance = 0.15

// pipelineSpans are the spans the compile pipeline emits; the layer
// metrics are their self times.
var pipelineSpans = map[string]string{
	"schedule":           "sched.schedule_self_us",
	"mii":                "mii.us",
	"mindist":            "mindist.us",
	"mindist-parametric": "mindist.us",
	"attempt":            "sched.attempt_self_us",
	"degrade":            "sched.schedule_self_us",
	"pressure":           "lifetime.pressure_us",
	"codegen":            "codegen.self_us",
	"regalloc":           "regalloc.us",
}

// spanTotals sums pipeline span self times by layer metric. A span's
// self time is its duration minus the spans nested directly inside it.
type spanTotals struct {
	self  map[string]time.Duration
	stack []openSpan
}

type openSpan struct {
	sp    *obs.Span
	child time.Duration
}

func (s *spanTotals) add(spans []*obs.Span) {
	if s.self == nil {
		s.self = map[string]time.Duration{}
	}
	pop := func() {
		top := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if m, ok := pipelineSpans[top.sp.Name]; ok {
			s.self[m] += top.sp.Dur - top.child
		}
	}
	for _, sp := range spans {
		for len(s.stack) > 0 {
			p := s.stack[len(s.stack)-1].sp
			if sp.Start >= p.Start && sp.Start+sp.Dur <= p.Start+p.Dur {
				break
			}
			pop()
		}
		if len(s.stack) > 0 {
			s.stack[len(s.stack)-1].child += sp.Dur
		}
		s.stack = append(s.stack, openSpan{sp: sp})
	}
	for len(s.stack) > 0 {
		pop()
	}
}

// total is the pipeline's time: the sum of every span self time.
func (s *spanTotals) total() time.Duration {
	var t time.Duration
	for _, d := range s.self {
		t += d
	}
	return t
}

// tierClock accumulates the time one request spends in store tier calls.
// The traced run switches it on for each traced request and reads it
// after; it is off otherwise, as when the warm-up's clients share the
// tiers.
type tierClock struct {
	on       bool
	get, put time.Duration
}

// timedTier times a store tier's Get and Put, so the traced run sees
// what (*store.Tiered).GetTier and Put cost inside the handler.
type timedTier struct {
	store.Tier
	clk *tierClock
}

func (t timedTier) Get(key string) (store.Record, bool) {
	if !t.clk.on {
		return t.Tier.Get(key)
	}
	start := time.Now()
	rec, ok := t.Tier.Get(key)
	t.clk.get += time.Since(start)
	return rec, ok
}

func (t timedTier) Put(key string, rec store.Record) {
	if !t.clk.on {
		t.Tier.Put(key, rec)
		return
	}
	start := time.Now()
	t.Tier.Put(key, rec)
	t.clk.put += time.Since(start)
}

// tierTime is the time and call count of one kind of store call.
type tierTime struct {
	d time.Duration
	n int64
}

func (t tierTime) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return us(t.d) / float64(t.n)
}

// layers is what a traced run measured.
type layers struct {
	ops                      int64
	spans                    spanTotals
	compile                  time.Duration // core.CompileInto calls, or the handler's pipeline spans
	decode, normalize, hash  time.Duration
	reqBytes, respBytes      int64
	getMem, getDisk, getMiss tierTime
	put                      tierTime
	handler                  time.Duration
	whole                    time.Duration // Σ layer self times
	plain                    time.Duration // Σ untraced op times
	traced                   time.Duration // Σ traced op times, wire calls included
	q                        quality
}

// perLayer prints every per-layer metric and fails the run when the
// layers do not sum to the untraced whole.
func (r *report) perLayer(l *layers) {
	n := float64(l.ops)
	perOp := func(d time.Duration) float64 { return us(d) / n }
	ops := fmt.Sprintf("n=%d", l.ops)
	r.add("wire.decode_us", perOp(l.decode), "us", ops)
	r.add("wire.normalize_us", perOp(l.normalize), "us", ops)
	r.add("wire.hash_us", perOp(l.hash), "us", ops)
	r.add("wire.request_bytes", float64(l.reqBytes)/n, "B", ops)
	r.add("wire.response_bytes", float64(l.respBytes)/n, "B", ops)
	r.add("store.get_memory_us", l.getMem.mean(), "us", fmt.Sprintf("n=%d", l.getMem.n))
	r.add("store.get_disk_us", l.getDisk.mean(), "us", fmt.Sprintf("n=%d", l.getDisk.n))
	r.add("store.get_miss_us", l.getMiss.mean(), "us", fmt.Sprintf("n=%d", l.getMiss.n))
	r.add("store.put_us", l.put.mean(), "us", fmt.Sprintf("n=%d", l.put.n))
	r.add("store.memory_hit_share", float64(l.getMem.n)/n, "ratio", ops)
	r.add("store.disk_hit_share", float64(l.getDisk.n)/n, "ratio", ops)
	r.add("store.disk_rejects", float64(r.diskRejects), "count", "all servers of the run")
	r.add("core.compile_us", perOp(l.compile), "us", ops)
	for _, m := range []string{"mii.us", "mindist.us", "sched.schedule_self_us", "sched.attempt_self_us",
		"lifetime.pressure_us", "codegen.self_us", "regalloc.us"} {
		r.add(m, perOp(l.spans.self[m]), "us", ops)
	}
	r.schedCounts(l.q)
	loops := fmt.Sprintf("%d loops", l.q.loops)
	r.add("regalloc.registers_per_loop", l.q.ratio(l.q.registers, int64(l.q.loops)), "count", loops)
	r.add("regalloc.sizes_tried_per_alloc", l.q.ratio(l.q.sizes, l.q.allocRuns), "count",
		fmt.Sprintf("%d allocations", l.q.allocRuns))
	r.add("regalloc.regs_over_maxlive", l.q.ratio(l.q.regs, l.q.maxLive), "ratio", loops)
	r.add("server.handler_us", perOp(l.handler), "us", ops)
	var other time.Duration
	if l.handler > 0 {
		other = l.handler - (l.decode + l.normalize + l.hash + l.getMem.d + l.getDisk.d + l.getMiss.d + l.put.d + l.compile)
		if other < 0 {
			r.problem("serve-path layers (%.1fµs/op) exceed the handler's time (%.1fµs/op)",
				perOp(l.handler-other), perOp(l.handler))
		}
	}
	r.add("server.other_us", perOp(other), "us", ops)
	plainPerOp := l.plain / time.Duration(l.ops)
	gap := math.Abs(float64(l.whole)/n-float64(plainPerOp)) / float64(plainPerOp)
	r.add("attribution_gap", gap, "ratio", fmt.Sprintf("tolerance %.2f", attributionTolerance))
	if gap > attributionTolerance {
		r.problem("attribution_gap %.3f exceeds %.2f: layers sum to %.1fµs/op, untraced op takes %.1fµs",
			gap, attributionTolerance, us(l.whole)/n, us(plainPerOp))
	}
	r.add("trace_overhead", float64(l.plain)/float64(l.traced), "ratio", "traced ÷ untraced throughput")
}

// pairedServe sends each doc to the untraced server a and to the traced
// server b, in alternating order, so drift on the machine touches both
// alike; then it times the wire layer's public calls on the same bytes.
// b's timed tiers see its store calls and its flight recorder keeps its
// pipeline spans.
func pairedServe(a, b *instance, docs [][]byte, sa, sb []slot, l *layers, rep *report) {
	ha := a.srv.Handler()
	ca, cb := newClient(), newClient()
	var scr wire.Scratch
	for k, doc := range docs {
		for j := range 2 {
			if (k+j)%2 == 0 {
				start := time.Now()
				ca.do(ha, doc)
				l.plain += time.Since(start)
				sa[k].record(ca)
			} else {
				l.tracedOp(b, cb, doc, &sb[k], rep)
			}
		}
		start := time.Now()
		l.wireCalls(&scr, doc, rep)
		l.traced += time.Since(start)
		l.ops++
	}
}

// tracedOp sends doc through in's handler with its store tiers timed,
// and attributes the store time and the pipeline spans of a miss.
func (l *layers) tracedOp(in *instance, c *client, doc []byte, s *slot, rep *report) {
	*in.clk = tierClock{on: true}
	start := time.Now()
	c.do(in.srv.Handler(), doc)
	d := time.Since(start)
	in.clk.on = false
	l.handler += d
	l.traced += d
	s.record(c)
	l.reqBytes += int64(len(doc))
	l.respBytes += int64(c.w.body.Len())
	clk := *in.clk
	switch s.label {
	case labelHit:
		l.getMem.d += clk.get + clk.put
		l.getMem.n++
	case labelHitDisk:
		// GetTier's promotion into the memory tier is part of the get.
		l.getDisk.d += clk.get + clk.put
		l.getDisk.n++
	case labelMiss:
		l.getMiss.d += clk.get
		l.getMiss.n++
		l.put.d += clk.put
		l.put.n++
		tr := lastTrace(in.srv.FlightRecorder())
		if tr == nil || tr.ID != c.w.h.Get("X-Request-Id") {
			rep.problem("no flight-recorder trace for a miss")
			return
		}
		before := l.spans.total()
		l.spans.add(tr.Spans)
		l.compile += l.spans.total() - before
	}
}

// wireCalls times the wire layer's public calls on one request body, as
// the handler makes them: decode, normalize, then hash the normalized
// request.
func (l *layers) wireCalls(scr *wire.Scratch, doc []byte, rep *report) {
	defer scr.Reset()
	t0 := time.Now()
	req, err := scr.DecodeRequest(doc)
	t1 := time.Now()
	if err != nil {
		rep.problem("decode: %v", err)
		return
	}
	norm, _, err := req.Normalize()
	t2 := time.Now()
	if err != nil {
		rep.problem("normalize: %v", err)
		return
	}
	if _, err := norm.Hash(); err != nil {
		rep.problem("hash: %v", err)
		return
	}
	l.hash += time.Since(t2)
	l.decode += t1.Sub(t0)
	l.normalize += t2.Sub(t1)
}

func lastTrace(fr *obs.FlightRecorder) *obs.Trace {
	s := fr.Snapshot()
	if len(s) == 0 {
		return nil
	}
	return s[len(s)-1]
}

// missTraced is serve-miss's per-layer run: after a reference pass,
// each pass sends every request to a fresh untraced server and a fresh
// traced one (pairedServe).
func missTraced(cfg config, rep *report) error {
	loops, err := buildCorpus(cfg, true)
	if err != nil {
		return err
	}
	p := newPasses(cfg, loops)
	ref := map[string]*served{}
	irDoc := func(e *entry) []byte { return e.irDoc }
	p.shuffle(irDoc)
	in, err := newInstance(cfg, false)
	if err != nil {
		return err
	}
	servePass(in.srv.Handler(), p.docs, p.slots, p.lat, checkWorkers())
	in.close(rep)
	checkSlots(loops, p.idx, p.slots, ref, isMiss, rep)

	traced := make([]slot, len(loops))
	var ly layers
	for ly.ops == 0 || ly.plain+ly.traced < cfg.seconds {
		p.shuffle(irDoc)
		a, err := newInstance(cfg, false)
		if err != nil {
			return err
		}
		b, err := newInstance(cfg, true)
		if err != nil {
			a.close(rep)
			return err
		}
		pairedServe(a, b, p.docs, p.slots, traced, &ly, rep)
		a.close(rep)
		b.close(rep)
		checkSlots(loops, p.idx, p.slots, ref, isMiss, rep)
		checkSlots(loops, p.idx, traced, ref, isMiss, rep)
	}
	ly.whole = ly.handler
	ly.q = servedQuality(ref)
	rep.perLayer(&ly)
	return nil
}

// hitTraced is serve-hit's per-layer run: two pre-filled servers, one
// untraced and one traced, see the same draws (pairedServe), so their
// stores evolve alike.
func hitTraced(cfg config, rep *report) error {
	a, err := prefill(cfg, false)
	if err != nil {
		return err
	}
	defer a.in.close(rep)
	b, err := prefill(cfg, true)
	if err != nil {
		return err
	}
	defer b.in.close(rep)
	a.checkFill(rep)
	b.checkFill(rep)
	p := newPasses(cfg, a.loops)
	traced := make([]slot, len(a.loops))
	srcDoc := func(e *entry) []byte { return e.srcDoc }
	p.draw(srcDoc) // warm-up
	servePass(a.in.srv.Handler(), p.docs, p.slots, p.lat, checkWorkers())
	checkSlots(a.loops, p.idx, p.slots, a.ref, isHit, rep)
	servePass(b.in.srv.Handler(), p.docs, p.slots, p.lat, checkWorkers())
	checkSlots(b.loops, p.idx, p.slots, b.ref, isHit, rep)

	var ly layers
	for ly.ops == 0 || ly.plain+ly.traced < cfg.seconds {
		p.draw(srcDoc)
		pairedServe(a.in, b.in, p.docs, p.slots, traced, &ly, rep)
		checkSlots(a.loops, p.idx, p.slots, a.ref, isHit, rep)
		checkSlots(b.loops, p.idx, traced, b.ref, isHit, rep)
	}
	ly.whole = ly.handler
	ly.q = servedQuality(a.ref)
	rep.perLayer(&ly)
	return nil
}
