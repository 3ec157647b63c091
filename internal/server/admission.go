package server

import (
	"context"
	"errors"
	"sync"
)

// admission is the server's two-stage admission control. The queue
// semaphore bounds the total number of admitted compile requests
// (running plus waiting); entering it never blocks — when it is full
// the caller must reject with 429 rather than let a traffic spike grow
// an unbounded backlog. The worker semaphore bounds how many compiles
// actually run; admitted requests block here, forming the (bounded)
// wait queue.
type admission struct {
	queue   chan struct{}
	workers chan struct{}
}

func newAdmission(workers, queueDepth int) *admission {
	return &admission{
		queue:   make(chan struct{}, workers+queueDepth),
		workers: make(chan struct{}, workers),
	}
}

// errOverloaded is enter's verdict when the admission queue is full.
var errOverloaded = errors.New("admission queue full")

// enter claims a queue slot without blocking — errOverloaded when the
// queue is full — then waits for a worker slot or the end of ctx. On
// nil the caller holds both slots until release.
func (a *admission) enter(ctx context.Context) error {
	select {
	case a.queue <- struct{}{}:
	default:
		return errOverloaded
	}
	select {
	case a.workers <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-a.queue
		return ctx.Err()
	}
}

// release frees the slots enter claimed.
func (a *admission) release() {
	<-a.workers
	<-a.queue
}

// running reports how many compiles hold a worker slot.
func (a *admission) running() int { return len(a.workers) }

// waiting reports how many admitted requests are queued for a worker.
func (a *admission) waiting() int {
	n := len(a.queue) - len(a.workers)
	if n < 0 {
		n = 0
	}
	return n
}

// drainGate tracks in-flight requests for graceful shutdown. Unlike a
// WaitGroup it admits and drains under one lock, so enter can never
// race a concurrent Wait: once draining starts, enter refuses, and
// idle closes exactly when the last admitted request exits.
type drainGate struct {
	mu       sync.Mutex
	active   int
	draining bool
	idle     chan struct{} // closed when draining and active == 0
}

func newDrainGate() *drainGate { return &drainGate{idle: make(chan struct{})} }

// enter admits one request; false means the server is draining.
func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.active++
	return true
}

// exit retires one admitted request.
func (g *drainGate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.active--
	if g.draining && g.active == 0 {
		g.closeIdleLocked()
	}
}

// beginDrain flips the gate; idempotent.
func (g *drainGate) beginDrain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return
	}
	g.draining = true
	if g.active == 0 {
		g.closeIdleLocked()
	}
}

func (g *drainGate) closeIdleLocked() {
	select {
	case <-g.idle:
	default:
		close(g.idle)
	}
}

func (g *drainGate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

func (g *drainGate) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.active
}

// outcome is the terminal state of one compile request, shared between
// a singleflight leader and its followers.
type outcome struct {
	status int
	// name is the obs outcome label for this terminal state — the value
	// stamped on the flight-recorder trace, the {outcome} metric label,
	// and the structured request log.
	name string
	body []byte
	// cacheable marks deterministic outcomes (success, infeasible)
	// that may enter the result cache; budget-exhausted, degraded, and
	// error outcomes are excluded (DESIGN.md §5c).
	cacheable bool
}

// call is one in-flight singleflight computation.
type call struct {
	done chan struct{}
	out  outcome
}

// flightGroup deduplicates concurrent identical requests (same content
// hash): the first becomes the leader and compiles; the rest wait for
// the leader's outcome and share its response bytes. Unlike a cache
// this holds no history — entries live only while the leader runs.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*call
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*call)}
}

// join returns the call for key and whether the caller is its leader.
func (g *flightGroup) join(key string) (*call, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c, false
	}
	c := &call{done: make(chan struct{})}
	g.m[key] = c
	return c, true
}

// wait blocks a follower until the leader's outcome is published
// (true) or ctx ends (false).
func (c *call) wait(ctx context.Context) (outcome, bool) {
	select {
	case <-c.done:
		return c.out, true
	case <-ctx.Done():
		return outcome{}, false
	}
}

// finish publishes the leader's outcome and retires the call.
func (g *flightGroup) finish(key string, c *call, out outcome) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.out = out
	close(c.done)
}
