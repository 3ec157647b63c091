// Parametric MinDist: the scheduler retries a loop at increasing IIs,
// and every retry needs the full MinDist relation at the new II. The
// direct route recomputes the O(n³) Floyd–Warshall from scratch per II,
// yet the only II-dependence in the arc costs is linear: a path with
// total latency L and total distance Ω costs L − Ω·II at every II. A
// single Floyd–Warshall over Pareto-optimal (L, Ω) pairs therefore
// captures MinDist for all IIs at once, after which any particular table
// instantiates in O(n²·f) where f is the (tiny) frontier size.
//
// Correctness: pair (L₁, Ω₁) dominates (L₂, Ω₂) when L₁ ≥ L₂ and
// Ω₁ ≤ Ω₂ — then L₁ − Ω₁·II ≥ L₂ − Ω₂·II for every II ≥ 0, so pruning
// dominated pairs never loses the maximum. The frontier covers every
// simple path (the usual Floyd–Warshall induction, with dominance a
// congruence under path concatenation); at any feasible II all
// dependence circuits cost ≤ 0, so the best path is simple and the
// instantiated table equals the direct computation exactly. Diagonal
// frontiers cover every simple circuit, and a positive-cost circuit at
// some II implies a positive-cost *simple* circuit, so infeasibility
// detection is exact as well.
package mindist

import (
	"errors"

	"repro/internal/ir"
	"repro/internal/obs"
)

// DefaultFrontierCap bounds the Pareto frontier per op pair. Loops whose
// recurrence structure exceeds it (many circuits with incomparable
// latency/distance trade-offs) fall back to the direct computation.
const DefaultFrontierCap = 12

// ErrTooComplex reports that some pair's Pareto frontier exceeded the
// cap; callers should fall back to Compute.
var ErrTooComplex = errors.New("mindist: Pareto frontier exceeds cap")

// ErrStopped reports that a stop poll (Cache.SetStop) asked a
// long-running MinDist construction to abandon its work — the
// scheduler's budget plumbing, so a deadline bounds even the O(n³)
// analyses.
var ErrStopped = errors.New("mindist: computation stopped by the caller")

// stopCheckStride is how many Floyd–Warshall pivots run between stop
// polls: the poll reads the clock, so it stays off the inner loops.
const stopCheckStride = 8

// pathPair is one Pareto-optimal (Σlatency, Σω) over the paths between a
// pair of ops; its cost at a given II is lat − omega·II.
type pathPair struct {
	lat, omega int
}

// Parametric is the II-independent MinDist relation of one loop.
type Parametric struct {
	n     int // real ops; Stop = n, Start = n+1
	width int
	sets  [][]pathPair // Pareto frontier per (x, y), sorted by omega asc, lat asc
}

// insertPair folds one candidate into a frontier kept sorted by
// ascending omega with strictly ascending lat (any other order is
// dominated). It reports the updated frontier.
func insertPair(set []pathPair, p pathPair) []pathPair {
	// Find the insertion point; a pair with omega ≤ p.omega and
	// lat ≥ p.lat dominates p.
	i := 0
	for i < len(set) && set[i].omega < p.omega {
		i++
	}
	if i > 0 && set[i-1].lat >= p.lat {
		return set // dominated by a shorter-distance pair
	}
	if i < len(set) && set[i].omega == p.omega {
		if set[i].lat >= p.lat {
			return set
		}
		set[i].lat = p.lat
	} else {
		set = append(set, pathPair{})
		copy(set[i+1:], set[i:])
		set[i] = p
	}
	// Drop longer-distance pairs that p now dominates.
	j := i + 1
	for j < len(set) && set[j].lat <= set[i].lat {
		j++
	}
	if j > i+1 {
		set = append(set[:i+1], set[j:]...)
	}
	return set
}

// NewParametric runs the one-time all-IIs Floyd–Warshall. It returns
// ErrTooComplex when any frontier would exceed frontierCap (≤ 0 means
// DefaultFrontierCap).
func NewParametric(l *ir.Loop, frontierCap int) (*Parametric, error) {
	return newParametric(l, frontierCap, nil)
}

// newParametric is NewParametric with an optional stop poll consulted
// once per Floyd–Warshall pivot.
func newParametric(l *ir.Loop, frontierCap int, poll func() bool) (*Parametric, error) {
	return newParametricIn(l, frontierCap, poll, nil)
}

// newParametricIn is newParametric writing into reuse when non-nil: the
// outer sets slice and every frontier keep their capacity across runs,
// so a pooled scratch's one-time build allocates only when a frontier
// outgrows all previous loops'.
func newParametricIn(l *ir.Loop, frontierCap int, poll func() bool, reuse *Parametric) (*Parametric, error) {
	if !l.Finalized() {
		panic("mindist: loop not finalized")
	}
	if frontierCap <= 0 {
		frontierCap = DefaultFrontierCap
	}
	n := len(l.Ops)
	w := n + 2
	p := reuse
	if p == nil {
		p = &Parametric{}
	}
	p.n, p.width = n, w
	if cap(p.sets) >= w*w {
		p.sets = p.sets[:w*w]
		for i := range p.sets {
			p.sets[i] = p.sets[i][:0]
		}
	} else {
		p.sets = make([][]pathPair, w*w)
	}
	relax := func(x, y, lat, omega int) {
		p.sets[x*w+y] = insertPair(p.sets[x*w+y], pathPair{lat, omega})
	}
	for _, dep := range l.Deps {
		relax(int(dep.From), int(dep.To), dep.Latency, dep.Omega)
	}
	stop, start := n, n+1
	for i, op := range l.Ops {
		relax(start, i, 0, 0)
		relax(i, stop, l.Mach.Latency(op.Opcode), 0)
	}
	relax(start, stop, 0, 0)
	for x := 0; x < w; x++ {
		relax(x, x, 0, 0) // MinDist(x, x) = 0 by definition
	}

	// Floyd–Warshall over frontiers, maximizing at every II at once.
	for k := 0; k < w; k++ {
		if poll != nil && k%stopCheckStride == 0 && poll() {
			return nil, ErrStopped
		}
		for x := 0; x < w; x++ {
			if x == k {
				continue
			}
			a := p.sets[x*w+k]
			if len(a) == 0 {
				continue
			}
			for y := 0; y < w; y++ {
				if y == k {
					continue
				}
				b := p.sets[k*w+y]
				if len(b) == 0 {
					continue
				}
				set := p.sets[x*w+y]
				for _, pa := range a {
					for _, pb := range b {
						set = insertPair(set, pathPair{pa.lat + pb.lat, pa.omega + pb.omega})
					}
				}
				if len(set) > frontierCap {
					return nil, ErrTooComplex
				}
				p.sets[x*w+y] = set
			}
		}
	}
	return p, nil
}

// Instantiate evaluates the parametric relation at one II, writing into
// reuse when its backing store fits (pass nil to allocate). Like
// Compute, it reports ErrInfeasible when the II admits a positive-cost
// dependence circuit.
func (p *Parametric) Instantiate(ii int, reuse *Table) (*Table, error) {
	if ii < 1 {
		panic("mindist: II must be positive")
	}
	t := reuse
	if t == nil {
		t = &Table{}
	}
	t.sizeFor(p.n)
	t.II = ii
	for i, set := range p.sets {
		best := NoPath
		for _, pr := range set {
			if c := pr.lat - pr.omega*ii; c > best {
				best = c
			}
		}
		t.d[i] = best
	}
	for x := 0; x < p.width; x++ {
		if t.d[x*p.width+x] > 0 {
			return nil, &ErrInfeasible{II: ii}
		}
	}
	return t, nil
}

// Cache amortizes MinDist construction across the II retries of one
// scheduling run. The first request computes directly (a loop that
// schedules at its first II — the common case — pays nothing extra); a
// retry builds the parametric relation once and instantiates every
// later request in O(n²), falling back to direct computation when the
// loop is too complex for the frontier cap. The returned *Table's
// backing store is reused: each At call invalidates the previous one.
type Cache struct {
	l         *ir.Loop
	buf       *Table
	par       *Parametric
	parReuse  *Parametric // scratch store for the one-time build (may be nil)
	parFailed bool
	calls     int
	direct    bool
	stop      func() bool
	tr        *obs.Trace
}

// NewCache returns an empty cache for the loop.
func NewCache(l *ir.Loop) *Cache { return &Cache{l: l} }

// Scratch is the pooled MinDist state of one compile: a cache whose
// instantiation buffer and parametric frontier store persist across
// compiles. CacheFor rebinds it to a loop; Reset drops every reference
// to per-compile data (the loop, the stop poll's captured context, the
// trace) while keeping the integer backing stores, so a pooled Scratch
// retains no request data between owners.
type Scratch struct {
	cache Cache
	par   Parametric // frontier store reused by the cache's one-time build
}

// CacheFor returns the scratch's cache rebound to l. The returned cache
// is owned by the scratch: tables it hands out are invalidated by the
// next CacheFor or Reset, so callers that publish a table must Clone it.
func (s *Scratch) CacheFor(l *ir.Loop) *Cache {
	c := &s.cache
	c.l = l
	c.par = nil
	c.parReuse = &s.par
	c.parFailed = false
	c.calls = 0
	c.direct = false
	c.stop = nil
	c.tr = nil
	return c
}

// Reset clears every per-compile reference (loop, poll closure, trace)
// and keeps the backing stores for the next owner.
func (s *Scratch) Reset() {
	c := &s.cache
	c.l = nil
	c.par = nil
	c.parReuse = nil
	c.parFailed = false
	c.calls = 0
	c.direct = false
	c.stop = nil
	c.tr = nil
}

// SetStop installs a poll consulted periodically during table
// construction; when it returns true the in-flight computation is
// abandoned and At returns ErrStopped. A nil poll (the default)
// disables the checks entirely. The scheduler wires its budget guard
// here so deadlines bound even the O(n³) MinDist work.
func (c *Cache) SetStop(stop func() bool) { c.stop = stop }

// SetDirect makes every At call run Floyd–Warshall at its II, never
// building the parametric relation — the scheduler's NoFastPaths mode.
// Direct tables still poll the stop and record "mindist" spans.
func (c *Cache) SetDirect(direct bool) { c.direct = direct }

// SetTrace attaches an observability trace: each At call then records a
// "mindist" span carrying the II and the mode that answered it (direct
// Floyd–Warshall or parametric instantiation), and the one-time
// parametric build records its own "mindist-parametric" span. A nil
// trace (the default) records nothing.
func (c *Cache) SetTrace(tr *obs.Trace) { c.tr = tr }

// At returns the loop's MinDist table at ii, ErrInfeasible, or
// ErrStopped when the stop poll fired.
func (c *Cache) At(ii int) (*Table, error) {
	c.calls++
	if c.calls > 1 && c.par == nil && !c.parFailed && !c.direct {
		sp := c.tr.Start("mindist-parametric")
		p, err := newParametricIn(c.l, DefaultFrontierCap, c.stop, c.parReuse)
		switch {
		case err == ErrStopped:
			sp.End(obs.OutcomeBudgetExhausted)
			return nil, err
		case err != nil:
			sp.Str("fallback", "too-complex").End(obs.OutcomeGiveUp)
			c.parFailed = true
		default:
			sp.End(obs.OutcomeOK)
			c.par = p
		}
	}
	var (
		t   *Table
		err error
	)
	sp := c.tr.Start("mindist").Int("ii", int64(ii))
	if c.par != nil {
		sp.Str("mode", "parametric")
		t, err = c.par.Instantiate(ii, c.buf)
	} else {
		sp.Str("mode", "direct")
		t, err = computeInto(c.l, ii, c.buf, c.stop)
	}
	if err != nil {
		sp.End(cacheOutcome(err))
		return nil, err // c.buf keeps any previously allocated store
	}
	sp.End(obs.OutcomeOK)
	c.buf = t
	return t, nil
}

// cacheOutcome classifies an At error for its span.
func cacheOutcome(err error) string {
	if errors.Is(err, ErrStopped) {
		return obs.OutcomeBudgetExhausted
	}
	return obs.OutcomeInfeasible
}
