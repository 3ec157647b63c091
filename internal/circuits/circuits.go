// Package circuits enumerates the elementary circuits of a dependence
// graph and computes the recurrence-constrained lower bound on the
// initiation interval (Section 3.1 of the paper).
//
// A recurrence circuit with total latency L and total distance Ω forces
// II ≥ ⌈L/Ω⌉. RecMII is the maximum such ratio over all elementary
// circuits. The paper scans each circuit (citing Tiernan); this package
// uses Johnson's output-sensitive algorithm, which is equivalent but
// asymptotically better, and caps the census for pathological graphs.
// As a cross-checked alternative it also computes RecMII indirectly, as
// the smallest II at which the graph with arc costs latency − ω·II has no
// positive-cost circuit (the minimum cost-to-time ratio formulation the
// paper attributes to Lawler).
package circuits

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/ir"
)

// Circuit is one elementary dependence circuit.
type Circuit struct {
	Ops     []ir.OpID // in traversal order; Ops[0] is the smallest id
	Latency int       // total latency around the circuit
	Omega   int       // total dependence distance around the circuit
}

// RecMII returns ⌈Latency/Omega⌉, the II this circuit forces.
func (c *Circuit) RecMII() int {
	return (c.Latency + c.Omega - 1) / c.Omega
}

func (c *Circuit) String() string {
	return fmt.Sprintf("circuit(ops=%v L=%d Ω=%d → %d)", c.Ops, c.Latency, c.Omega, c.RecMII())
}

// ErrZeroOmega reports a dependence circuit with total distance zero: a
// combinational cycle no schedule can satisfy. Well-formed loop bodies
// never contain one.
var ErrZeroOmega = errors.New("circuits: dependence circuit with zero total omega")

// ErrTooMany reports that enumeration stopped at the cap; callers should
// fall back to RecMIIByRatio.
var ErrTooMany = errors.New("circuits: elementary circuit cap exceeded")

// DefaultCap bounds enumeration; graphs can contain exponentially many
// elementary circuits but, as the paper notes, real loop bodies have few.
const DefaultCap = 200000

type arc struct {
	to      int
	latency int
	omega   int
}

// Enumerate lists the elementary circuits of the loop's dependence graph,
// up to cap circuits (cap ≤ 0 means DefaultCap). Self-arcs (trivial
// recurrences) are included as single-op circuits. On ErrTooMany the
// circuits found within the cap are returned with it.
func Enumerate(l *ir.Loop, cap int) ([]Circuit, error) {
	var out []Circuit
	err := walk(l, cap, func(path []int, latency, omega int) {
		ops := make([]ir.OpID, len(path))
		for i, u := range path {
			ops[i] = ir.OpID(u)
		}
		out = append(out, Circuit{Ops: ops, Latency: latency, Omega: omega})
	})
	if err == ErrZeroOmega {
		return nil, err
	}
	return out, err
}

// RecMII computes the recurrence-constrained lower bound on II by
// scanning elementary circuits, falling back to the cost-to-time-ratio
// method if the census overflows. A loop with no circuits has RecMII 1.
//
// RecMII runs on every compile, so it walks the circuits exactly as
// Enumerate does but folds each one's ratio into the running maximum
// as it closes, never materializing it, and allocates nothing.
func RecMII(l *ir.Loop) (int, error) {
	rec, err := foldRecMII(l, 0)
	if errors.Is(err, ErrTooMany) {
		return RecMIIByRatio(l)
	}
	if err != nil {
		return 0, err
	}
	return rec, nil
}

// foldRecMII is RecMII's census without the fallback: the largest
// ⌈L/Ω⌉ over the circuits walk reports within cap, and walk's error.
func foldRecMII(l *ir.Loop, cap int) (int, error) {
	rec := 1
	err := walk(l, cap, func(_ []int, latency, omega int) {
		if r := (latency + omega - 1) / omega; r > rec {
			rec = r
		}
	})
	return rec, err
}

// recWS is the pooled workspace of one circuit walk.
type recWS struct {
	adj     [][]arc
	blocked []bool
	bsets   [][]int
	stack   []int
	latSum  []int
	omgSum  []int

	cap, count        int
	overflow, sawZero bool
}

var recPool = sync.Pool{New: func() any { return new(recWS) }}

// walk runs Johnson's algorithm over l's dependence graph on a pooled
// workspace and calls visit for each elementary circuit as it closes,
// with the circuit's ops in traversal order (smallest first; the slice
// is only valid during the call) and its total latency and omega. The
// self-arcs come first, as single-op circuits; then the circuits are
// found rooted at increasing s, over vertices ≥ s only, so each is found
// once, at its smallest vertex. The census stops at cap circuits (cap ≤
// 0 means DefaultCap) with ErrTooMany. A zero-omega self-arc returns
// ErrZeroOmega at once; any other zero-omega circuit found within the
// cap is not visited but returns ErrZeroOmega at the end, over
// ErrTooMany.
func walk(l *ir.Loop, cap int, visit func(ops []int, latency, omega int)) error {
	w := recPool.Get().(*recWS)
	defer recPool.Put(w)
	w.reset(l, cap)
	n := len(l.Ops)
	for v := 0; v < n; v++ {
		for _, a := range w.adj[v] {
			if a.to == v {
				if a.omega == 0 {
					return ErrZeroOmega
				}
				w.stack = append(w.stack[:0], v)
				w.close(a.latency, a.omega, visit)
			}
		}
	}
	w.stack = w.stack[:0]
	for s := 0; s < n && !w.overflow; s++ {
		for v := s; v < n; v++ {
			w.blocked[v] = false
			w.bsets[v] = w.bsets[v][:0]
		}
		w.latSum = append(w.latSum[:0], 0)
		w.omgSum = append(w.omgSum[:0], 0)
		w.circuit(s, s, visit)
	}
	if w.sawZero {
		return ErrZeroOmega
	}
	if w.overflow {
		return ErrTooMany
	}
	return nil
}

// reset sizes the workspace for l, builds its adjacency lists (parallel
// arcs kept apart: different (latency, omega) pairs can both matter)
// and clears the census.
func (w *recWS) reset(l *ir.Loop, cap int) {
	n := len(l.Ops)
	if cap <= 0 {
		cap = DefaultCap
	}
	if len(w.adj) < n {
		w.adj = make([][]arc, n)
		w.blocked = make([]bool, n)
		w.bsets = make([][]int, n)
	}
	for v := 0; v < n; v++ {
		w.adj[v] = w.adj[v][:0]
		w.blocked[v] = false
		w.bsets[v] = w.bsets[v][:0]
	}
	for _, d := range l.Deps {
		w.adj[d.From] = append(w.adj[d.From], arc{int(d.To), d.Latency, d.Omega})
	}
	w.stack = w.stack[:0]
	w.cap, w.count, w.overflow, w.sawZero = cap, 0, false, false
}

// close counts the circuit on the stack and visits it unless its total
// omega is zero.
func (w *recWS) close(latency, omega int, visit func([]int, int, int)) {
	w.count++
	if omega == 0 {
		w.sawZero = true
		return
	}
	visit(w.stack, latency, omega)
}

// circuit is Johnson's CIRCUIT(v) for the walk rooted at s.
func (w *recWS) circuit(v, s int, visit func([]int, int, int)) bool {
	found := false
	w.stack = append(w.stack, v)
	w.blocked[v] = true
	for _, a := range w.adj[v] {
		to := a.to
		if to < s || to == v {
			continue
		}
		if to == s {
			if w.count >= w.cap {
				w.overflow = true
				continue
			}
			w.close(a.latency+w.latSum[len(w.stack)-1], a.omega+w.omgSum[len(w.stack)-1], visit)
			found = true
		} else if !w.blocked[to] {
			w.latSum = append(w.latSum, w.latSum[len(w.latSum)-1]+a.latency)
			w.omgSum = append(w.omgSum, w.omgSum[len(w.omgSum)-1]+a.omega)
			if w.circuit(to, s, visit) {
				found = true
			}
			w.latSum = w.latSum[:len(w.latSum)-1]
			w.omgSum = w.omgSum[:len(w.omgSum)-1]
		}
	}
	if found {
		w.unblock(v)
	} else {
		for _, a := range w.adj[v] {
			to := a.to
			if to < s || to == v || slices.Contains(w.bsets[to], v) {
				continue
			}
			w.bsets[to] = append(w.bsets[to], v)
		}
	}
	w.stack = w.stack[:len(w.stack)-1]
	return found
}

func (w *recWS) unblock(v int) {
	w.blocked[v] = false
	for _, x := range w.bsets[v] {
		if w.blocked[x] {
			w.unblock(x)
		}
	}
	w.bsets[v] = w.bsets[v][:0]
}

// RecMIIByRatio computes RecMII as the smallest II ≥ 1 such that the
// dependence graph with arc costs latency − ω·II has no positive-cost
// circuit. Positivity is monotone non-increasing in II, so binary search
// applies; each feasibility probe is a Bellman–Ford longest-path pass
// with positive-circuit detection.
func RecMIIByRatio(l *ir.Loop) (int, error) {
	n := len(l.Ops)
	hasPositive := func(ii int) bool {
		dist := make([]int, n)
		// Longest paths from a virtual source connected to all nodes at 0.
		for pass := 0; pass < n; pass++ {
			changed := false
			for _, d := range l.Deps {
				c := d.Latency - d.Omega*ii
				if dist[d.From]+c > dist[d.To] {
					dist[d.To] = dist[d.From] + c
					changed = true
				}
			}
			if !changed {
				return false
			}
		}
		for _, d := range l.Deps {
			c := d.Latency - d.Omega*ii
			if dist[d.From]+c > dist[d.To] {
				return true
			}
		}
		return false
	}

	hi := 1
	for _, d := range l.Deps {
		if d.Latency > 0 {
			hi += d.Latency
		}
	}
	if hasPositive(hi) {
		// Even II = Σ latencies fails: some circuit has Ω = 0.
		return 0, ErrZeroOmega
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi) / 2
		if hasPositive(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}
