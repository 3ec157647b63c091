// Package mindist computes the paper's MinDist relation (Section 4.1):
// for each pair of operations x, y, MinDist(x, y) is the minimum number
// of cycles (possibly negative) by which x must precede y in any feasible
// schedule at a given II, or −∞ if the dependence graph has no path from
// x to y.
//
// Computing MinDist is an all-pairs longest-paths problem where a
// dependence arc from x to y with latency L and distance ω has cost
// L − ω·II. When II ≥ RecMII every circuit has non-positive cost, so the
// longest path is well defined; a positive-cost circuit means the II is
// infeasible and Compute reports it.
//
// Two pseudo-operations bracket the loop body (Section 4.1): Start, a
// zero-cost predecessor of every operation, fixed at cycle 0; and Stop, a
// successor of every operation at the operation's latency, so that
// MinDist(Start, Stop) is the critical-path length of one iteration.
package mindist

import (
	"errors"
	"fmt"

	"repro/internal/ir"
)

// NoPath is the distance reported when no dependence path exists. It is
// small enough that adding any legal arc cost cannot underflow.
const NoPath = -(1 << 40)

// Table holds the MinDist relation for one loop at one II.
type Table struct {
	II    int
	n     int // number of real ops; Stop = n, Start = n+1
	d     []int
	width int
}

// ErrInfeasible reports a positive-cost dependence circuit: the II is
// below the loop's recurrence-constrained minimum.
type ErrInfeasible struct {
	II int
}

func (e *ErrInfeasible) Error() string {
	return fmt.Sprintf("mindist: positive dependence circuit at II=%d (II < RecMII)", e.II)
}

// ErrStopped reports that the stop poll passed to ComputeInto asked the
// computation to abandon its work — the scheduler's budget plumbing, so
// a deadline bounds even the O(n³) Floyd–Warshall.
var ErrStopped = errors.New("mindist: computation stopped by the caller")

// stopCheckStride is how many Floyd–Warshall pivots run between stop
// polls: the poll reads the clock, so it stays off the inner loops.
const stopCheckStride = 8

// Compute builds the MinDist table for the loop at the given II.
func Compute(l *ir.Loop, ii int) (*Table, error) {
	t := &Table{}
	if err := ComputeInto(l, ii, t, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// ComputeInto is Compute writing into dst, whose backing store is
// reused when it fits: the scheduler retries one loop at many IIs and
// keeps one table that ratchets up to the largest loop it has served.
// A non-nil stop is polled every few Floyd–Warshall pivots; when it
// returns true the computation is abandoned with ErrStopped. On any
// error dst's contents are undefined, but its store stays reusable.
func ComputeInto(l *ir.Loop, ii int, dst *Table, stop func() bool) error {
	if !l.Finalized() {
		panic("mindist: loop not finalized")
	}
	if ii < 1 {
		panic("mindist: II must be positive")
	}
	n := len(l.Ops)
	w := n + 2
	t := dst
	t.sizeFor(n)
	t.II = ii
	for i := range t.d {
		t.d[i] = NoPath
	}
	at := func(x, y int) int { return x*w + y }
	relax := func(x, y, c int) {
		if c > t.d[at(x, y)] {
			t.d[at(x, y)] = c
		}
	}
	for _, dep := range l.Deps {
		relax(int(dep.From), int(dep.To), dep.Latency-dep.Omega*ii)
	}
	stopOp, startOp := n, n+1
	for i, op := range l.Ops {
		relax(startOp, i, 0)
		relax(i, stopOp, l.Mach.Latency(op.Opcode))
	}
	relax(startOp, stopOp, 0)
	// MinDist(x, x) = 0 by definition; a self arc with negative cost
	// imposes nothing, and one with positive cost is caught below.
	for x := 0; x < w; x++ {
		relax(x, x, 0)
	}

	// Floyd–Warshall, maximizing.
	for k := 0; k < w; k++ {
		if stop != nil && k%stopCheckStride == 0 && stop() {
			return ErrStopped
		}
		rowK := t.d[k*w : (k+1)*w]
		for x := 0; x < w; x++ {
			dxk := t.d[at(x, k)]
			if dxk == NoPath {
				continue
			}
			rowX := t.d[x*w : (x+1)*w]
			for y := 0; y < w; y++ {
				if c := rowK[y]; c != NoPath && dxk+c > rowX[y] {
					rowX[y] = dxk + c
				}
			}
		}
	}
	for x := 0; x < w; x++ {
		if t.d[at(x, x)] > 0 {
			return &ErrInfeasible{II: ii}
		}
	}
	return nil
}

// sizeFor reshapes the table for a loop of n real ops, reusing the
// backing store whenever its capacity suffices — the pooled-arena
// contract: a scratch table ratchets up to the largest loop it has
// served and allocates nothing for smaller ones.
func (t *Table) sizeFor(n int) {
	w := n + 2
	t.n, t.width = n, w
	if cap(t.d) >= w*w {
		t.d = t.d[:w*w]
	} else {
		t.d = make([]int, w*w)
	}
}

// Clone returns an independent copy of the table. Schedulers that serve
// results out of pooled scratch clone the final table so Result.MinDist
// stays valid after the scratch is released.
func (t *Table) Clone() *Table {
	c := &Table{II: t.II, n: t.n, width: t.width, d: make([]int, len(t.d))}
	copy(c.d, t.d)
	return c
}

// CloneInto is Clone writing into a caller-owned table, reusing dst's
// backing storage when it is large enough — the alloc-free path of
// sched.Scheduler.ScheduleInto. It returns the populated table: dst,
// or a fresh table when dst is nil or t itself. dst's previous
// contents are destroyed.
func (t *Table) CloneInto(dst *Table) *Table {
	if dst == nil || dst == t {
		return t.Clone()
	}
	d := dst.d
	if cap(d) < len(t.d) {
		d = make([]int, len(t.d))
	} else {
		d = d[:len(t.d)]
	}
	copy(d, t.d)
	*dst = Table{II: t.II, n: t.n, width: t.width, d: d}
	return dst
}

// N returns the number of real operations.
func (t *Table) N() int { return t.n }

// Start returns the index of the Start pseudo-op.
func (t *Table) Start() int { return t.n + 1 }

// Stop returns the index of the Stop pseudo-op. It directly follows the
// real ops (see OpsAndStop).
func (t *Table) Stop() int { return t.n }

// Dist returns MinDist(x, y), or NoPath. Indices are op ids, Start() or
// Stop().
func (t *Table) Dist(x, y int) int { return t.d[x*t.width+y] }

// OpsAndStop returns MinDist(x, y) for every real op y and for Stop, in
// index order: entry y is op y and entry N() is Stop. x is an op id,
// Start() or Stop(). The slice aliases the table.
func (t *Table) OpsAndStop(x int) []int { return t.d[x*t.width : x*t.width+t.n+1] }

// CriticalPath returns MinDist(Start, Stop): the minimum length in cycles
// of one loop iteration.
func (t *Table) CriticalPath() int { return t.Dist(t.Start(), t.Stop()) }

// MinLT returns the schedule-independent lower bound on the lifetime of
// value v at this table's II (Section 5.1):
//
//	MinLT(v) = max over flow deps (d → u, ω) of ω·II + MinDist(d, u).
//
// For the rare multi-def merge values this generalizes to
// max over uses of (min over defs), which stays a valid lower bound. A
// value without in-loop readers is live for its defining latency.
// MinLT scans every dependence; MinLTs gives all values in one scan.
func MinLT(l *ir.Loop, t *Table, v ir.ValueID) int {
	val := l.Value(v)
	if len(val.Defs) == 0 {
		return 0
	}
	best := 0
	for i := range l.Deps {
		if dep := &l.Deps[i]; dep.Kind == ir.DepFlow && dep.Val == v {
			best = max(best, useLT(t, val, dep))
		}
	}
	return max(best, defLatency(l, val))
}

// MinLTs returns MinLT(v) for every value v, indexed by value id, in one
// pass over the dependences. It reuses dst's storage when large enough.
func MinLTs(l *ir.Loop, t *Table, dst []int) []int {
	if cap(dst) < len(l.Values) {
		dst = make([]int, len(l.Values))
	}
	dst = dst[:len(l.Values)]
	clear(dst)
	for i := range l.Deps {
		if dep := &l.Deps[i]; dep.Kind == ir.DepFlow {
			dst[dep.Val] = max(dst[dep.Val], useLT(t, l.Value(dep.Val), dep))
		}
	}
	for _, v := range l.Values {
		if len(v.Defs) == 0 {
			dst[v.ID] = 0
		} else {
			dst[v.ID] = max(dst[v.ID], defLatency(l, v))
		}
	}
	return dst
}

// useLT is the lifetime one flow use demands of its value: the minimum
// over the value's defs of ω·II + MinDist(def, use), or 0 when no def
// reaches the use.
func useLT(t *Table, val *ir.Value, dep *ir.Dep) int {
	lt := NoPath
	for _, d := range val.Defs {
		md := t.Dist(int(d), int(dep.To))
		if md == NoPath {
			continue
		}
		if c := dep.Omega*t.II + md; lt == NoPath || c < lt {
			lt = c
		}
	}
	return max(lt, 0)
}

// defLatency is the largest latency among the value's defining ops.
func defLatency(l *ir.Loop, val *ir.Value) int {
	lat := 0
	for _, d := range val.Defs {
		lat = max(lat, l.Mach.Latency(l.Op(d).Opcode))
	}
	return lat
}

// MinAvg returns the schedule-independent lower bound on the loop's
// average (and hence approximately peak) register pressure for the given
// register file at this table's II (Section 3.2):
//
//	MinAvg = Σ over values v of ⌈MinLT(v)/II⌉.
func MinAvg(l *ir.Loop, t *Table, file ir.RegFile) int {
	var buf [256]int // keeps the per-value table off the heap for loops up to 256 values
	lts := MinLTs(l, t, buf[:0])
	sum := 0
	for _, v := range l.Values {
		if v.File != file || !v.IsVariant() {
			continue
		}
		sum += (lts[v.ID] + t.II - 1) / t.II
	}
	return sum
}
