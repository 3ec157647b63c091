// Package regalloc allocates rotating registers for modulo-scheduled
// loops (Section 2.3 and the allocation study of Rau, Lee, Tirumalai and
// Schlansker, PLDI 1992, whose headline result the paper leans on: good
// heuristics almost always reach the MaxLive lower bound).
//
// In a rotating file of N registers, the instance of value v produced by
// iteration i occupies physical register (r_v − i) mod N — the iteration
// control pointer decrements every II cycles — and is live over
// [s_v + i·II, e_v + i·II). Two values v and w with specifier offsets
// r_v, r_w collide exactly when
//
//	(r_w − r_v) mod N ∈ { m mod N : s_v − e_w < m·II < e_v − s_w },
//
// so allocation is a cyclic-residue packing problem. The allocator
// assigns offsets greedily under a configurable strategy and value
// ordering, growing N from the lower bound
// max(MaxLive, max_v ⌈len(v)/II⌉) until everything fits. Each value's
// feasible offsets come from one forbidden-offset mask built from the
// placed values' bad multiples, so a pass at one N costs O(V²·span)
// for span the typical ⌈len/II⌉; best-fit adds at most 24 probes per
// value, each costing the value's own span.
//
// Verify re-checks the result without that arithmetic: it enumerates
// every (value, iteration) instance over enough iterations for every
// residue pattern to repeat, groups the instances by physical register,
// and sweeps each register's instances in start order for an overlap —
// O(V·iters) in place of a cycle-by-cycle simulation.
package regalloc

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/obs"
)

// Strategy selects how a feasible offset is chosen among candidates.
type Strategy int

const (
	// FirstFit takes the smallest feasible offset.
	FirstFit Strategy = iota
	// EndFit takes the feasible offset closest (cyclically, upward) to
	// where the previously allocated value's registers end, packing
	// wands end to end as in Rau et al.'s end-fit.
	EndFit
	// BestFit takes the feasible offset that, after placement, leaves
	// the fewest feasible offsets destroyed for the remaining values —
	// approximated by counting newly forbidden residues.
	BestFit
)

func (s Strategy) String() string {
	switch s {
	case FirstFit:
		return "first-fit"
	case EndFit:
		return "end-fit"
	case BestFit:
		return "best-fit"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Order selects the order values are allocated in.
type Order int

const (
	// StartTime allocates values in increasing lifetime start order
	// (Rau et al.'s start-time ordering).
	StartTime Order = iota
	// Adjacency allocates values in increasing start order but breaks
	// ties toward the value whose start abuts the previous end
	// (adjacency ordering).
	Adjacency
)

func (o Order) String() string {
	if o == Adjacency {
		return "adjacency"
	}
	return "start-time"
}

// Allocation maps each value to its rotating-register offset.
type Allocation struct {
	N      int // rotating registers consumed
	Offset map[ir.ValueID]int
}

// LowerBound returns the schedule-dependent lower bound on the rotating
// registers needed: MaxLive, but never less than any single value's
// ⌈lifetime/II⌉ span.
func LowerBound(ranges []lifetime.Range, ii int) int {
	vec := lifetime.LiveVector(ranges, ii)
	n := 0
	for _, c := range vec {
		if c > n {
			n = c
		}
	}
	for _, r := range ranges {
		if span := (r.Len() + ii - 1) / ii; span > n {
			n = span
		}
	}
	return n
}

// Allocate assigns offsets using the given strategy and ordering, trying
// file sizes from the lower bound upward. It returns the first size at
// which the greedy pass succeeds. The ranges' values must be distinct,
// as they key the resulting Offset map. Allocate panics only on
// nonsensical input (ii < 1); any range set gets some allocation since
// N can grow.
func Allocate(ranges []lifetime.Range, ii int, strat Strategy, order Order) Allocation {
	if ii < 1 {
		panic("regalloc: II must be positive")
	}
	if len(ranges) == 0 {
		return Allocation{N: 0, Offset: map[ir.ValueID]int{}}
	}
	p := packer{ordered: orderValues(ranges, order), ii: ii, offs: make([]int, len(ranges))}
	for n := max(LowerBound(ranges, ii), 1); ; n++ {
		if p.fit(n, strat) {
			off := make(map[ir.ValueID]int, len(p.ordered))
			for j, v := range p.ordered {
				off[v.Val] = p.offs[j]
			}
			return Allocation{N: n, Offset: off}
		}
	}
}

// AllocateContext is Allocate under a context: when the context carries
// an obs.Trace it records a "regalloc" span with the value count, the
// strategy, and the resulting file size.
func AllocateContext(ctx context.Context, ranges []lifetime.Range, ii int, strat Strategy, order Order) Allocation {
	sp := obs.FromContext(ctx).Start("regalloc").
		Int("values", int64(len(ranges))).
		Int("ii", int64(ii)).
		Str("strategy", strat.String())
	a := Allocate(ranges, ii, strat, order)
	sp.Int("registers", int64(a.N)).End(obs.OutcomeOK)
	return a
}

func orderValues(ranges []lifetime.Range, order Order) []lifetime.Range {
	out := append([]lifetime.Range(nil), ranges...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Val < out[j].Val
	})
	if order == Adjacency {
		// Greedy chaining: repeatedly pick the unplaced value whose start
		// is nearest at-or-after the previous pick's end.
		rem := out
		chained := make([]lifetime.Range, 0, len(rem))
		cur := rem[0]
		chained = append(chained, cur)
		rem = rem[1:]
		for len(rem) > 0 {
			best, bestGap := -1, 0
			for i, r := range rem {
				gap := r.Start - cur.End
				if gap < 0 {
					gap += 1 << 20 // prefer starts after the current end
				}
				if best == -1 || gap < bestGap {
					best, bestGap = i, gap
				}
			}
			cur = rem[best]
			chained = append(chained, cur)
			rem = append(rem[:best], rem[best+1:]...)
		}
		out = chained
	}
	return out
}

// packer runs the greedy pass for one ordered value set. Its buffers are
// reused across values and across file sizes.
type packer struct {
	ordered []lifetime.Range
	ii      int
	offs    []int  // offs[j] is ordered[j]'s offset once placed
	forbid  []bool // forbid[r]: offset r collides with a placed value
}

// fit attempts a greedy assignment into n registers, leaving the offsets
// in p.offs on success.
//
// For each value v it builds one mask of the offsets the placed values
// forbid: a placed w at r_w collides with v at r exactly when
// (r_w − r) mod n is a bad multiple m of badMultiples(v, w), so each
// such m forbids r = (r_w − m) mod n, and a run of n or more bad
// multiples forbids every offset. Building the mask costs the total
// bad-multiple count, O(V·span) per value.
func (p *packer) fit(n int, strat Strategy) bool {
	p.forbid = slices.Grow(p.forbid[:0], n)[:n]
	forbid := p.forbid
	prevEnd := 0
	for j, v := range p.ordered {
		// Self: instances i and i+kN share a register; they must not overlap.
		if n*p.ii < v.Len() {
			return false
		}
		clear(forbid)
		open := n
		for k, w := range p.ordered[:j] {
			if w.Val == v.Val {
				continue
			}
			lo, hi := badMultiples(v, w, p.ii)
			if hi-lo+1 >= n {
				return false
			}
			for m := lo; m <= hi; m++ {
				if r := mod(p.offs[k]-m, n); !forbid[r] {
					forbid[r] = true
					open--
				}
			}
		}
		if open == 0 {
			return false
		}
		pick := slices.Index(forbid, false)
		switch strat {
		case EndFit:
			// Closest at-or-above the previous wand's ending offset.
			for d := range n {
				if r := mod(prevEnd+d, n); !forbid[r] {
					pick = r
					break
				}
			}
		case BestFit:
			// Most-constrained placement: choose the offset that leaves
			// the fewest offsets open for a hypothetical copy of v —
			// i.e. pack v where it fits most snugly. The copy's mask is
			// v's mask plus the offsets v itself forbids from r, so
			// probing r costs v's own bad-multiple count. Only the
			// first bestFitCap feasible offsets are probed.
			const bestFitCap = 24
			slo, shi := badMultiples(v, v, p.ii)
			bestCost := 1 << 30
			for r, probed := pick, 0; r < n && probed < bestFitCap; r++ {
				if forbid[r] {
					continue
				}
				probed++
				remaining := 0
				if shi-slo+1 < n {
					remaining = open
					for m := slo; m <= shi; m++ {
						if !forbid[mod(r-m, n)] {
							remaining--
						}
					}
				}
				if cost := remaining*n + cyclicUp(prevEnd, r, n); cost < bestCost {
					pick, bestCost = r, cost
				}
			}
		}
		p.offs[j] = pick
		prevEnd = pick + (v.Len()+p.ii-1)/p.ii
	}
	return true
}

func cyclicUp(from, to, n int) int {
	return mod(to-from, n)
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// badMultiples returns the multiples m ∈ [lo, hi] for which v and w
// collide when (r_w − r_v) ≡ m (mod N): all m with
// s_v − e_w < m·II < e_v − s_w.
func badMultiples(v, w lifetime.Range, ii int) (lo, hi int) {
	return floorDiv(v.Start-w.End, ii) + 1, ceilDiv(v.End-w.Start, ii) - 1
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// instance is one (value, iteration) lifetime instance in one physical
// register, clipped to the simulated horizon.
type instance struct {
	start, end int
	val        ir.ValueID
	iter       int
}

// lane is one value's instances in one physical register: iterations
// iter, iter+N, …, iter+last·N, the first starting in the given round.
type lane struct {
	r                 lifetime.Range
	iter, round, last int
}

// Verify checks an allocation by brute force, independently of the
// allocator's residue arithmetic: it enumerates every instance
// (value, iteration i) for i ∈ [0, iters] — enough iterations that every
// residue pattern repeats — with live interval [s+i·II, e+i·II) clipped
// to [0, horizon), places it in physical register (r − i) mod N, and
// checks that no register holds two different instances at once. Each
// register's instances are generated in start order and swept once, so
// the cost is O(V·iters) after one O(V log V) sort, rather than a
// per-cycle simulation. It returns nil if the allocation is sound.
func Verify(ranges []lifetime.Range, ii int, alloc Allocation) error {
	if len(ranges) == 0 {
		return nil
	}
	n := alloc.N
	if n == 0 {
		return fmt.Errorf("regalloc: empty allocation for %d values", len(ranges))
	}
	if n < 0 {
		return fmt.Errorf("regalloc: negative register count %d", n)
	}
	offs := make([]int, len(ranges))
	maxEnd := 0
	for k, r := range ranges {
		off, ok := alloc.Offset[r.Val]
		if !ok {
			return fmt.Errorf("regalloc: value %d not allocated", r.Val)
		}
		offs[k] = off
		maxEnd = max(maxEnd, r.End)
	}
	spanIters := maxEnd/ii + 2
	iters := 2*n + 2*spanIters // covers all residue alignments
	horizon := (iters + spanIters) * ii
	// In register phys, a value's instances are the iterations
	// i ≡ r_v − phys (mod N), so they start P = N·II cycles apart: at
	// a + j·P for j = 0..last, where a = s_v + i₀·II, i₀ = (r_v − phys)
	// mod N. Writing a = round·P + rem, the register's instances in
	// start order go round by round and, within a round, by rem;
	// clipping to [0, horizon) keeps that order. The next register
	// lowers every rem by II (mod P), so the values' cyclic order by rem
	// is the same in every register: sort it once for register 0, and
	// register phys starts the cycle at the first rem ≥ phys·II.
	period := n * ii
	rem0 := make([]int, len(ranges))
	order := make([]int, len(ranges))
	for k, r := range ranges {
		rem0[k] = mod(r.Start+mod(offs[k], n)*ii, period)
		order[k] = k
	}
	slices.SortFunc(order, func(x, y int) int { return rem0[x] - rem0[y] })
	lanes := make([]lane, len(ranges)) // reused across registers
	for phys := 0; phys < n; phys++ {
		cut, _ := slices.BinarySearchFunc(order, phys*ii, func(k, t int) int { return rem0[k] - t })
		first, final := math.MaxInt, math.MinInt
		for j := range lanes {
			k := order[(cut+j)%len(order)]
			i := mod(offs[k]-phys, n) // < N ≤ iters
			round := floorDiv(ranges[k].Start+i*ii, period)
			lanes[j] = lane{r: ranges[k], iter: i, round: round, last: (iters - i) / n}
			first, final = min(first, round), max(final, round+lanes[j].last)
		}
		// Sweep in start order against the instance reaching furthest:
		// any overlap of two different instances shows up against it.
		last := instance{end: math.MinInt}
		for round := first; round <= final; round++ {
			for _, ln := range lanes {
				j := round - ln.round
				if j < 0 || j > ln.last {
					continue
				}
				i := ln.iter + j*n
				x := instance{max(ln.r.Start+i*ii, 0), min(ln.r.End+i*ii, horizon), ln.r.Val, i}
				if x.start >= x.end {
					continue
				}
				if x.start < last.end && (x.val != last.val || x.iter != last.iter) {
					return fmt.Errorf("regalloc: collision at t=%d reg=%d: value %d iter %d vs value %d iter %d",
						x.start, phys, last.val, last.iter, x.val, x.iter)
				}
				if x.end > last.end {
					last = x
				}
			}
		}
	}
	return nil
}
