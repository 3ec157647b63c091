// Package sched implements the paper's operation-driven modulo-scheduling
// framework with limited backtracking (Section 4), parameterized by a
// Policy that supplies the two heuristic decisions of the central loop:
// which operation to place next (Section 4.3) and whether to search its
// issue cycles early-first or late-first (Section 5.2).
//
// Three policies are provided:
//
//   - Slack: the paper's contribution — dynamic slack priority with
//     bidirectional, lifetime-sensitive issue-cycle selection.
//   - SlackUnidirectional: the ablation of Section 7 — the same dynamic
//     priority but always scanning early-first.
//   - Cydrome: the baseline "Old Scheduler" of Section 8 — static
//     initial-slack priority, recurrence operations placed first, and
//     earliest-only placement.
//
// A fourth scheduler, List (listsched.go), is a classic no-backtracking
// list scheduler included to demonstrate why recurrence circuits defeat
// purely unidirectional approaches (Section 4).
package sched

import (
	"math/bits"

	"repro/internal/ir"
	"repro/internal/mindist"
	"repro/internal/mrt"
)

// State is one II attempt's scheduling state, visible to policies.
type State struct {
	L  *ir.Loop
	II int
	MD *mindist.Table

	n    int // number of real ops; Stop has index n
	mrt  *mrt.Table
	time []int // issue cycle per index (ops + Stop); ir.Unplaced if absent

	estart, lstart []int // bounds per index (ops + Stop)
	lastPlace      []int // most recent placement, or ir.Unplaced if never placed

	// The placed and unplaced index sets (ops + Stop, n+1 bits each,
	// complementary). Every scan walks the one set it needs in
	// ascending index order, so the costs are the paper's O(p) and O(u)
	// rather than O(n), and every first-wins tie breaks by index as a
	// full 0..n walk would.
	placed, unplaced bitset

	// The attempt's MinDist view, filled once per attempt by
	// Arena.distInto. MD.OpsAndStop(x) holds MinDist(x, y) for every
	// state index y (Stop is index n in both); dIn[x*(n+1)+y] is its
	// transpose, MinDist(y, x), so every scan over y reads one
	// contiguous row of each. dStart[x] aliases MinDist(Start, x).
	// related holds one row per index x, the set of y with a dependence
	// path to or from x. Any other y has no MinDist constraint with x
	// either way, so a scan about x walks its set intersected with x's
	// row.
	dIn, dStart []int
	related     bitset

	lstartStop int  // current Lstart(Stop) anchor (Section 4.2)
	contention bool // ResMII > 1

	critical []bool // per op: uses a critical resource at this II
	divider  []bool // per op: runs on the (non-pipelined) divider
	otherUse []bool // per op: its RR result has a flow use by another op
	minLT    []int  // per value: MinLT at this II

	// Immediate dependence neighbours per op (deduplicated, no self
	// arcs) in compressed-sparse-row form: node x's predecessors are
	// predAdj[predOff[x]:predOff[x+1]], first-occurrence order. The
	// compact int32 encoding replaces the pointer-heavy [][]int of the
	// original representation on the hot analyses and is built once per
	// compile by the arena, not once per II attempt.
	predOff, succOff []int32
	predAdj, succAdj []int32
	brtop            int // index of the brtop op, or -1

	unplacedCount int
	ejections     int // ejections charged against this attempt's budget

	// esFrom/lsFrom witness each unplaced index's bound: the placed
	// index whose constraint determines it, or -1 when the
	// schedule-independent base (Start / the Stop anchor) does. An
	// ejection then invalidates only the bounds it witnessed.
	esFrom, lsFrom []int
	noIncremental  bool   // force the full recompute (differential testing)
	scratch        []bool // forceAt dedup scratch, n+1 wide, false between calls
	victimBuf      []int  // forceAt victim accumulator, reused across calls
	depBuf         []int  // depVictims accumulator, reused across calls
	policyBuf      []int  // PolicyScratch buffer, reused across attempts

	obs Observer // event sink, or nil (the unobserved fast path)
	evt Event    // template with Loop/Policy/II prefilled by the engine
}

// StopIndex returns the index representing the Stop pseudo-op, which is
// scheduled like any other operation (Section 4.1) but needs no
// resources.
func (st *State) StopIndex() int { return st.n }

// Placed reports whether index x (an op or Stop) is currently placed.
func (st *State) Placed(x int) bool { return st.time[x] != ir.Unplaced }

// Time returns the current issue cycle of x, or ir.Unplaced.
func (st *State) Time(x int) int { return st.time[x] }

// Estart and Lstart return the current bounds of x.
func (st *State) Estart(x int) int { return st.estart[x] }
func (st *State) Lstart(x int) int { return st.lstart[x] }

// Slack returns Lstart(x) − Estart(x); negative slack means the op cannot
// currently be placed without ejections.
func (st *State) Slack(x int) int { return st.lstart[x] - st.estart[x] }

// Critical reports whether op x uses a critical resource (Section 4.3).
func (st *State) Critical(x int) bool { return x < st.n && st.critical[x] }

// UsesDivider reports whether op x runs on the divider.
func (st *State) UsesDivider(x int) bool { return x < st.n && st.divider[x] }

// Contention reports whether the loop has any resource contention.
func (st *State) Contention() bool { return st.contention }

// MinLT returns the schedule-independent minimum lifetime of value v at
// this II (Section 5.1).
func (st *State) MinLT(v ir.ValueID) int { return st.minLT[v] }

// Preds and Succs return the immediate dependence neighbours of op x as
// int32 indices into the loop's op array.
func (st *State) Preds(x int) []int32 { return st.predAdj[st.predOff[x]:st.predOff[x+1]] }
func (st *State) Succs(x int) []int32 { return st.succAdj[st.succOff[x]:st.succOff[x+1]] }

// PolicyScratch returns an attempt-scoped int buffer of length n for
// policy use (e.g. static priorities). Contents are undefined; the
// buffer is reused across attempts, so policies must fully overwrite it.
func (st *State) PolicyScratch(n int) []int {
	st.policyBuf = growInts(st.policyBuf, n)
	return st.policyBuf
}

// newState builds the attempt state in a fresh unpooled arena. It is
// the slow, allocation-per-attempt path kept for direct unit tests; the
// engine goes through Arena.newState so scratch survives II retries.
func newState(l *ir.Loop, iiVal int, md *mindist.Table) *State {
	return new(Arena).newState(l, iiVal, md)
}

// stopAnchor returns Lstart(Stop) for the given Estart(Stop): the
// critical path itself when the loop has no resource contention (such a
// loop can always meet its critical path), else rounded up to a multiple
// of II — the "provision of extra slack" that lessens backtracking
// (Section 4.2).
func stopAnchor(estartStop, ii int, contention bool) int {
	if !contention {
		return estartStop
	}
	return (estartStop + ii - 1) / ii * ii
}

// recomputeBounds rebuilds Estart/Lstart for every index from Start,
// the Lstart(Stop) anchor, and all placed indices — the O(p·u)
// recomputation of Section 4.4 — then maintains the Stop anchor, which
// may trigger a Stop ejection and another pass (Section 4.2).
func (st *State) recomputeBounds() {
	for {
		for x := range st.placed.all {
			t := st.time[x]
			st.estart[x], st.lstart[x] = t, t
			st.esFrom[x], st.lsFrom[x] = -1, -1
		}
		for x := range st.unplaced.all {
			st.recomputeIndex(x)
		}
		if !st.maintainStop() {
			return
		}
	}
}

// row returns x's MinDist rows: out[y] = MinDist(x, y) and
// in[y] = MinDist(y, x), for every state index y.
func (st *State) row(x int) (out, in []int) {
	w := st.n + 1
	return st.MD.OpsAndStop(x), st.dIn[x*w : x*w+w]
}

// relatedTo returns the set of indices with a dependence path to or
// from x (x included).
func (st *State) relatedTo(x int) bitset {
	w := len(st.placed)
	return st.related[x*w : x*w+w]
}

// recomputeIndex rebuilds one unplaced index's Estart and Lstart — and
// their witnesses — in a single O(p) pass over the placed indices.
func (st *State) recomputeIndex(x int) {
	out, in := st.row(x)
	es := 0
	if d := st.dStart[x]; d != mindist.NoPath {
		es = d
	}
	ls := st.lstartStop
	if d := out[st.n]; d != mindist.NoPath {
		ls = st.lstartStop - d
	}
	esFrom, lsFrom := -1, -1
	for y := range st.placed.and(st.relatedTo(x)) {
		ty := st.time[y]
		if d := in[y]; d != mindist.NoPath && ty+d > es {
			es = ty + d
			esFrom = y
		}
		if d := out[y]; d != mindist.NoPath && ty-d < ls {
			ls = ty - d
			lsFrom = y
		}
	}
	st.estart[x] = es
	st.esFrom[x] = esFrom
	st.lstart[x] = ls
	st.lsFrom[x] = lsFrom
}

// recomputeEstart rebuilds one unplaced index's Estart — and its witness
// — from Start and every placed index.
func (st *State) recomputeEstart(x int) {
	_, in := st.row(x)
	es := 0
	if d := st.dStart[x]; d != mindist.NoPath {
		es = d
	}
	from := -1
	for y := range st.placed.and(st.relatedTo(x)) {
		if d := in[y]; d != mindist.NoPath && st.time[y]+d > es {
			es = st.time[y] + d
			from = y
		}
	}
	st.estart[x] = es
	st.esFrom[x] = from
}

// recomputeLstart rebuilds one unplaced index's Lstart — and its witness
// — from the Stop anchor and every placed index.
func (st *State) recomputeLstart(x int) {
	out, _ := st.row(x)
	ls := st.lstartStop
	if d := out[st.n]; d != mindist.NoPath {
		ls = st.lstartStop - d
	}
	from := -1
	for y := range st.placed.and(st.relatedTo(x)) {
		if d := out[y]; d != mindist.NoPath && st.time[y]-d < ls {
			ls = st.time[y] - d
			from = y
		}
	}
	st.lstart[x] = ls
	st.lsFrom[x] = from
}

// refreshBounds updates Estart/Lstart after placing x. A placement can
// only tighten bounds, and because MinDist is transitively closed a
// single O(u) sweep applying x's delta to every unplaced index
// reproduces the full recomputation exactly — Section 4.4's incremental
// maintenance. Only a Stop-anchor move (which loosens the Lstart base)
// still falls back to the full O(p·u) recomputeBounds; ejections are
// repaired eagerly by repairAfterEject.
func (st *State) refreshBounds(x int) {
	if st.noIncremental {
		st.recomputeBounds()
		return
	}
	t := st.time[x]
	st.estart[x] = t
	st.lstart[x] = t
	st.esFrom[x] = -1
	st.lsFrom[x] = -1
	out, in := st.row(x)
	for y := range st.unplaced.and(st.relatedTo(x)) {
		if d := out[y]; d != mindist.NoPath && t+d > st.estart[y] {
			st.estart[y] = t + d
			st.esFrom[y] = x
		}
		if d := in[y]; d != mindist.NoPath && t-d < st.lstart[y] {
			st.lstart[y] = t - d
			st.lsFrom[y] = x
		}
	}
	if st.maintainStop() {
		st.recomputeBounds()
	}
}

// repairAfterEject restores the bounds invariant after y leaves the
// schedule: y's own bounds are rebuilt, and any unplaced index whose
// Estart or Lstart was witnessed by y is rebuilt in O(p). Bounds
// witnessed elsewhere (or by the schedule-independent base) still hold —
// an ejection can only loosen constraints, and only through the ejected
// op — so beyond those rebuilds the repair costs one O(u) witness scan
// over the unplaced indices related to y (only those can have y as a
// witness). The Stop anchor never moves here: ejections only lower
// Estart(Stop), and the anchor resets only when pushed upward
// (Section 4.2).
func (st *State) repairAfterEject(y int) {
	st.recomputeIndex(y)
	for x := range st.unplaced.and(st.relatedTo(y)) {
		if x == y {
			continue
		}
		switch es, ls := st.esFrom[x] == y, st.lsFrom[x] == y; {
		case es && ls:
			st.recomputeIndex(x)
		case es:
			st.recomputeEstart(x)
		case ls:
			st.recomputeLstart(x)
		}
	}
}

// maintainStop implements the Lstart(Stop) reset rule (Section 4.2):
// once set, the anchor moves only when Estart(Stop) is pushed beyond it
// or beyond Stop's current placement. Reports whether bounds must be
// recomputed.
func (st *State) maintainStop() bool {
	stop := st.n
	es := st.estart[stop]
	if st.Placed(stop) {
		es = 0
		if d := st.dStart[stop]; d != mindist.NoPath {
			es = d
		}
		_, in := st.row(stop)
		for y := range st.placed.all {
			if d := in[y]; y != stop && d != mindist.NoPath && st.time[y]+d > es {
				es = st.time[y] + d
			}
		}
		if es > st.time[stop] {
			st.eject(stop)
			st.lstartStop = stopAnchor(es, st.II, st.contention)
			return true
		}
		return false
	}
	if es > st.lstartStop {
		st.lstartStop = stopAnchor(es, st.II, st.contention)
		return true
	}
	return false
}

// place commits index x at the given cycle.
func (st *State) place(x, cycle int) {
	if x < st.n {
		st.mrt.Place(st.L.Ops[x], cycle)
	}
	st.time[x] = cycle
	st.lastPlace[x] = cycle
	st.placed.add(x)
	st.unplaced.remove(x)
	st.unplacedCount--
}

// eject removes index x from the schedule and charges the budget.
// Removing a placement can loosen other bounds, but only bounds that x
// itself witnessed, so a targeted repair keeps the invariant without a
// full recomputation.
func (st *State) eject(x int) {
	if st.obs != nil {
		e := st.evt
		e.Kind = EvEject
		e.Op = x
		e.Cycle = st.time[x]
		e.Ejections = st.ejections + 1
		st.obs.Event(e)
	}
	if x < st.n {
		st.mrt.Eject(st.L.Ops[x])
	}
	st.time[x] = ir.Unplaced
	st.placed.remove(x)
	st.unplaced.add(x)
	st.unplacedCount++
	st.ejections++
	// Under noIncremental every refreshBounds call recomputes from
	// scratch anyway, and no bound is read between an ejection and the
	// next refresh, so the direct path defers to it.
	if !st.noIncremental {
		st.repairAfterEject(x)
	}
}

// allPlaced reports whether every op and Stop have been placed.
func (st *State) allPlaced() bool { return st.unplacedCount == 0 }

// free reports whether x can sit at cycle without resource conflicts.
// Stop needs no resources.
func (st *State) free(x, cycle int) bool {
	if x == st.n {
		return true
	}
	return st.mrt.Free(st.L.Ops[x], cycle)
}

// resourceVictims returns the placed ops occupying x's slots at cycle.
func (st *State) resourceVictims(x, cycle int) []ir.OpID {
	if x == st.n {
		return nil
	}
	return st.mrt.Conflicts(st.L.Ops[x], cycle)
}

// depVictims returns the placed indices, in ascending order, whose
// MinDist constraints against the unplaced x sitting at cycle are
// violated. MinDist reflects the transitive closure of the successor
// relation, so this ejects beyond immediate successors, which the paper
// found reduces overall backtracking (Section 4.4).
// The returned slice aliases st.depBuf and is valid until the next call;
// forceAt copies it into its victim list immediately.
func (st *State) depVictims(x, cycle int) []int {
	victims := st.depBuf[:0]
	out, in := st.row(x)
	for y := range st.placed.and(st.relatedTo(x)) {
		ty := st.time[y]
		if d := out[y]; d != mindist.NoPath && cycle+d > ty {
			victims = append(victims, y)
			continue
		}
		if d := in[y]; d != mindist.NoPath && ty+d > cycle {
			victims = append(victims, y)
		}
	}
	st.depBuf = victims
	return victims
}

// bitset is a set of state indices, one bit each.
type bitset []uint64

// resize returns an empty set able to hold indices [0, n), reusing s's
// backing store when it is large enough.
func (s bitset) resize(n int) bitset {
	w := (n + 63) / 64
	if cap(s) >= w {
		s = s[:w]
	} else {
		s = make(bitset, w)
	}
	clear(s)
	return s
}

func (s bitset) add(x int)    { s[x>>6] |= 1 << (uint(x) & 63) }
func (s bitset) remove(x int) { s[x>>6] &^= 1 << (uint(x) & 63) }

// all yields the members in ascending order. The set must not change
// during the walk.
func (s bitset) all(yield func(int) bool) {
	for i, w := range s {
		for w != 0 {
			if !yield(i<<6 | bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// and returns an iterator over the members of s that are also in t, in
// ascending order. Neither set may change during the walk.
func (s bitset) and(t bitset) func(yield func(int) bool) {
	return func(yield func(int) bool) {
		t = t[:len(s)]
		for i, w := range s {
			w &= t[i]
			for w != 0 {
				if !yield(i<<6 | bits.TrailingZeros64(w)) {
					return
				}
				w &= w - 1
			}
		}
	}
}
