// Arena: pooled per-compile scratch. One modulo-scheduling run builds a
// MinDist table per II attempt, an MRT, a dozen Estart/Lstart/witness
// tables, and lifetime vectors — all proportional to the loop, all dead
// the moment the compile returns. Allocating them per compile caps
// service throughput, so an Arena owns one reusable copy of everything
// and rides a sync.Pool between compiles: slices ratchet up to the
// largest loop served and are re-initialized (never re-allocated) per
// attempt.
//
// Ownership is single-threaded: an Arena belongs to exactly one compile
// from Acquire to Release. Release clears every reference to request
// data (the loop, observers, closures capturing contexts) so a pooled
// Arena retains only pointer-free backing stores, then returns itself to
// the pool. All exit paths — success, budget exhaustion, degradation,
// panic isolation — release through the same defer.
package sched

import (
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/machine"
	"repro/internal/mii"
	"repro/internal/mindist"
	"repro/internal/mrt"
)

// Arena holds the pooled scratch state of one compilation. The zero
// value is ready to use (and never pooled); AcquireArena hands out
// pooled instances that must be Released.
type Arena struct {
	pooled bool // return to the pool on Release
	held   bool // double-release guard

	st  State         // the one attempt state, re-initialized per II attempt
	md  mindist.Table // the MinDist table, recomputed in place per II attempt
	mrt mrt.Scratch   // modulo resource table rows + op span arrays
	lt  lifetime.Scratch

	// Per-compile loop preparation (see prepareLoop).
	preparedFor *ir.Loop
	pairSeen    []bool  // n×n dependence-pair dedup, all-false between compiles
	cursor      []int32 // CSR fill cursors
	fuBusy      []int32 // busy cycles per (kind, instance), for criticality
	maxFU       int

	// List-scheduler scratch.
	order, times []int
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

var (
	arenaInUse    atomic.Int64
	arenaRecycled atomic.Int64
)

// ArenaStats reports pool health: the number of arenas currently
// acquired and the cumulative count of arenas returned to the pool.
// The obs layer exports these as lsmsd_arena_inuse and
// lsmsd_arena_recycled_total.
func ArenaStats() (inUse, recycledTotal int64) {
	return arenaInUse.Load(), arenaRecycled.Load()
}

// AcquireArena returns an arena from the process-wide pool. The caller
// owns it until Release; arenas must not be shared across goroutines.
func AcquireArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.pooled = true
	a.held = true
	arenaInUse.Add(1)
	return a
}

// NewArena returns a fresh arena that Release never returns to the
// pool: set as Config.Arena, it runs a compile through the same code
// path as pooled compiles, but on virgin memory.
func NewArena() *Arena {
	a := new(Arena)
	a.held = true
	arenaInUse.Add(1)
	return a
}

// Release ends the arena's compile: it drops every reference to
// per-request data — the loop, the MRT's loop, the attempt state's
// observer and event strings — and, for pooled arenas, returns the
// backing stores to the pool. The MinDist table holds only integers
// and is kept as it is. Double release is a no-op so a deferred
// Release composes with early manual ones.
func (a *Arena) Release() {
	if !a.held {
		return
	}
	a.held = false
	arenaInUse.Add(-1)

	a.preparedFor = nil
	a.mrt.Reset()
	st := &a.st
	st.L = nil
	st.MD = nil
	st.dStart = nil
	st.mrt = nil
	st.obs = nil
	st.evt = Event{}

	if a.pooled {
		arenaRecycled.Add(1)
		arenaPool.Put(a)
	}
}

// Lifetime returns the arena's pooled pressure-measurement scratch.
func (a *Arena) Lifetime() *lifetime.Scratch { return &a.lt }

// prepareLoop builds the per-compile, II-independent view of the loop:
// the compact CSR dependence adjacency (int32, first-occurrence order,
// deduplicated), the per-op divider marks and brtop index, the resource
// contention flag, and the per-(kind, instance) busy totals that
// criticality tests consult. Idempotent per loop, so the engine and a
// subsequent degrade fallback share one preparation.
func (a *Arena) prepareLoop(l *ir.Loop) {
	if a.preparedFor == l {
		return
	}
	a.preparedFor = l
	st := &a.st
	n := len(l.Ops)
	st.n = n

	st.divider = growBools(st.divider, n)
	st.brtop = -1
	for i, op := range l.Ops {
		st.divider[i] = l.Mach.NotPipelined(l.Mach.Info(op.Opcode).Kind)
		if op.Opcode == machine.BrTop {
			st.brtop = i
		}
	}
	// Whether an op's RR result has a flow use by another op does not
	// depend on the schedule, so SlackPolicy.stretchable reads it from
	// here instead of scanning l.Deps per central iteration.
	st.otherUse = growBools(st.otherUse, n)
	clear(st.otherUse)
	for i := range l.Deps {
		dep := &l.Deps[i]
		if dep.Kind != ir.DepFlow || l.Value(dep.Val).File != ir.RR {
			continue
		}
		for _, d := range l.Value(dep.Val).Defs {
			if d != dep.To {
				st.otherUse[d] = true
			}
		}
	}
	st.contention = mii.HasResourceContention(l)

	// Busy cycles per functional-unit instance (criticality denominator),
	// sized by the machine's own class count.
	nk := l.Mach.NumKinds()
	maxFU := 0
	for k := 0; k < nk; k++ {
		if c := l.Mach.Count(machine.FUKind(k)); c > maxFU {
			maxFU = c
		}
	}
	a.maxFU = maxFU
	a.fuBusy = growI32(a.fuBusy, nk*maxFU)
	for i := range a.fuBusy {
		a.fuBusy[i] = 0
	}
	for _, op := range l.Ops {
		info := l.Mach.Info(op.Opcode)
		a.fuBusy[int(info.Kind)*maxFU+op.FU] += int32(info.Busy)
	}

	a.buildCSR(l, n)
}

// buildCSR packs the deduplicated immediate dependence neighbours into
// compressed-sparse-row int32 arrays, preserving the first-occurrence
// order of l.Deps per node (the order the old [][]int representation
// produced, which policy tie-breaks observe). The pairSeen matrix
// self-clears: pass one marks each pair's first occurrence, pass two
// unmarks it while filling, so the matrix is all-false again afterward.
func (a *Arena) buildCSR(l *ir.Loop, n int) {
	st := &a.st
	if cap(a.pairSeen) >= n*n {
		a.pairSeen = a.pairSeen[:n*n]
	} else {
		a.pairSeen = make([]bool, n*n)
	}
	st.predOff = growI32(st.predOff, n+1)
	st.succOff = growI32(st.succOff, n+1)
	for i := range st.predOff {
		st.predOff[i] = 0
		st.succOff[i] = 0
	}
	edges := 0
	for _, d := range l.Deps {
		if d.From == d.To {
			continue
		}
		idx := int(d.From)*n + int(d.To)
		if a.pairSeen[idx] {
			continue
		}
		a.pairSeen[idx] = true
		st.succOff[int(d.From)+1]++
		st.predOff[int(d.To)+1]++
		edges++
	}
	for i := 0; i < n; i++ {
		st.predOff[i+1] += st.predOff[i]
		st.succOff[i+1] += st.succOff[i]
	}
	st.predAdj = growI32(st.predAdj, edges)
	st.succAdj = growI32(st.succAdj, edges)
	a.cursor = growI32(a.cursor, 2*n)
	pc, sc := a.cursor[:n], a.cursor[n:2*n]
	copy(pc, st.predOff[:n])
	copy(sc, st.succOff[:n])
	for _, d := range l.Deps {
		if d.From == d.To {
			continue
		}
		idx := int(d.From)*n + int(d.To)
		if !a.pairSeen[idx] {
			continue
		}
		a.pairSeen[idx] = false
		st.succAdj[sc[d.From]] = int32(d.To)
		sc[d.From]++
		st.predAdj[pc[d.To]] = int32(d.From)
		pc[d.To]++
	}
}

// criticalInto recomputes the per-op criticality marks for one II:
// an op is critical when its functional-unit instance is busy at least
// 0.90·II cycles per iteration — 10·busy ≥ 9·II without floating point,
// the exact test mii.CriticalOps applies (the differential suite holds
// the two implementations together).
func (a *Arena) criticalInto(l *ir.Loop, ii int) {
	st := &a.st
	st.critical = growBools(st.critical, st.n)
	if !st.contention {
		for i := range st.critical {
			st.critical[i] = false
		}
		return
	}
	for i, op := range l.Ops {
		info := l.Mach.Info(op.Opcode)
		st.critical[i] = 10*a.fuBusy[int(info.Kind)*a.maxFU+op.FU] >= int32(9*ii)
	}
}

// newState re-initializes the arena's attempt state for one II attempt:
// the paper's initial bounds from MinDist, the Lstart(Stop) anchor with
// its extra slack (Section 4.2), per-attempt criticality (Section 4.3)
// and MinLT values (Section 5.1). Nothing allocates once the arena has
// served a loop at least this large.
func (a *Arena) newState(l *ir.Loop, iiVal int, md *mindist.Table) *State {
	a.prepareLoop(l)
	st := &a.st
	st.L, st.II, st.MD = l, iiVal, md
	n := st.n
	st.mrt = mrt.NewIn(l, iiVal, &a.mrt)

	st.time = growInts(st.time, n+1)
	st.estart = growInts(st.estart, n+1)
	st.lstart = growInts(st.lstart, n+1)
	st.lastPlace = growInts(st.lastPlace, n+1)
	st.esFrom = growInts(st.esFrom, n+1)
	st.lsFrom = growInts(st.lsFrom, n+1)
	st.scratch = growBools(st.scratch, n+1)
	for i := 0; i <= n; i++ {
		st.time[i] = ir.Unplaced
		st.lastPlace[i] = ir.Unplaced
		st.scratch[i] = false
	}
	st.placed = st.placed.resize(n + 1)
	st.unplaced = st.unplaced.resize(n + 1)
	for i := 0; i <= n; i++ {
		st.unplaced.add(i)
	}
	st.victimBuf = st.victimBuf[:0]
	st.unplacedCount = n + 1
	st.ejections = 0
	st.noIncremental = false
	st.obs = nil
	st.evt = Event{}

	a.criticalInto(l, iiVal)
	a.distInto(md)

	st.minLT = mindist.MinLTs(l, md, st.minLT)

	cp := md.CriticalPath()
	st.lstartStop = stopAnchor(cp, iiVal, st.contention)
	st.recomputeBounds()
	return st
}

// distInto fills the attempt's MinDist view (see State.dIn): the
// transpose of the II's table over the ops and Stop, Start's row, and
// each index's related set from its two rows. It runs after the index
// sets are sized.
func (a *Arena) distInto(md *mindist.Table) {
	st := &a.st
	n, w := st.n, st.n+1
	st.dIn = growInts(st.dIn, w*w)
	for x := 0; x <= n; x++ {
		for y, d := range md.OpsAndStop(x) {
			st.dIn[y*w+x] = d
		}
	}
	st.dStart = md.OpsAndStop(md.Start())
	words := len(st.placed)
	st.related = st.related.resize(w * words * 64) // w rows of words words
	for x := 0; x <= n; x++ {
		out, in := st.row(x)
		rel := st.relatedTo(x)
		for y, d := range out {
			if d != mindist.NoPath || in[y] != mindist.NoPath {
				rel.add(y)
			}
		}
	}
}

// listScratch returns the list scheduler's order/times buffers, sized n.
func (a *Arena) listScratch(n int) (order, times []int) {
	a.order = growInts(a.order, n)
	a.times = growInts(a.times, n)
	return a.order, a.times
}

func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func growI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

func growBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}
