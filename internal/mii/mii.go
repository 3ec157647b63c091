// Package mii computes the absolute lower bounds on a loop's initiation
// interval (Section 3.1 of the paper):
//
//   - ResMII: resource contention. If one iteration needs N busy cycles
//     of a resource class and the machine supplies R units of it, then
//     II ≥ ⌈N/R⌉. The non-pipelined divider contributes its full latency
//     per divide/modulo/sqrt.
//   - RecMII: recurrence circuits. A circuit with total latency L and
//     total distance Ω forces II ≥ ⌈L/Ω⌉. The largest such ratio is the
//     minimum cost-to-time ratio the paper attributes to Lawler; RecMII
//     finds it by a binary search over II, never listing the circuits.
//   - MII = max(ResMII, RecMII).
//
// It also identifies critical resources and operations (Section 4.3): a
// resource is critical at a given II if one iteration uses it for at
// least 0.90·II cycles; an operation is critical if it uses a critical
// resource.
package mii

import (
	"context"
	"errors"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Bounds holds a loop's lower bounds on II.
type Bounds struct {
	ResMII int
	RecMII int
	MII    int
}

// Compute returns the loop's lower bounds on II. When the context
// carries an obs.Trace, it records an "mii" span with the three bounds
// as attributes (the RecMII search dominates its duration).
func Compute(ctx context.Context, l *ir.Loop) (Bounds, error) {
	sp := obs.FromContext(ctx).Start("mii")
	res := ResMII(l)
	rec, err := RecMII(l)
	if err != nil {
		sp.End(obs.OutcomeError)
		return Bounds{}, err
	}
	m := res
	if rec > m {
		m = rec
	}
	if m < 1 {
		m = 1
	}
	sp.Int("resmii", int64(res)).Int("recmii", int64(rec)).Int("mii", int64(m)).End(obs.OutcomeOK)
	return Bounds{ResMII: res, RecMII: rec, MII: m}, nil
}

// ResMII returns the resource-constrained lower bound on II. It runs
// once per compile, so the per-kind accumulator stays on the stack for
// any machine up to 16 unit classes (all built-ins have ≤ 6).
func ResMII(l *ir.Loop) int {
	nk := l.Mach.NumKinds()
	var buf [16]int
	var busy []int
	if nk <= len(buf) {
		busy = buf[:nk]
	} else {
		busy = make([]int, nk)
	}
	for _, op := range l.Ops {
		info := l.Mach.Info(op.Opcode)
		busy[info.Kind] += info.Busy
	}
	res := 1
	for k := 0; k < nk; k++ {
		cnt := l.Mach.Count(machine.FUKind(k))
		if cnt == 0 || busy[k] == 0 {
			continue
		}
		if r := (busy[k] + cnt - 1) / cnt; r > res {
			res = r
		}
	}
	return res
}

// ErrZeroOmega reports a dependence circuit with total distance zero: a
// combinational cycle no schedule can satisfy. Well-formed loop bodies
// never contain one. Its text, prefix included, reaches response
// bodies and is pinned byte for byte.
var ErrZeroOmega = errors.New("circuits: dependence circuit with zero total omega")

// RecMII returns the recurrence-constrained lower bound on II: the
// largest ⌈L/Ω⌉ over the dependence circuits, at least 1. That is the
// smallest II ≥ 1 at which the graph with arc costs latency − ω·II has
// no positive-cost circuit. A circuit's cost only falls as II grows, so
// RecMII binary-searches II with a Bellman–Ford probe per step. A
// circuit with Σω = 0 bounds no II and returns ErrZeroOmega. RecMII runs
// once per compile and allocates nothing for loops up to 256 ops.
func RecMII(l *ir.Loop) (int, error) {
	var buf [256]int
	var dist []int
	if n := len(l.Ops); n <= len(buf) {
		dist = buf[:n]
	} else {
		dist = make([]int, n)
	}
	// At cost 1 − (n+1)·ω a circuit of k ≤ n arcs costs k > 0 when its
	// Σω is 0 and at most k − (n+1) < 0 otherwise (ir rejects ω < 0).
	if positiveCircuit(l.Deps, dist, len(dist)+1, true) {
		return 0, ErrZeroOmega
	}
	// Every circuit now has Ω ≥ 1, so no ⌈L/Ω⌉ exceeds the sum of the
	// positive latencies.
	lo, hi := 1, 1
	for _, d := range l.Deps {
		hi += max(d.Latency, 0)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if positiveCircuit(l.Deps, dist, mid, false) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// positiveCircuit reports whether some circuit is positive when arc d
// costs d.Latency − d.Omega·ii, or 1 − d.Omega·ii under unit. dist (one
// entry per op) holds longest-path lengths from a virtual source joined
// to every op at cost 0. Without a positive circuit they settle within
// len(dist) passes, so one more pass that changes them proves one.
func positiveCircuit(deps []ir.Dep, dist []int, ii int, unit bool) bool {
	clear(dist)
	for range len(dist) + 1 {
		changed := false
		for i := range deps {
			d := &deps[i]
			c := d.Latency
			if unit {
				c = 1
			}
			if v := dist[d.From] + c - d.Omega*ii; v > dist[d.To] {
				dist[d.To] = v
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

// HasResourceContention reports whether the loop competes for any
// resource (ResMII > 1). Section 4.2: a loop without contention can
// always be scheduled to meet its critical path, so the scheduler grants
// no extra slack and does not damp critical-op priorities.
func HasResourceContention(l *ir.Loop) bool { return ResMII(l) > 1 }

// CriticalOps reports, for each op, whether it uses a critical resource
// at the given II. Ops were pre-assigned to functional-unit instances,
// so criticality is judged per instance: instance busy ≥ 0.90·II.
// Following Section 4.3 this is only meaningful when the loop has
// resource contention; callers gate on HasResourceContention.
func CriticalOps(l *ir.Loop, ii int) []bool {
	type slot struct {
		kind machine.FUKind
		fu   int
	}
	busy := map[slot]int{}
	for _, op := range l.Ops {
		info := l.Mach.Info(op.Opcode)
		busy[slot{info.Kind, op.FU}] += info.Busy
	}
	out := make([]bool, len(l.Ops))
	for i, op := range l.Ops {
		info := l.Mach.Info(op.Opcode)
		// 0.90·II without floating point: 10·busy ≥ 9·II.
		out[i] = 10*busy[slot{info.Kind, op.FU}] >= 9*ii
	}
	return out
}

// UsesDivider reports whether the op runs on a scarce (non-pipelined)
// unit class; Section 4.3 halves such ops' slack (again) because the
// non-pipelined reservation pattern leaves them very few issue slots.
// On the paper machines the only such class is the Divider — including
// the pipelined-divider ablation, whose class keeps the mark — so this
// generalization is bit-identical on the paper family.
func UsesDivider(l *ir.Loop, op *ir.Op) bool {
	return l.Mach.NotPipelined(l.Mach.Info(op.Opcode).Kind)
}
