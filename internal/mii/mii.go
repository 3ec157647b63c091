// Package mii computes the absolute lower bounds on a loop's initiation
// interval (Section 3.1 of the paper):
//
//   - ResMII: resource contention. If one iteration needs N busy cycles
//     of a resource class and the machine supplies R units of it, then
//     II ≥ ⌈N/R⌉. The non-pipelined divider contributes its full latency
//     per divide/modulo/sqrt.
//   - RecMII: recurrence circuits. A circuit with total latency L and
//     total distance Ω forces II ≥ ⌈L/Ω⌉.
//   - MII = max(ResMII, RecMII).
//
// It also identifies critical resources and operations (Section 4.3): a
// resource is critical at a given II if one iteration uses it for at
// least 0.90·II cycles; an operation is critical if it uses a critical
// resource.
package mii

import (
	"context"

	"repro/internal/circuits"
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
// as attributes (circuit enumeration dominates its duration).
func Compute(ctx context.Context, l *ir.Loop) (Bounds, error) {
	sp := obs.FromContext(ctx).Start("mii")
	res := ResMII(l)
	rec, err := circuits.RecMII(l)
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
