// Package schedcheck validates modulo schedules independently of the
// schedulers that produced them. Every schedule generated by tests,
// examples and benchmarks in this repository passes through Check, so a
// heuristic bug cannot silently produce an illegal "win".
//
// A schedule at initiation interval II is legal when
//
//  1. every operation has an issue cycle;
//  2. for every dependence arc from x to y with latency L and distance ω,
//     time(y) + ω·II ≥ time(x) + L (the modulo-scheduling dependence
//     constraint, Section 3.1); and
//  3. no functional-unit instance is reserved twice in the same cycle
//     modulo II (the modulo constraint, Section 1), counting the
//     non-pipelined divider's multi-cycle reservation pattern.
package schedcheck

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
)

// Violation describes one way a schedule is illegal.
type Violation struct {
	Msg string
}

func (v Violation) String() string { return v.Msg }

// Check returns every violation in the schedule; nil means legal.
func Check(l *ir.Loop, s *ir.Schedule) []Violation {
	var out []Violation
	if s.II < 1 {
		return []Violation{{Msg: fmt.Sprintf("II=%d is not positive", s.II)}}
	}
	if len(s.Time) != len(l.Ops) {
		return []Violation{{Msg: fmt.Sprintf("schedule covers %d ops, loop has %d", len(s.Time), len(l.Ops))}}
	}
	for id, t := range s.Time {
		if t == ir.Unplaced {
			out = append(out, Violation{Msg: fmt.Sprintf("op%d unplaced", id)})
		} else if t < 0 {
			out = append(out, Violation{Msg: fmt.Sprintf("op%d at negative cycle %d", id, t)})
		}
	}
	if out != nil {
		return out
	}

	for _, d := range l.Deps {
		lhs := s.Time[d.To] + d.Omega*s.II
		rhs := s.Time[d.From] + d.Latency
		if lhs < rhs {
			out = append(out, Violation{Msg: fmt.Sprintf(
				"dependence op%d→op%d (lat=%d ω=%d, %v) violated: %d + %d·%d < %d + %d",
				d.From, d.To, d.Latency, d.Omega, d.Kind,
				s.Time[d.To], d.Omega, s.II, s.Time[d.From], d.Latency)})
		}
	}

	type slot struct {
		kind  machine.FUKind
		fu    int
		cycle int
	}
	occupied := map[slot]ir.OpID{}
	for _, op := range l.Ops {
		info := l.Mach.Info(op.Opcode)
		if info.Busy > s.II {
			out = append(out, Violation{Msg: fmt.Sprintf(
				"op%d busy pattern (%d cycles) exceeds II=%d", op.ID, info.Busy, s.II)})
			continue
		}
		for i := 0; i < info.Busy; i++ {
			c := (s.Time[op.ID] + i) % s.II
			k := slot{info.Kind, op.FU, c}
			if prev, ok := occupied[k]; ok {
				out = append(out, Violation{Msg: fmt.Sprintf(
					"resource conflict: op%d and op%d both reserve %v.%d at cycle %d mod %d",
					prev, op.ID, info.Kind, op.FU, c, s.II)})
			} else {
				occupied[k] = op.ID
			}
		}
	}
	return out
}
