// Package lifetime measures the register pressure of a modulo schedule
// (Section 3.2 of the paper).
//
// A value defined at cycle t_d and last read at cycle t_u by an operation
// ω iterations later is live over [t_d, t_u + ω·II): the register is
// reserved when the defining operation issues and may not be overwritten
// until the last use issues (Figure 3). Because the schedule repeats
// every II cycles, lifetimes from adjacent iterations overlap; wrapping
// the first iteration's lifetimes around a vector of II columns gives the
// LiveVector (Figure 4), whose maximum entry, MaxLive, bounds the
// schedule's register pressure from below — and, per Rau et al. (PLDI
// 1992), rotating-register allocation almost always achieves it, so this
// repository (like the paper) uses MaxLive as the schedule's pressure.
package lifetime

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// Range is the live interval of one value in one iteration, in absolute
// cycles of that iteration's schedule: [Start, End).
type Range struct {
	Val   ir.ValueID
	Start int
	End   int
}

// Len returns the lifetime length in cycles.
func (r Range) Len() int { return r.End - r.Start }

// Ranges computes the live interval of every loop-variant value in the
// given register file under the schedule. A value's interval starts at
// its (earliest) def's issue cycle and ends at the latest use, counting a
// use ω iterations later at its issue cycle plus ω·II; a value with no
// in-loop reader is live for its defining latency (it still occupies a
// register until written back). A value with an unplaced def has no
// interval.
func Ranges(l *ir.Loop, s *ir.Schedule, file ir.RegFile) []Range {
	return RangesIn(l, s, file, &Scratch{})
}

// Scratch is pooled measurement storage: the range list, the
// value→range index and the live vector keep their capacity across
// compiles. It holds no references to loop or schedule data, so pooled
// reuse needs no reset.
type Scratch struct {
	ranges []Range
	index  []int32 // index[v]: value v's position in ranges, or -1
	vec    []int
}

// RangesIn is Ranges using pooled scratch buffers. The result aliases
// scr: the next use of scr overwrites it.
//
// It makes one pass over the values, opening each interval at its
// earliest def, and one over the placed ops, stretching the interval of
// every operand they read: O(ops·operands + values).
func RangesIn(l *ir.Loop, s *ir.Schedule, file ir.RegFile, scr *Scratch) []Range {
	out := scr.ranges[:0]
	index := slices.Grow(scr.index[:0], len(l.Values))[:len(l.Values)]
	for _, v := range l.Values {
		index[v.ID] = -1
		if v.File != file || !v.IsVariant() {
			continue
		}
		start, lat := -1, 0
		for _, d := range v.Defs {
			t := s.Time[d]
			if t == ir.Unplaced {
				start = -1
				break
			}
			if start == -1 || t < start {
				start = t
			}
			lat = max(lat, l.Mach.Latency(l.Op(d).Opcode))
		}
		if start != -1 {
			index[v.ID] = int32(len(out))
			out = append(out, Range{Val: v.ID, Start: start, End: start + lat})
		}
	}
	use := func(rd ir.Operand, t int) {
		if k := index[rd.Val]; k >= 0 {
			out[k].End = max(out[k].End, t+rd.Omega*s.II)
		}
	}
	for _, op := range l.Ops {
		t := s.Time[op.ID]
		if t == ir.Unplaced {
			continue
		}
		// Args and the predicate directly: op.Reads() copies the operand
		// slice of a predicated op.
		for _, rd := range op.Args {
			use(rd, t)
		}
		if op.Pred != nil {
			use(*op.Pred, t)
		}
	}
	scr.ranges, scr.index = out, index
	return out
}

// MeasureIn is Measure using pooled scratch buffers.
func MeasureIn(l *ir.Loop, s *ir.Schedule, file ir.RegFile, scr *Scratch) Pressure {
	scr.vec = LiveVectorInto(scr.vec, RangesIn(l, s, file, scr), s.II)
	return pressureOf(scr.vec, s.II)
}

// ICRUsageIn is ICRUsage using pooled scratch buffers.
func ICRUsageIn(l *ir.Loop, s *ir.Schedule, scr *Scratch) int {
	return MeasureIn(l, s, ir.ICR, scr).MaxLive + s.Stages()
}

// LiveVector wraps the lifetimes around a vector of II columns: entry c
// counts the values live at cycles congruent to c modulo II (Figure 4).
func LiveVector(ranges []Range, ii int) []int {
	return LiveVectorInto(nil, ranges, ii)
}

// LiveVectorInto is LiveVector written over vec's storage, which it
// grows to ii entries if it must.
func LiveVectorInto(vec []int, ranges []Range, ii int) []int {
	vec = slices.Grow(vec[:0], ii)[:ii]
	clear(vec)
	for _, r := range ranges {
		n := r.Len()
		if n <= 0 {
			continue
		}
		full := n / ii
		for c := range vec {
			vec[c] += full
		}
		for i := 0; i < n%ii; i++ {
			vec[(r.Start+full*ii+i)%ii]++
		}
	}
	return vec
}

// Pressure summarizes a schedule's register pressure for one file.
type Pressure struct {
	MaxLive int     // max entry of the LiveVector: the paper's pressure measure
	AvgLive float64 // total lifetime length / II
}

// Measure computes MaxLive and AvgLive for the given file.
func Measure(l *ir.Loop, s *ir.Schedule, file ir.RegFile) Pressure {
	return MeasureIn(l, s, file, &Scratch{})
}

func pressureOf(vec []int, ii int) Pressure {
	max, sum := 0, 0
	for _, c := range vec {
		sum += c
		if c > max {
			max = c
		}
	}
	return Pressure{MaxLive: max, AvgLive: float64(sum) / float64(ii)}
}

// MaxLive is shorthand for Measure(...).MaxLive on the RR file, the
// paper's headline pressure number.
func MaxLive(l *ir.Loop, s *ir.Schedule) int {
	return Measure(l, s, ir.RR).MaxLive
}

// ICRUsage returns the ICR predicate pressure of a schedule (Figure 8):
// the peak number of live predicate values plus one iteration-control
// (stage) predicate per kernel stage, since the kernel-only code schema
// guards each stage's operations with a rotating stage predicate.
func ICRUsage(l *ir.Loop, s *ir.Schedule) int {
	return Measure(l, s, ir.ICR).MaxLive + s.Stages()
}

func (p Pressure) String() string {
	return fmt.Sprintf("MaxLive=%d AvgLive=%.2f", p.MaxLive, p.AvgLive)
}
