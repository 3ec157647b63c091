// Package codegen lowers a modulo schedule to kernel-only code for the
// rotating-register target (Sections 2.2–2.3; the "kernel-only" schema of
// Rau, Schlansker and Tirumalai, MICRO-25). The kernel has II instruction
// words; the operation scheduled at cycle t = σ·II + φ issues in word φ,
// guarded by the stage-σ iteration-control predicate, so no prologue or
// epilogue code is needed: stage predicates squash the ramp-up and
// ramp-down iterations.
//
// Register operands become rotating specifiers. With the iteration
// control pointer decrementing once per kernel pass, the instance of
// value v (allocation offset r_v) produced by iteration i lives at
// physical register (ICP₀ + r_v − i) mod N; the constant specifiers
//
//	destination: r_v + σ_def      source: r_v + ω + σ_use
//
// make every pass address the right instances (the concatenation of
// shifters in the paper's Figure 2).
package codegen

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/regalloc"
)

// Spec is one resolved register operand.
type Spec struct {
	File ir.RegFile
	// Off is the rotating specifier (RR/ICR files). Unused for GPR.
	Off int
	// Val is the original value, used for GPR lookup and for the
	// simulator's instance-tag checking.
	Val ir.ValueID
	// Omega is the read distance, kept so the simulator can compute the
	// expected instance.
	Omega int
}

// Inst is one kernel operation: the original op plus resolved operands
// and its stage.
type Inst struct {
	Op    *ir.Op
	Stage int
	Srcs  []Spec
	Dst   *Spec
	Pred  *Spec // if-conversion guard (sense in Op.PredNeg); nil if none
}

// Kernel is the generated loop body. GenerateInto rebuilds a Kernel in
// place, reusing its instructions, operands, words, allocation maps and
// lifetime and allocator scratch, so a Kernel recycled across
// compilations (core.CompileInto recycles the caller's) allocates
// nothing in steady state. The next GenerateInto overwrites everything
// it holds: a caller must not keep references into it across calls.
type Kernel struct {
	Loop   *ir.Loop
	II     int
	Stages int
	// NRR and NICR are the rotating file sizes consumed.
	NRR, NICR int
	// RR and ICR are the allocations behind the specifiers.
	RR, ICR regalloc.Allocation
	// Words[φ] lists the instructions issuing at kernel cycle φ.
	Words [][]*Inst

	insts   []Inst // every Inst, in op order
	specs   []Spec // every operand of every Inst
	rr, icr lifetime.Scratch
	ra      regalloc.Scratch
}

// Generate allocates rotating registers for the schedule and emits the
// kernel. The schedule must be complete and legal.
func Generate(l *ir.Loop, s *ir.Schedule) (*Kernel, error) {
	k := &Kernel{}
	if err := GenerateInto(context.Background(), k, l, s); err != nil {
		return nil, err
	}
	return k, nil
}

// GenerateInto is Generate rebuilding k in place (see Kernel). When the
// context carries an obs.Trace, the two rotating-register allocations
// (RR and ICR files) record "regalloc" spans. On error k holds no
// usable kernel.
func GenerateInto(ctx context.Context, k *Kernel, l *ir.Loop, s *ir.Schedule) error {
	if !s.Complete() {
		return fmt.Errorf("codegen: incomplete schedule for %s", l.Name)
	}
	rrRanges := lifetime.RangesIn(l, s, ir.RR, &k.rr)
	icrRanges := lifetime.RangesIn(l, s, ir.ICR, &k.icr)
	// Live-out values must survive until the epilogue reads them: extend
	// their allocation ranges to the iteration makespan so no later
	// instance of any value can reuse the final instance's register
	// before every in-flight write has landed. This is an allocation
	// cost only — the paper's MaxLive pressure metric (def to last
	// in-loop use) is reported unchanged by package lifetime.
	makespan := s.Makespan(l)
	for _, ranges := range [2][]lifetime.Range{rrRanges, icrRanges} {
		for i := range ranges {
			if l.Value(ranges[i].Val).LiveOut && ranges[i].End < makespan {
				ranges[i].End = makespan
			}
		}
	}
	k.ra.Allocate(ctx, &k.RR, rrRanges, s.II, regalloc.FirstFit, regalloc.StartTime)
	k.ra.Allocate(ctx, &k.ICR, icrRanges, s.II, regalloc.FirstFit, regalloc.StartTime)
	if err := k.ra.Verify(rrRanges, s.II, k.RR); err != nil {
		return fmt.Errorf("codegen: RR allocation: %w", err)
	}
	if err := k.ra.Verify(icrRanges, s.II, k.ICR); err != nil {
		return fmt.Errorf("codegen: ICR allocation: %w", err)
	}
	// File sizes must cover every specifier: off = r + ω + σ can reach
	// beyond N; the specifier arithmetic is modular, so N just needs to
	// be ≥ 1. Keep N at the allocation size (power-of-two rounding is a
	// hardware concern, not a correctness one).
	k.Loop, k.II, k.Stages = l, s.II, s.Stages()
	k.NRR, k.NICR = k.RR.N, k.ICR.N

	// Srcs, Dst and Pred point into k.specs, so size it (each op's
	// arguments, plus a guard and a result at most) before the first
	// append: a reallocation would leave earlier Insts pointing at the
	// old array.
	nspecs := 0
	for _, op := range l.Ops {
		nspecs += len(op.Args) + 2
	}
	k.insts = slices.Grow(k.insts[:0], len(l.Ops))[:len(l.Ops)]
	specs := slices.Grow(k.specs[:0], nspecs)
	// Each word keeps its storage: its capacity ratchets to the most
	// instructions it has held.
	k.Words = slices.Grow(k.Words[:0], s.II)[:s.II]
	for phi := range k.Words {
		k.Words[phi] = k.Words[phi][:0]
	}
	for i, op := range l.Ops {
		stage := s.Stage(op.ID)
		in := Inst{Op: op, Stage: stage}
		from := len(specs)
		for _, a := range op.Args {
			sp, err := k.spec(a, stage)
			if err != nil {
				return err
			}
			specs = append(specs, sp)
		}
		in.Srcs = specs[from:len(specs):len(specs)]
		if op.Pred != nil {
			sp, err := k.spec(*op.Pred, stage)
			if err != nil {
				return err
			}
			specs = append(specs, sp)
			in.Pred = &specs[len(specs)-1]
		}
		if op.Result != ir.None {
			// A result is an operand read at distance 0; Finalize keeps
			// results out of the GPR file.
			sp, err := k.spec(ir.Operand{Val: op.Result}, stage)
			if err != nil {
				return err
			}
			specs = append(specs, sp)
			in.Dst = &specs[len(specs)-1]
		}
		k.insts[i] = in
		phi := s.Offset(op.ID)
		k.Words[phi] = append(k.Words[phi], &k.insts[i])
	}
	k.specs = specs
	return nil
}

// spec resolves an operand read by an instruction of the given stage to
// its rotating specifier: r_v + ω + σ modulo the file size.
func (k *Kernel) spec(o ir.Operand, stage int) (Spec, error) {
	v := k.Loop.Value(o.Val)
	if v.File == ir.GPR {
		return Spec{File: ir.GPR, Val: o.Val}, nil
	}
	alloc := &k.RR
	if v.File == ir.ICR {
		alloc = &k.ICR
	}
	off, ok := alloc.Offset[o.Val]
	if !ok {
		return Spec{}, fmt.Errorf("codegen: value %s has no rotating allocation", v.Name)
	}
	return Spec{
		File:  v.File,
		Off:   mod(off+o.Omega+stage, alloc.N),
		Val:   o.Val,
		Omega: o.Omega,
	}, nil
}

func mod(a, m int) int {
	if m <= 0 {
		return 0
	}
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// String renders the kernel as annotated VLIW assembly.
func (k *Kernel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s: II=%d stages=%d RR=%d ICR=%d\n",
		k.Loop.Name, k.II, k.Stages, k.NRR, k.NICR)
	for phi, word := range k.Words {
		fmt.Fprintf(&b, "  cycle %d:\n", phi)
		for _, in := range word {
			fmt.Fprintf(&b, "    [s%d] %s", in.Stage, k.Loop.FormatOp(in.Op))
			if in.Dst != nil {
				fmt.Fprintf(&b, "  dst=%s", specString(*in.Dst))
			}
			for i, s := range in.Srcs {
				fmt.Fprintf(&b, " src%d=%s", i, specString(s))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func specString(s Spec) string {
	if s.File == ir.GPR {
		return fmt.Sprintf("gpr(v%d)", s.Val)
	}
	return fmt.Sprintf("%v[icp+%d]", s.File, s.Off)
}
