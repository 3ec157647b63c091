// Package ir defines the loop intermediate representation consumed by the
// modulo schedulers: a branch-free, predicated loop body in (dynamic)
// static single assignment form, with dependence arcs labelled by latency
// and omega — the minimum number of iterations separating the two ends of
// the dependence (Sections 2.2, 3.1 and 5.1 of the paper).
//
// A Loop holds one loop body. Each Op is one machine operation; each
// Value is one loop variant (or loop-invariant live-in) with, normally, a
// unique defining operation. The single deliberate departure from strict
// SSA is if-converted merges: a Value may have several defining operations
// provided their predicates are mutually exclusive, which is exactly how
// predicated hardware such as the Cydra 5 implements a merge without a
// select instruction.
//
// Loop-carried uses are expressed by the Omega field of an operand: an
// operand (v, ω) reads the instance of v computed ω iterations earlier.
// An omega of zero reads the current iteration's instance.
package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/machine"
)

// OpID names an operation within its Loop; IDs are dense indices into
// Loop.Ops.
type OpID int

// ValueID names a value within its Loop; IDs are dense indices into
// Loop.Values.
type ValueID int

// None marks a missing op or value reference.
const None = -1

// RegFile identifies which register file holds a value (Section 2.3).
type RegFile int

const (
	// RR is the rotating register file holding loop-variant addresses,
	// integers and floats. Register-pressure results concern this file.
	RR RegFile = iota
	// GPR is the static register file holding loop invariants.
	GPR
	// ICR is the rotating predicate file (1-bit iteration-control
	// registers) holding compare results and stage predicates.
	ICR
)

func (f RegFile) String() string {
	switch f {
	case RR:
		return "RR"
	case GPR:
		return "GPR"
	case ICR:
		return "ICR"
	}
	return fmt.Sprintf("RegFile(%d)", int(f))
}

// Type is the runtime type of a value, used by the interpreter, code
// generator and simulator.
type Type int

const (
	Int   Type = iota // 64-bit integer (also loop counters)
	Float             // 64-bit float (the paper normalizes scalars to one register)
	Addr              // address (array element index space)
	Pred              // 1-bit predicate
)

func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case Addr:
		return "addr"
	case Pred:
		return "pred"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Operand is a read of a value instance: the instance of Val computed
// Omega iterations before the iteration the reading op belongs to.
type Operand struct {
	Val   ValueID
	Omega int
}

// Value is one virtual register: a loop variant, a loop-invariant live-in,
// or a predicate.
type Value struct {
	ID   ValueID
	Name string
	File RegFile
	Type Type

	// Defs lists the defining operations. Empty for live-ins (loop
	// invariants, or loop-variant initial values fed in by the preheader
	// — a loop-variant live-in still has in-loop defs; a pure invariant
	// has none). Multiple defs arise only from if-converted merges and
	// must execute under mutually exclusive predicates.
	Defs []OpID

	// Const holds a compile-time constant for def-less GPR values used as
	// literals; Valid distinguishes "constant zero" from "not a constant".
	Const      Scalar
	ConstValid bool

	// LiveOut records that the value is needed after the loop exits.
	LiveOut bool
}

// IsVariant reports whether the value is computed inside the loop.
func (v *Value) IsVariant() bool { return len(v.Defs) > 0 }

// Scalar is a runtime scalar: exactly one of the fields is meaningful,
// selected by the Type of the value it instantiates.
type Scalar struct {
	I int64
	F float64
	B bool
}

// IntS, FloatS, PredS build Scalar constants.
func IntS(i int64) Scalar     { return Scalar{I: i} }
func FloatS(f float64) Scalar { return Scalar{F: f} }
func PredS(b bool) Scalar     { return Scalar{B: b} }

// Op is one machine operation of the loop body.
type Op struct {
	ID     OpID
	Opcode machine.Opcode

	// Args are the value operands, in opcode-defined order (e.g. Load
	// takes [addr]; Store takes [addr, data]; binary ops take [a, b]).
	Args []Operand

	// Result is the defined value, or None (stores, brtop).
	Result ValueID

	// FU is the functional-unit instance (within the opcode's class) the
	// op was assigned to before scheduling. The paper's compiler performs
	// this pre-scheduling assignment, restricting each op to one issue
	// slot per cycle (Section 4.3).
	FU int

	// Pred is the guarding predicate operand; nil means always execute.
	// PredNeg executes the op when the predicate is false (this lets
	// if-conversion guard an else-branch without waiting for a PNot).
	Pred    *Operand
	PredNeg bool

	// OnRecurrence marks ops that lie on a non-trivial recurrence
	// circuit; filled in by analysis (Table 2 reports the count).
	OnRecurrence bool
}

// DepKind classifies a dependence arc.
type DepKind int

const (
	// DepFlow is a true (read-after-write) register dependence; Val names
	// the value flowing along the arc. Flow arcs are derived from
	// operands by Loop.Finalize.
	DepFlow DepKind = iota
	// DepMem is a memory ordering dependence (store→load flow,
	// load→store anti, store→store output) discovered by dependence
	// analysis.
	DepMem
	// DepOrder is any other ordering constraint.
	DepOrder
)

func (k DepKind) String() string {
	switch k {
	case DepFlow:
		return "flow"
	case DepMem:
		return "mem"
	case DepOrder:
		return "order"
	}
	return fmt.Sprintf("DepKind(%d)", int(k))
}

// Dep is a dependence arc: in every feasible schedule,
//
//	time(To) + Omega·II ≥ time(From) + Latency.
//
// Omega (the paper's ω, the dependence distance) is the minimum number of
// iterations separating the two operations.
type Dep struct {
	From, To OpID
	Latency  int
	Omega    int
	Kind     DepKind
	Val      ValueID // value carried by a flow arc; None otherwise
}

// Loop is one schedulable loop body plus the metadata the experiments
// report.
type Loop struct {
	Name   string
	Mach   *machine.Desc
	Ops    []*Op
	Values []*Value

	// Deps holds every dependence arc, including the flow arcs derived
	// from operands by Finalize.
	Deps []Dep

	// extraDeps holds the arcs registered before Finalize (memory and
	// ordering arcs); kept so Finalize is idempotent.
	extraDeps []Dep

	// NumBB is the number of basic blocks the loop body had before
	// if-conversion (a Table 2 metric; 1 for straight-line bodies).
	NumBB int

	// TripCount is the known iteration count, or 0 if unknown at compile
	// time. The paper's compiler declines to pipeline loops with fewer
	// than 5 iterations.
	TripCount int

	// HasConditional records that the source body contained an IF
	// (Tables 3 and 4 classify loops by this and by HasRecurrence).
	HasConditional bool

	finalized bool
	gprCount  int // memoized by Finalize; see GPRCount

	// NewValue and NewOp cut values, ops and single-def lists from
	// these chunks; a chunk is never reallocated, so the pointers
	// handed out stay valid.
	valueSlab []Value
	opSlab    []Op
	defSlab   []OpID
}

// NewLoop returns an empty loop body for the given machine.
func NewLoop(name string, m *machine.Desc) *Loop {
	return &Loop{Name: name, Mach: m, NumBB: 1}
}

// Grow reserves room for at least values more values and ops more
// ops, so a loop whose size is known up front allocates them in one
// chunk each.
func (l *Loop) Grow(values, ops int) {
	l.Values = slices.Grow(l.Values, values)
	l.Ops = slices.Grow(l.Ops, ops)
	if cap(l.valueSlab)-len(l.valueSlab) < values {
		l.valueSlab = make([]Value, 0, values)
	}
	if cap(l.opSlab)-len(l.opSlab) < ops {
		l.opSlab = make([]Op, 0, ops)
	}
	if cap(l.defSlab)-len(l.defSlab) < ops {
		l.defSlab = make([]OpID, 0, ops)
	}
}

// grow extends the chunk *s by one zeroed element and returns it. A
// full chunk is replaced by a new one a quarter the size of the loop so
// far (at least four): the elements handed out never move, a loop that
// outgrows its Grow estimate keeps little slack, and one built without
// an estimate still allocates geometrically. Callers set fields one by
// one: copying a whole struct in would cost a bulk write barrier while
// the collector runs.
func grow[T any](s *[]T, size int) *T {
	if len(*s) == cap(*s) {
		*s = make([]T, 0, max(4, size/4))
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// NewValue appends a value and returns it.
func (l *Loop) NewValue(name string, file RegFile, typ Type) *Value {
	v := grow(&l.valueSlab, len(l.Values))
	v.ID, v.Name, v.File, v.Type = ValueID(len(l.Values)), name, file, typ
	l.Values = append(l.Values, v)
	return v
}

// Const returns a fresh def-less GPR value holding a literal.
func (l *Loop) Const(name string, typ Type, s Scalar) *Value {
	v := l.NewValue(name, GPR, typ)
	v.Const = s
	v.ConstValid = true
	return v
}

// NewOp appends an operation defining result (which may be None) and
// returns it. Flow dependence arcs are derived later, by Finalize.
func (l *Loop) NewOp(code machine.Opcode, args []Operand, result ValueID) *Op {
	op := grow(&l.opSlab, len(l.Ops))
	op.ID, op.Opcode, op.Args, op.Result = OpID(len(l.Ops)), code, args, result
	l.Ops = append(l.Ops, op)
	if result != None {
		v := l.Values[result]
		if v.Defs == nil {
			// Most values have one def: cut it from the def chunk,
			// capped so a second def copies instead of overwriting.
			*grow(&l.defSlab, len(l.Ops)) = op.ID
			n := len(l.defSlab)
			v.Defs = l.defSlab[n-1 : n : n]
		} else {
			v.Defs = append(v.Defs, op.ID)
		}
	}
	return op
}

// AddDep registers a non-flow dependence arc (memory or ordering).
func (l *Loop) AddDep(d Dep) {
	if d.Kind == DepFlow {
		panic("ir: flow deps are derived from operands; do not add them")
	}
	d.Val = None
	l.extraDeps = append(l.extraDeps, d)
	l.finalized = false
}

// Op returns the operation with the given id.
func (l *Loop) Op(id OpID) *Op { return l.Ops[id] }

// Value returns the value with the given id.
func (l *Loop) Value(id ValueID) *Value { return l.Values[id] }

// Reads returns every operand read by op, including its predicate guard.
// A guarded op's operands are copied into a new slice.
func (op *Op) Reads() []Operand {
	if op.Pred == nil {
		return op.Args
	}
	r := make([]Operand, 0, len(op.Args)+1)
	r = append(r, op.Args...)
	return append(r, *op.Pred)
}

// Finalize derives flow dependence arcs from operands, assigns functional
// -unit instances round-robin within each class, marks recurrence
// membership, and validates the loop. It must be called (and succeed)
// before the loop is scheduled. Finalize is idempotent.
func (l *Loop) Finalize() error {
	if err := l.validate(); err != nil {
		return err
	}
	// Flow arcs: def → use with the def's latency and the operand's
	// omega, in op order, each op's arguments before its guard.
	n := len(l.extraDeps)
	for _, op := range l.Ops {
		for _, rd := range op.Args {
			n += len(l.Values[rd.Val].Defs)
		}
		if op.Pred != nil {
			n += len(l.Values[op.Pred.Val].Defs)
		}
	}
	l.Deps = slices.Grow(l.Deps[:0], n)
	for _, op := range l.Ops {
		for _, rd := range op.Args {
			l.addFlowArcs(op.ID, rd)
		}
		if op.Pred != nil {
			l.addFlowArcs(op.ID, *op.Pred)
		}
	}
	l.Deps = append(l.Deps, l.extraDeps...)

	l.assignFUs()
	l.markRecurrences()
	l.gprCount = l.computeGPRCount()
	l.finalized = true
	return nil
}

// addFlowArcs appends a flow arc from every def of rd's value to op.
func (l *Loop) addFlowArcs(op OpID, rd Operand) {
	v := l.Values[rd.Val]
	for _, def := range v.Defs {
		l.Deps = append(l.Deps, Dep{
			From: def, To: op,
			Latency: l.Mach.Latency(l.Ops[def].Opcode), Omega: rd.Omega,
			Kind: DepFlow, Val: v.ID,
		})
	}
}

// MustFinalize is Finalize for construction sites where an error is a
// programming bug (tests, the synthetic generator).
func (l *Loop) MustFinalize() {
	if err := l.Finalize(); err != nil {
		panic(err)
	}
}

// Finalized reports whether Finalize has run since the last mutation.
func (l *Loop) Finalized() bool { return l.finalized }

// assignFUs distributes ops round-robin over the instances of their unit
// class, mirroring the paper's pre-scheduling functional-unit assignment.
func (l *Loop) assignFUs() {
	var buf [16]int
	next := buf[:0]
	if nk := l.Mach.NumKinds(); nk <= len(buf) {
		next = buf[:nk]
	} else {
		next = make([]int, nk)
	}
	for _, op := range l.Ops {
		info := l.Mach.Info(op.Opcode)
		n := l.Mach.Count(info.Kind)
		op.FU = next[info.Kind] % n
		next[info.Kind]++
	}
}

// markRecurrences sets Op.OnRecurrence for every op lying on a
// non-trivial dependence circuit (a circuit through at least two ops).
// An op is on such a circuit exactly when, in the dependence graph minus
// self-arcs, some strongly connected component of size ≥ 2 contains it.
//
// The components come from an iterative Tarjan over a compressed
// adjacency (targets in Deps order, offsets per op); every array it
// needs is cut from one pooled scratch.
func (l *Loop) markRecurrences() {
	n := len(l.Ops)
	m := 0
	for _, d := range l.Deps {
		if d.From != d.To {
			m++
		}
	}
	sp := getScratch(7*n + 1 + m)
	defer putScratch(sp)
	buf := *sp
	cut := func(k int) []int32 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	off, adj := cut(n+1), cut(m)
	// index and low are Tarjan's DFS numbers, done marks ops whose
	// component is complete, stack is Tarjan's stack, and call/next the
	// DFS path with each op's next arc.
	index, low, done := cut(n), cut(n), cut(n)
	stack, call, next := cut(n), cut(n), cut(n)

	for _, d := range l.Deps {
		if d.From != d.To {
			off[d.From+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	copy(next, off[:n])
	for _, d := range l.Deps {
		if d.From != d.To {
			adj[next[d.From]] = int32(d.To)
			next[d.From]++
		}
	}

	const unvisited = -1
	for i := range index {
		index[i] = unvisited
	}
	var counter int32
	top := 0
	for root := int32(0); int(root) < n; root++ {
		if index[root] != unvisited {
			continue
		}
		depth := 0
		visit := func(v int32) {
			index[v], low[v] = counter, counter
			counter++
			stack[top] = v
			top++
			call[depth] = v
			depth++
			next[v] = off[v]
		}
		visit(root)
		for depth > 0 {
			v := call[depth-1]
			if next[v] < off[v+1] {
				w := adj[next[v]]
				next[v]++
				if index[w] == unvisited {
					visit(w)
				} else if done[w] == 0 && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			depth--
			if depth > 0 {
				if p := call[depth-1]; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				// v roots a component: the stack down to v.
				k := top - 1
				for stack[k] != v {
					k--
				}
				onRec := top-k >= 2
				for _, w := range stack[k:top] {
					done[w] = 1
					l.Ops[w].OnRecurrence = onRec
				}
				top = k
			}
		}
	}
}

// scratchPool recycles the zeroed int32 scratch of markRecurrences and
// computeGPRCount; slices past maxPooledScratch are left to the
// collector.
var scratchPool = sync.Pool{New: func() any { return new([]int32) }}

const maxPooledScratch = 1 << 16

// getScratch returns a pooled scratch of n zeroed entries.
func getScratch(n int) *[]int32 {
	sp := scratchPool.Get().(*[]int32)
	*sp = slices.Grow((*sp)[:0], n)[:n]
	clear(*sp)
	return sp
}

func putScratch(sp *[]int32) {
	if cap(*sp) <= maxPooledScratch {
		scratchPool.Put(sp)
	}
}

// validate checks structural invariants; scheduling code relies on them.
func (l *Loop) validate() error {
	if l.Mach == nil {
		return fmt.Errorf("loop %s: no machine description", l.Name)
	}
	if len(l.Ops) == 0 {
		return fmt.Errorf("loop %s: empty body", l.Name)
	}
	brtops := 0
	for i, op := range l.Ops {
		if op.ID != OpID(i) {
			return fmt.Errorf("loop %s: op %d has id %d", l.Name, i, op.ID)
		}
		if !l.Mach.Supports(op.Opcode) {
			return &machine.UnsupportedOpError{Machine: l.Mach.Name, Op: op.Opcode}
		}
		if op.Opcode == machine.BrTop {
			brtops++
		}
		for _, rd := range op.Args {
			if err := l.validateRead(op, rd); err != nil {
				return err
			}
		}
		if op.Pred != nil {
			if err := l.validateRead(op, *op.Pred); err != nil {
				return err
			}
		}
		if op.Pred != nil && l.Values[op.Pred.Val].Type != Pred {
			return fmt.Errorf("loop %s: op %v guarded by non-predicate %s", l.Name, op.ID, l.Values[op.Pred.Val].Name)
		}
		if op.Result != None {
			v := l.Values[op.Result]
			if v.File == GPR {
				return fmt.Errorf("loop %s: op %v writes loop-invariant file (value %s)", l.Name, op.ID, v.Name)
			}
			found := false
			for _, d := range v.Defs {
				if d == op.ID {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("loop %s: op %v not among defs of its result %s", l.Name, op.ID, v.Name)
			}
		}
	}
	if brtops > 1 {
		return fmt.Errorf("loop %s: %d brtop ops (at most one allowed)", l.Name, brtops)
	}
	for vi, v := range l.Values {
		if v.ID != ValueID(vi) {
			return fmt.Errorf("loop %s: value %d has id %d", l.Name, vi, v.ID)
		}
		if len(v.Defs) > 1 {
			// Multiple defs are legal only for predicated merges.
			for _, d := range v.Defs {
				if l.Ops[d].Pred == nil {
					return fmt.Errorf("loop %s: value %s has %d defs but def %v is unpredicated", l.Name, v.Name, len(v.Defs), d)
				}
			}
		}
	}
	for _, d := range l.extraDeps {
		if d.From < 0 || int(d.From) >= len(l.Ops) || d.To < 0 || int(d.To) >= len(l.Ops) {
			return fmt.Errorf("loop %s: dep arc references missing op", l.Name)
		}
		if d.Omega < 0 {
			return fmt.Errorf("loop %s: dep arc with negative omega", l.Name)
		}
	}
	return nil
}

// validateRead checks one operand op reads.
func (l *Loop) validateRead(op *Op, rd Operand) error {
	if rd.Val < 0 || int(rd.Val) >= len(l.Values) {
		return fmt.Errorf("loop %s: op %v reads undefined value %d", l.Name, op.ID, rd.Val)
	}
	if rd.Omega < 0 {
		return fmt.Errorf("loop %s: op %v has negative omega", l.Name, op.ID)
	}
	v := l.Values[rd.Val]
	if rd.Omega > 0 && v.File == GPR {
		return fmt.Errorf("loop %s: op %v reads invariant %s with omega %d", l.Name, op.ID, v.Name, rd.Omega)
	}
	if len(v.Defs) == 0 && v.File != GPR {
		return fmt.Errorf("loop %s: op %v reads %s-file value %s that is never defined in the loop (loop-variant live-ins are recurrence values with preheader instances)", l.Name, op.ID, v.File, v.Name)
	}
	return nil
}

// BrTop returns the loop-closing branch op, or nil if the body has none
// (synthetic scheduler-stress loops may omit it).
func (l *Loop) BrTop() *Op {
	for _, op := range l.Ops {
		if op.Opcode == machine.BrTop {
			return op
		}
	}
	return nil
}

// HasRecurrence reports whether any op lies on a non-trivial recurrence
// circuit. Valid after Finalize.
func (l *Loop) HasRecurrence() bool {
	for _, op := range l.Ops {
		if op.OnRecurrence {
			return true
		}
	}
	return false
}

// CountOps returns how many ops satisfy the predicate.
func (l *Loop) CountOps(pred func(*Op) bool) int {
	n := 0
	for _, op := range l.Ops {
		if pred(op) {
			n++
		}
	}
	return n
}

// GPRCount returns the number of loop-invariant registers the loop
// consumes: def-less GPR values actually read by some op (Figure 7).
// The count is memoized by Finalize, which every scheduled loop passes
// through, so the per-compile call is allocation-free.
func (l *Loop) GPRCount() int {
	if l.finalized {
		return l.gprCount
	}
	return l.computeGPRCount()
}

func (l *Loop) computeGPRCount() int {
	sp := getScratch(len(l.Values))
	defer putScratch(sp)
	used := *sp
	for _, op := range l.Ops {
		for _, rd := range op.Args {
			used[rd.Val] = 1
		}
		if op.Pred != nil {
			used[op.Pred.Val] = 1
		}
	}
	n := 0
	for i, v := range l.Values {
		if v.File == GPR && used[i] != 0 {
			n++
		}
	}
	return n
}

// String renders the loop body as readable pseudo-assembly.
func (l *Loop) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loop %s (%d ops, %d values, %d bbs)\n", l.Name, len(l.Ops), len(l.Values), l.NumBB)
	for _, op := range l.Ops {
		b.WriteString("  ")
		b.WriteString(l.FormatOp(op))
		b.WriteByte('\n')
	}
	// Deterministic order for extra arcs.
	extras := append([]Dep(nil), l.extraDeps...)
	sort.Slice(extras, func(i, j int) bool {
		if extras[i].From != extras[j].From {
			return extras[i].From < extras[j].From
		}
		return extras[i].To < extras[j].To
	})
	for _, d := range extras {
		fmt.Fprintf(&b, "  dep %v->%v lat=%d omega=%d (%v)\n", d.From, d.To, d.Latency, d.Omega, d.Kind)
	}
	return b.String()
}

// FormatOp renders one op.
func (l *Loop) FormatOp(op *Op) string {
	var b strings.Builder
	if op.Pred != nil {
		neg := ""
		if op.PredNeg {
			neg = "!"
		}
		fmt.Fprintf(&b, "(%s%s) ", neg, l.operandString(*op.Pred))
	}
	if op.Result != None {
		fmt.Fprintf(&b, "%s = ", l.Values[op.Result].Name)
	}
	fmt.Fprintf(&b, "%v", op.Opcode)
	for i, a := range op.Args {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(l.operandString(a))
	}
	fmt.Fprintf(&b, "   ; op%d %v.%d", int(op.ID), l.Mach.Info(op.Opcode).Kind, op.FU)
	return b.String()
}

func (l *Loop) operandString(o Operand) string {
	v := l.Values[o.Val]
	if o.Omega == 0 {
		return v.Name
	}
	return fmt.Sprintf("%s[-%d]", v.Name, o.Omega)
}
