// Package machine describes the target processor: a hypothetical VLIW
// similar to Cydrome's Cydra 5, as specified in Section 2 and Table 1 of
// Huff, "Lifetime-Sensitive Modulo Scheduling" (PLDI 1993).
//
// The machine has six functional-unit classes. All units are fully
// pipelined except the divider, which is not pipelined at all: a divide,
// modulo, or square root reserves the divider for its full latency.
// Every operation carries a 1-bit predicate input; when the predicate is
// false the hardware treats the operation as a no-op (Section 2.2).
//
// The processor has three register files (Section 2.3): the RR file holds
// rotating addresses, ints, and floats (loop variants); the GPR file holds
// loop invariants; and the ICR file holds rotating 1-bit predicates used
// for iteration control and if-converted code. Register pressure studies
// in this repository, like the paper's, treat each file as unbounded.
package machine

import "fmt"

// FUKind identifies a functional-unit class.
type FUKind int

// Functional-unit classes of the target machine (Table 1).
const (
	MemPort    FUKind = iota // 2 units: load (13), store (1)
	AddrALU                  // 2 units: address add/sub/mult (1)
	Adder                    // 1 unit: int add/sub/logical, float add/sub (1)
	Multiplier               // 1 unit: int/float multiply (2)
	Divider                  // 1 unit, NOT pipelined: div/mod (17), sqrt (21)
	Branch                   // 1 unit: brtop (2)
)

var fuKindNames = [...]string{
	MemPort:    "MemPort",
	AddrALU:    "AddrALU",
	Adder:      "Adder",
	Multiplier: "Multiplier",
	Divider:    "Divider",
	Branch:     "Branch",
}

// String returns the conventional name of the unit class.
func (k FUKind) String() string {
	if k < 0 || int(k) >= len(fuKindNames) {
		return fmt.Sprintf("FUKind(%d)", int(k))
	}
	return fuKindNames[k]
}

// Opcode identifies an operation of the target instruction set.
type Opcode int

// The instruction set. The selection covers everything the mini-FORTRAN
// frontend and the synthetic loop generator emit. Address arithmetic
// (AAdd..AMul) executes on the Address ALUs; integer and floating add,
// subtract, logical and compare operations execute on the Adder;
// multiplies on the Multiplier; divide/modulo/sqrt on the non-pipelined
// Divider; loads and stores on the Memory Ports; and BrTop on the Branch
// unit.
const (
	Nop Opcode = iota

	// Memory port.
	Load  // Args: [addr] -> Result (latency 13: bypasses L1, hits off-chip L2)
	Store // Args: [addr, data] -> no result

	// Address ALU.
	AAdd // Args: [a, b] -> a+b (addresses/induction arithmetic)
	ASub // Args: [a, b] -> a-b
	AMul // Args: [a, b] -> a*b

	// Adder: integer.
	IAdd
	ISub
	IAnd
	IOr
	IXor
	ICmpEQ // -> ICR predicate
	ICmpNE
	ICmpLT
	ICmpLE
	ICmpGT
	ICmpGE

	// Adder: floating point.
	FAdd
	FSub
	FNeg
	FAbs
	FMax
	FMin
	FCmpEQ // -> ICR predicate
	FCmpNE
	FCmpLT
	FCmpLE
	FCmpGT
	FCmpGE

	// Adder: predicate manipulation and copies.
	PNot  // Args: [p] -> !p (complement predicate for if-conversion)
	PAnd  // Args: [p, q] -> p&&q (nested if-conversion)
	POr   // Args: [p, q] -> p||q (compound conditions)
	Copy  // Args: [a] -> a (predicated copy; merges after if-conversion)
	FCopy // Args: [a] -> a (float copy)
	IToF  // Args: [i] -> float(i) (REAL(i) intrinsic)
	FToI  // Args: [f] -> int(f), truncating (INT(x) intrinsic)

	// Multiplier.
	IMul
	FMul

	// Divider (not pipelined).
	IDiv
	IMod
	FDiv
	FSqrt

	// Branch unit.
	BrTop // loop-closing branch: decrements ICP, writes stage predicate

	numOpcodes
)

// NumOpcodes is the number of opcodes, for table sizing.
const NumOpcodes = int(numOpcodes)

var opcodeNames = [...]string{
	Nop: "nop", Load: "load", Store: "store",
	AAdd: "aadd", ASub: "asub", AMul: "amul",
	IAdd: "iadd", ISub: "isub", IAnd: "iand", IOr: "ior", IXor: "ixor",
	ICmpEQ: "icmpeq", ICmpNE: "icmpne", ICmpLT: "icmplt",
	ICmpLE: "icmple", ICmpGT: "icmpgt", ICmpGE: "icmpge",
	FAdd: "fadd", FSub: "fsub", FNeg: "fneg", FAbs: "fabs",
	FMax: "fmax", FMin: "fmin",
	FCmpEQ: "fcmpeq", FCmpNE: "fcmpne", FCmpLT: "fcmplt",
	FCmpLE: "fcmple", FCmpGT: "fcmpgt", FCmpGE: "fcmpge",
	PNot: "pnot", PAnd: "pand", POr: "por", Copy: "copy", FCopy: "fcopy",
	IToF: "itof", FToI: "ftoi",
	IMul: "imul", FMul: "fmul",
	IDiv: "idiv", IMod: "imod", FDiv: "fdiv", FSqrt: "fsqrt",
	BrTop: "brtop",
}

// String returns the assembler mnemonic of the opcode.
func (o Opcode) String() string {
	if o < 0 || int(o) >= len(opcodeNames) || opcodeNames[o] == "" {
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
	return opcodeNames[o]
}

// OpcodeByName resolves an assembler mnemonic to its opcode.
func OpcodeByName(s string) (Opcode, bool) {
	o, ok := opcodeByName[s]
	return o, ok
}

// opcodeByName maps assembler mnemonics back to opcodes.
var opcodeByName = func() map[string]Opcode {
	m := make(map[string]Opcode, NumOpcodes)
	for o := Opcode(1); int(o) < NumOpcodes; o++ {
		m[o.String()] = o
	}
	return m
}()

// OpInfo describes how an opcode uses the machine.
type OpInfo struct {
	Kind    FUKind // functional-unit class that executes the op
	Latency int    // cycles from issue until the result may be read
	Busy    int    // cycles the unit is reserved from issue (== Latency for the divider)
}

// Desc is a complete machine description: the functional-unit classes
// (with instance counts and pipelining), and how each opcode uses them.
// A Desc is immutable after construction and sized by its description —
// a target may declare any number of unit classes, not just the paper's
// six — so all packages share pointers to it and size their scratch by
// NumKinds. Descs come from two builders: Spec.Build compiles a
// declarative document (the normal path; see spec.go), and New bakes
// the paper's Table 1 directly (the hard-coded reference the
// differential tests pin spec-built variants against).
type Desc struct {
	Name  string
	units []UnitSpec // per-class metadata, indexed by FUKind
	info  []OpInfo   // indexed by Opcode; Busy == 0 means unimplemented
	spec  *Spec      // declarative source, nil for New-built descs
}

// NumKinds returns the number of functional-unit classes this machine
// declares. FUKind values 0..NumKinds()-1 index them.
func (d *Desc) NumKinds() int { return len(d.units) }

// Count returns the number of functional units of class k (0 for a
// class the machine does not declare).
func (d *Desc) Count(k FUKind) int {
	if k < 0 || int(k) >= len(d.units) {
		return 0
	}
	return d.units[k].Count
}

// KindName returns the machine's name for unit class k.
func (d *Desc) KindName(k FUKind) string {
	if k < 0 || int(k) >= len(d.units) {
		return k.String()
	}
	return d.units[k].Name
}

// NotPipelined reports whether class k's units are reserved for an
// op's full busy span and its ops treated as scarce: schedulers damp
// the slack of such ops (Section 4.3), because a non-pipelined
// reservation pattern leaves them very few issue slots.
func (d *Desc) NotPipelined(k FUKind) bool {
	if k < 0 || int(k) >= len(d.units) {
		return false
	}
	return d.units[k].NotPipelined
}

// Units returns a copy of the per-class metadata in FUKind order.
func (d *Desc) Units() []UnitSpec { return append([]UnitSpec(nil), d.units...) }

// Spec returns a copy of the declarative description this desc was
// built from, or nil for a hard-coded (New-built) desc. The copy keeps
// the published desc immutable no matter what the caller does with it.
func (d *Desc) Spec() *Spec { return d.spec.Clone() }

// Lookup returns the execution profile of opcode o, reporting false
// for an opcode this machine does not implement. It is the
// non-panicking boundary check: wire decoding and loop validation call
// it so a request whose ops the target cannot execute fails cleanly
// instead of panicking mid-schedule.
func (d *Desc) Lookup(o Opcode) (OpInfo, bool) {
	if o <= Nop || int(o) >= len(d.info) {
		return OpInfo{}, false
	}
	in := d.info[o]
	if in.Busy == 0 {
		return OpInfo{}, false
	}
	return in, true
}

// Supports reports whether the machine implements opcode o.
func (d *Desc) Supports(o Opcode) bool {
	_, ok := d.Lookup(o)
	return ok
}

// Info returns the execution profile of opcode o.
// It panics on an opcode the machine does not implement: loops are
// validated against their machine before scheduling (ir.Loop.Finalize,
// the wire decode boundary), so an unsupported op reaching a scheduler
// indicates a compiler bug.
func (d *Desc) Info(o Opcode) OpInfo {
	in, ok := d.Lookup(o)
	if !ok {
		panic(fmt.Sprintf("machine: %s has no execution profile for %v", d.Name, o))
	}
	return in
}

// Latency is shorthand for Info(o).Latency.
func (d *Desc) Latency(o Opcode) int { return d.Info(o).Latency }

// UnsupportedOpError reports an operation a machine cannot execute —
// the typed verdict the wire decode boundary and ir.Loop.Finalize
// return so servers can map "this target cannot run these ops" to a
// client error (422) rather than an internal failure.
type UnsupportedOpError struct {
	Machine string
	Op      Opcode
}

func (e *UnsupportedOpError) Error() string {
	return fmt.Sprintf("machine: %s does not implement %v", e.Machine, e.Op)
}

// Latencies describes the adjustable latencies of a machine variant.
// Section 8 of the paper reports that experiments with different
// functional-unit latencies gave very similar results; the benchmark
// harness reproduces that robustness claim with these knobs.
type Latencies struct {
	Load, Store      int
	Addr             int
	Add              int // int/float add, sub, logical, compare, copy
	Mul              int
	Div              int // divider reservation == latency (not pipelined)
	Sqrt             int
	BrTop            int
	PipelinedDivider bool // if true, divider reserves 1 cycle (ablation)
}

// CydraLatencies returns the latency set of Table 1.
func CydraLatencies() Latencies {
	return Latencies{Load: 13, Store: 1, Addr: 1, Add: 1, Mul: 2, Div: 17, Sqrt: 21, BrTop: 2}
}

// cydraUnits returns the paper's unit mix (Table 1) as per-class
// metadata: the divider is the one non-pipelined, scarce class.
func cydraUnits() []UnitSpec {
	return []UnitSpec{
		MemPort:    {Name: "MemPort", Count: 2},
		AddrALU:    {Name: "AddrALU", Count: 2},
		Adder:      {Name: "Adder", Count: 1},
		Multiplier: {Name: "Multiplier", Count: 1},
		Divider:    {Name: "Divider", Count: 1, NotPipelined: true},
		Branch:     {Name: "Branch", Count: 1},
	}
}

// New builds a machine description with the paper's unit mix (Table 1)
// and the given latencies, directly — without going through a Spec.
// It is the hard-coded reference implementation: the differential
// tests pin the spec-built paper variants bit-identically against it.
func New(name string, lat Latencies) *Desc {
	d := &Desc{Name: name, units: cydraUnits(), info: make([]OpInfo, NumOpcodes)}
	set := func(o Opcode, k FUKind, latency, busy int) {
		if latency < 1 || busy < 1 {
			panic(fmt.Sprintf("machine: bad latency for %v", o))
		}
		d.info[o] = OpInfo{Kind: k, Latency: latency, Busy: busy}
	}
	set(Load, MemPort, lat.Load, 1)
	set(Store, MemPort, lat.Store, 1)
	for _, o := range []Opcode{AAdd, ASub, AMul} {
		set(o, AddrALU, lat.Addr, 1)
	}
	adder := []Opcode{
		IAdd, ISub, IAnd, IOr, IXor,
		ICmpEQ, ICmpNE, ICmpLT, ICmpLE, ICmpGT, ICmpGE,
		FAdd, FSub, FNeg, FAbs, FMax, FMin,
		FCmpEQ, FCmpNE, FCmpLT, FCmpLE, FCmpGT, FCmpGE,
		PNot, PAnd, POr, Copy, FCopy, IToF, FToI,
	}
	for _, o := range adder {
		set(o, Adder, lat.Add, 1)
	}
	set(IMul, Multiplier, lat.Mul, 1)
	set(FMul, Multiplier, lat.Mul, 1)
	divBusy := func(latency int) int {
		if lat.PipelinedDivider {
			return 1
		}
		return latency
	}
	set(IDiv, Divider, lat.Div, divBusy(lat.Div))
	set(IMod, Divider, lat.Div, divBusy(lat.Div))
	set(FDiv, Divider, lat.Div, divBusy(lat.Div))
	set(FSqrt, Divider, lat.Sqrt, divBusy(lat.Sqrt))
	set(BrTop, Branch, lat.BrTop, 1)
	return d
}

// Cydra returns the paper's target machine: the unit mix and latencies
// of Table 1 with a non-pipelined divider. Since the declarative
// refactor it is the registered, spec-built instance (bit-identical to
// New("cydra", CydraLatencies()); the differential test pins this).
func Cydra() *Desc { return mustLookup(PaperMachine) }
