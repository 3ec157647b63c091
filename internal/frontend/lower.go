package frontend

import (
	"cmp"
	"slices"
	"strconv"
	"sync"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mii"
)

// Recipe records how to reconstruct the preheader instance of a
// loop-carried value at a negative iteration, so runnable environments
// can be built for any binding (BuildEnv).
type Recipe struct {
	Val  ir.ValueID
	Kind RecipeKind
	// Affine/MemLoad: instance(iter) relates to address
	// base(Array) + lo + C − 1 + iter·step (1-based arrays, unit
	// elements). Affine yields the address itself; MemLoad yields the
	// initial memory contents at that address.
	Array string
	C     int64
	// Scalar: the instance is the variable's value before the loop.
	Scalar string
	// Index: instance(iter) = lo + iter·step (the DO variable itself).
}

// RecipeKind discriminates Recipe.
type RecipeKind int

const (
	RecipeAffine  RecipeKind = iota // address recurrences (pointers)
	RecipeMemLoad                   // values forwarded out of memory by LSE
	RecipeScalar                    // scalar recurrences
	RecipeIndex                     // the DO variable
)

// MaxForwardOmega caps load/store elimination distance: forwarding
// across many iterations trades one memory port for ⌈ω·II⌉-cycle
// lifetimes, and the preheader must materialize ω initial instances.
const MaxForwardOmega = 6

// MaxMemArcs bounds the memory-ordering arcs a loop may need. The
// dependence pass adds up to two arcs for every pair of same-array
// accesses that includes a store, so the count grows with the square
// of the stores; the loopgen corpus needs at most 10.
const MaxMemArcs = 1 << 14

// CompiledLoop is one innermost DO loop lowered to schedulable IR.
type CompiledLoop struct {
	Loop *ir.Loop
	Do   *DoStmt
	Unit *Unit

	// Ineligible explains why the loop was not lowered (the paper's
	// Section 6 criteria); Loop is nil in that case.
	Ineligible error

	// Trips is the compile-time trip count, or 0 if unknown.
	Trips int

	// The maps below are nil when empty.

	// Scalars maps invariant scalar names to their GPR live-in values.
	Scalars map[string]ir.ValueID
	// ArrayBases maps array names to GPR base-address values (only for
	// arrays accessed through non-affine subscripts).
	ArrayBases map[string]ir.ValueID
	// ConstAddrs maps (array, subscript) GPR address live-ins for
	// loop-invariant element accesses.
	ConstAddrs map[ConstAddrKey]ir.ValueID
	// Recipes reconstruct preheader instances of loop-carried values.
	Recipes []Recipe
	// FinalScalar maps each loop-assigned scalar to the value holding
	// its end-of-iteration version (live-out).
	FinalScalar map[string]ir.ValueID
}

// ConstAddrKey identifies an invariant array element.
type ConstAddrKey struct {
	Array string
	Index int64
}

// Compile parses, analyzes, and lowers every innermost DO loop of the
// source, returning one CompiledLoop per loop (eligible or not) in
// source order.
func Compile(src string, m *machine.Desc) (*Unit, []*CompiledLoop, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	u, err := Analyze(prog)
	if err != nil {
		return nil, nil, err
	}
	dos := u.InnermostLoops()
	out := make([]*CompiledLoop, len(dos))
	for i, do := range dos {
		out[i] = Lower(u, do, m)
	}
	return u, out, nil
}

// CompileIndex compiles src as Compile does but lowers only its
// index-th innermost loop. It returns that loop and the number of
// innermost loops; the loop is nil when index is out of range. The AST
// and the unit are recycled once the loop is lowered, so the loop
// carries only Loop, Ineligible and Trips (BuildEnv needs Compile).
func CompileIndex(src string, index int, m *machine.Desc) (*CompiledLoop, int, error) {
	mem := unitMems.Get().(*unitMem)
	defer mem.release(len(src))
	prog, err := mem.p.parse(src, &mem.prog)
	if err != nil {
		return nil, 0, err
	}
	u, err := mem.a.analyze(prog, &mem.unit)
	if err != nil {
		return nil, 0, err
	}
	mem.dos = appendInnermost(mem.dos[:0], prog.Body)
	if index < 0 || index >= len(mem.dos) {
		return nil, len(mem.dos), nil
	}
	return lower(u, mem.dos[index], m, false), len(mem.dos), nil
}

// unitMem is the memory CompileIndex parses and analyzes into: the
// parser's and the analyzer's slabs, the program and the unit.
type unitMem struct {
	p    parser
	a    analyzer
	prog Program
	unit Unit
	dos  []*DoStmt
}

// unitMems recycles CompileIndex's memory; the memory of a source
// longer than maxPooledSource is left to the collector.
var unitMems = sync.Pool{New: func() any { return new(unitMem) }}

const maxPooledSource = 1 << 16

// release empties mem, whose AST and unit must be dead, and pools it.
func (mem *unitMem) release(srcLen int) {
	if srcLen > maxPooledSource {
		return
	}
	mem.p.reset()
	mem.a.reset()
	clear(mem.dos)
	mem.dos = mem.dos[:0]
	syms := mem.unit.Syms
	clear(syms)
	mem.unit = Unit{Syms: syms}
	mem.prog = Program{}
	unitMems.Put(mem)
}

// Lower lowers one innermost DO loop. Ineligible loops get a nil Loop
// and a reason.
func Lower(u *Unit, do *DoStmt, m *machine.Desc) *CompiledLoop {
	return lower(u, do, m, true)
}

// lower lowers one loop; env fills the CompiledLoop's AST fields,
// recipes and live-in maps, which only BuildEnv reads.
func lower(u *Unit, do *DoStmt, m *machine.Desc, env bool) *CompiledLoop {
	cl := new(CompiledLoop)
	lo := lowerers.Get().(*lowerer)
	lo.reset(u, do, cl, m)
	err := lo.run()
	if env {
		lo.export()
	}
	lo.release()
	if err != nil {
		cl.Ineligible = err
		cl.Loop = nil
	}
	return cl
}

// lowerers recycles lowering state: the per-symbol and per-element
// tables and the access lists, which nothing lowered refers to.
var lowerers = sync.Pool{New: func() any { return new(lowerer) }}

// maxPooledLowerer bounds the symbols and the accesses of a lowerer
// worth recycling.
const maxPooledLowerer = 1 << 10

// reset readies a lowerer for one loop: it keeps only the reusable
// tables, emptied, so every other field starts from its zero value.
func (lo *lowerer) reset(u *Unit, do *DoStmt, cl *CompiledLoop, m *machine.Desc) {
	*lo = lowerer{
		u: u, do: do, cl: cl, m: m,
		syms:         slices.Grow(lo.syms[:0], len(u.Syms))[:len(u.Syms)],
		carried:      lo.carried[:0],
		forwarded:    lo.forwarded[:0],
		carriedOwner: lo.carriedOwner[:0],
		fwdOwner:     lo.fwdOwner[:0],
		constCache:   lo.constCache,
		elems:        lo.elems,
		elemSlab:     lo.elemSlab,
		accs:         lo.accs[:0],
		emitted:      lo.emitted[:0],
		recipes:      lo.recipes[:0],
		scalars:      lo.scalars[:0],
		bases:        lo.bases[:0],
		finals:       lo.finals[:0],
		elemAddrs:    lo.elemAddrs[:0],
		ids:          lo.ids[:0],
	}
	clear(lo.syms)
	lo.elemSlab.reset()
	if lo.constCache == nil {
		lo.constCache = make(map[ir.Scalar]ir.ValueID, 8)
	}
	if lo.elems == nil {
		lo.elems = make(map[elemKey]*elemState, 16)
	}
	clear(lo.constCache)
	clear(lo.elems)
}

// release drops the lowerer's references to the loop and pools it,
// unless its tables grew too large to keep.
func (lo *lowerer) release() {
	if len(lo.syms) > maxPooledLowerer || len(lo.accs) > maxPooledLowerer {
		return
	}
	clear(lo.syms)
	clear(lo.recipes)
	clear(lo.scalars)
	clear(lo.bases)
	clear(lo.finals)
	clear(lo.elemAddrs)
	lo.u, lo.do, lo.cl, lo.m, lo.l, lo.opnds = nil, nil, nil, nil, nil, nil
	lowerers.Put(lo)
}

// lowerer holds per-loop lowering state.
type lowerer struct {
	u  *Unit
	do *DoStmt
	cl *CompiledLoop
	m  *machine.Desc
	l  *ir.Loop

	stepKnown bool
	step      int64
	loKnown   bool
	loVal     int64

	// g is the predicate context ops are emitted under.
	g guard

	// syms is the per-symbol state, indexed by Symbol.id. carried and
	// forwarded list the symbols that got a carried placeholder and a
	// store-forward placeholder, in creation order, which is the order
	// they are patched in; carriedOwner maps a value ID to its index in
	// carried, or -1, while carried placeholders are resolved.
	syms         []symState
	carried      []int
	forwarded    []int
	carriedOwner []int
	fwdOwner     []int

	// Index variable (materialized lazily).
	indexVal ir.ValueID

	// Literal/const caches.
	constCache map[ir.Scalar]ir.ValueID

	// elems is the per-element state, by subscript form.
	elems    map[elemKey]*elemState
	elemSlab slab[elemState]

	// accs is planAccesses' census; nodes counts the body's expression
	// nodes, to size the loop.
	accs  []plannedAccess
	nodes int
	// accesses emitted, for the dependence pass.
	emitted []emittedAccess
	// The loop's Recipes and its live-in and live-out values, which
	// export copies into the CompiledLoop.
	recipes   []Recipe
	scalars   []namedValue
	bases     []namedValue
	finals    []namedValue
	elemAddrs []elemAddr
	// ids is finalizeScalars' scratch.
	ids []int

	// opnds is the arena op operands and guards are cut from.
	opnds []ir.Operand

	numBB int
	numIf int
}

// guard is a predicate context: ok is false when unpredicated;
// otherwise ops execute when op's value differs from neg.
type guard struct {
	op      ir.Operand
	neg, ok bool
}

// symState is the lowerer's state for one symbol.
type symState struct {
	sym *Symbol
	// assigned marks a loop-assigned scalar (never the DO variable).
	assigned bool
	// cur is the scalar's current version this iteration, when hasCur.
	// A version is an operand (value + omega) because forwarded loads
	// hand out loop-carried reads directly.
	cur    ir.Operand
	hasCur bool
	// carried is the placeholder for the previous iteration's final
	// version; visiting guards resolveFinal against cycles.
	carried  ir.ValueID
	visiting bool
	// liveIn is an invariant scalar's GPR live-in, base an array's GPR
	// base address.
	liveIn, base ir.ValueID
	// Value names used more than once, built on first use.
	ldName, mergeName string
	// Store forwarding: forwardsStore marks an array one of whose loads
	// forwards from its single store; placeholder stands for the value
	// that store writes, patched to storeVal after lowering.
	forwardsStore bool
	placeholder   ir.ValueID
	storeVal      ir.Operand
	hasStoreVal   bool
	// accesses and stores count an array's emitted accesses, for
	// memArcBound.
	accesses, stores int
}

// elemKey names the elements one subscript form reaches: a(i + c) when
// hasI, the invariant element a(c) otherwise.
type elemKey struct {
	sym  int
	c    int64
	hasI bool
}

// elemState is the lowerer's state for one elemKey. Value IDs are
// None until made.
type elemState struct {
	pointer   ir.ValueID // affine address recurrence (hasI)
	constAddr ir.ValueID // GPR live-in address (!hasI)
	cse       ir.ValueID // unpredicated load this iteration
	leader    ir.ValueID // the load forwarded loads read (hasI)
	// A load forwarded from the array's single store reads its value
	// storeFwd iterations back; one forwarded from the leader load
	// a(i + loadFwdC) reads it loadFwdOmega iterations back.
	storeFwd, loadFwdOmega  int
	hasStoreFwd, hasLoadFwd bool
	loadFwdC                int64
}

type emittedAccess struct {
	op      ir.OpID
	isStore bool
	sym     int
	aff     affineSub
}

type affineSub struct {
	ok   bool  // subscript is i + C
	hasI bool  // references the loop variable
	c    int64 // constant offset
}

// plannedAccess is one array access of the body, for planAccesses.
type plannedAccess struct {
	sym     int
	aff     affineSub
	isStore bool
	pred    bool
	order   int
}

func (lo *lowerer) run() error {
	do, u := lo.do, lo.u
	// Eligibility: basic-block census before if-conversion (Section 6:
	// at most 30 basic blocks).
	lo.numBB = 1 + countBBs(do.Body)
	if lo.numBB > 30 {
		return errf(do.Pos(), "loop has %d basic blocks before if-conversion (limit 30)", lo.numBB)
	}
	if hasNestedDo(do.Body) {
		return errf(do.Pos(), "not an innermost loop")
	}

	lo.l = ir.NewLoop(intName(u.Prog.Name+":", int64(do.Pos())), lo.m)
	lo.l.NumBB = lo.numBB
	lo.indexVal = -1

	if c, ok := constInt(do.Lo); ok {
		lo.loKnown, lo.loVal = true, c
	}
	step := int64(1)
	stepKnown := true
	if do.Step != nil {
		step, stepKnown = constInt(do.Step)
	}
	lo.step, lo.stepKnown = step, stepKnown
	if stepKnown && step == 0 {
		return errf(do.Pos(), "zero DO step")
	}

	// Trip count when all bounds are literals (Section 6: loops with
	// fewer than 5 iterations are not worth pipelining).
	if hi, ok := constInt(do.Hi); ok && lo.loKnown && stepKnown {
		t := (hi-lo.loVal)/step + 1
		if t < 0 {
			t = 0
		}
		lo.cl.Trips = int(t)
		lo.l.TripCount = int(t)
		if t < 5 {
			return errf(do.Pos(), "trip count %d < 5: not worth pipelining", t)
		}
	}

	lo.markAssigned(do.Body)
	lo.state(u.Syms[do.Var]).assigned = false // the index is ours, not a scalar

	lo.planAccesses()
	// nodes/2 + 4 values and ops cover about half the loops of the
	// loopgen corpus; the rest overflow into a small second chunk. A
	// larger estimate would leave more slack in every loop kept.
	lo.l.Grow(lo.nodes/2+4, lo.nodes/2+4)
	// About as many operands as nodes, including guards.
	lo.opnds = make([]ir.Operand, 0, lo.nodes+16)
	lo.emitted = slices.Grow(lo.emitted, len(lo.accs))

	if err := lo.stmts(do.Body); err != nil {
		return err
	}
	if err := lo.patchCarried(); err != nil {
		return err
	}
	if err := lo.patchStoreForwards(); err != nil {
		return err
	}
	if n := lo.memArcBound(); n > MaxMemArcs {
		return errf(do.Pos(), "up to %d memory dependence arcs > %d: not worth pipelining", n, MaxMemArcs)
	}
	lo.memDeps()
	lo.l.NewOp(machine.BrTop, nil, ir.None)
	lo.l.HasConditional = lo.numIf > 0

	// Mark live-outs: every scalar the loop assigns survives it.
	for _, f := range lo.finals {
		lo.l.Value(f.val).LiveOut = true
	}

	if err := lo.l.Finalize(); err != nil {
		return err
	}
	if res := mii.ResMII(lo.l); res > 500 {
		return errf(do.Pos(), "ResMII %d > 500: not worth pipelining", res)
	}
	lo.cl.Loop = lo.l
	return nil
}

// namedValue is a scalar's or an array's value; elemAddr an invariant
// element's address.
type namedValue struct {
	name string
	val  ir.ValueID
}

type elemAddr struct {
	key ConstAddrKey
	val ir.ValueID
}

// export copies the loop's AST, recipes and live-in and live-out values
// into its CompiledLoop.
func (lo *lowerer) export() {
	cl := lo.cl
	cl.Do, cl.Unit = lo.do, lo.u
	cl.Recipes = slices.Clone(lo.recipes)
	cl.Scalars = valueMap(lo.scalars)
	cl.ArrayBases = valueMap(lo.bases)
	cl.FinalScalar = valueMap(lo.finals)
	if len(lo.elemAddrs) > 0 {
		cl.ConstAddrs = make(map[ConstAddrKey]ir.ValueID, len(lo.elemAddrs))
		for _, a := range lo.elemAddrs {
			cl.ConstAddrs[a.key] = a.val
		}
	}
}

// valueMap returns vals as a map, or nil when there are none.
func valueMap(vals []namedValue) map[string]ir.ValueID {
	if len(vals) == 0 {
		return nil
	}
	m := make(map[string]ir.ValueID, len(vals))
	for _, v := range vals {
		m[v.name] = v.val
	}
	return m
}

// intName is fmt.Sprintf("%s%d", prefix, v).
func intName(prefix string, v int64) string {
	var buf [64]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), v, 10))
}

func countBBs(stmts []Stmt) int {
	n := 0
	for _, s := range stmts {
		switch s := s.(type) {
		case *IfStmt:
			n += 2
			if len(s.Else) > 0 {
				n++
			}
			n += countBBs(s.Then) + countBBs(s.Else)
		case *DoStmt:
			n += 2 + countBBs(s.Body)
		}
	}
	return n
}

func hasNestedDo(stmts []Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *DoStmt:
			return true
		case *IfStmt:
			if hasNestedDo(s.Then) || hasNestedDo(s.Else) {
				return true
			}
		}
	}
	return false
}

// markAssigned marks every scalar the statements assign.
func (lo *lowerer) markAssigned(stmts []Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *AssignStmt:
			if v, ok := s.Lhs.(*VarRef); ok {
				lo.state(lo.u.Syms[v.Name]).assigned = true
			}
		case *IfStmt:
			lo.markAssigned(s.Then)
			lo.markAssigned(s.Else)
		}
	}
}

func constInt(e Expr) (int64, bool) {
	switch e := e.(type) {
	case *IntLit:
		return e.Val, true
	case *UnExpr:
		if e.Op == "-" {
			if v, ok := constInt(e.X); ok {
				return -v, true
			}
		}
	case *BinExpr:
		l, lok := constInt(e.L)
		r, rok := constInt(e.R)
		if lok && rok {
			switch e.Op {
			case "+":
				return l + r, true
			case "-":
				return l - r, true
			case "*":
				return l * r, true
			}
		}
	}
	return 0, false
}

// affineOf classifies a subscript as i + c when possible.
func (lo *lowerer) affineOf(e Expr) affineSub {
	h, c, ok := affineWalk(e, lo.do.Var)
	return affineSub{ok: ok, hasI: h, c: c}
}

// affineWalk reports whether e is i + c for the loop variable i (hasI)
// or the constant c, and c.
func affineWalk(e Expr, index string) (hasI bool, c int64, ok bool) {
	switch e := e.(type) {
	case *IntLit:
		return false, e.Val, true
	case *VarRef:
		if e.Name == index {
			return true, 0, true
		}
		return false, 0, false
	case *UnExpr:
		if e.Op == "-" {
			h, c, ok := affineWalk(e.X, index)
			if ok && !h {
				return false, -c, true
			}
		}
		return false, 0, false
	case *BinExpr:
		lh, lc, lok := affineWalk(e.L, index)
		rh, rc, rok := affineWalk(e.R, index)
		if !lok || !rok {
			return false, 0, false
		}
		switch e.Op {
		case "+":
			if lh && rh {
				return false, 0, false
			}
			return lh || rh, lc + rc, true
		case "-":
			if rh {
				return false, 0, false
			}
			return lh, lc - rc, true
		}
		return false, 0, false
	}
	return false, 0, false
}

// state returns sym's lowering state, initializing it on first use.
func (lo *lowerer) state(sym *Symbol) *symState {
	st := &lo.syms[sym.id]
	if st.sym == nil {
		// reset zeroed the entry.
		st.sym = sym
		st.carried, st.liveIn, st.base, st.placeholder = ir.None, ir.None, ir.None, ir.None
	}
	return st
}

// elem returns key's state, creating it.
func (lo *lowerer) elem(key elemKey) *elemState {
	e := lo.elems[key]
	if e == nil {
		e = lo.elemSlab.new()
		*e = elemState{pointer: ir.None, constAddr: ir.None, cse: ir.None, leader: ir.None}
		lo.elems[key] = e
	}
	return e
}

// planAccesses walks the body once, classifying array accesses and
// deciding forwarding (Section 2.3's register forwarding of
// cross-iteration array flow).
func (lo *lowerer) planAccesses() {
	lo.accessStmts(lo.do.Body, false)
	lo.elemSlab.buf = slices.Grow(lo.elemSlab.buf, len(lo.accs))
	if !lo.stepKnown {
		return
	}
	// Group by array; the sort is stable, so each array's accesses stay
	// in program order.
	slices.SortStableFunc(lo.accs, func(a, b plannedAccess) int { return cmp.Compare(a.sym, b.sym) })
	for start := 0; start < len(lo.accs); {
		end := start + 1
		for end < len(lo.accs) && lo.accs[end].sym == lo.accs[start].sym {
			end++
		}
		lo.planArray(lo.accs[start:end])
		start = end
	}
}

// planArray decides forwarding for one array's accesses.
func (lo *lowerer) planArray(accs []plannedAccess) {
	allAffineI := true
	nstores := 0
	var store plannedAccess
	for _, a := range accs {
		if !a.aff.ok || !a.aff.hasI {
			allAffineI = false
		}
		if a.isStore {
			if nstores == 0 {
				store = a
			}
			nstores++
		}
	}
	if !allAffineI {
		return
	}
	sym := accs[0].sym
	switch {
	case nstores == 1 && !store.pred:
		sc := store.aff.c
		for _, a := range accs {
			if a.isStore {
				continue
			}
			d := sc - a.aff.c
			if d == 0 {
				// Same-iteration forward: legal only when every load
				// of this element follows the store (the plan key is
				// per-(array, offset), so one pre-store load, which
				// must read original memory, disables it).
				allAfter := true
				for _, b := range accs {
					if !b.isStore && b.aff.c == a.aff.c && b.order < store.order {
						allAfter = false
					}
				}
				if allAfter {
					lo.planStoreForward(sym, a.aff.c, 0)
				}
				continue
			}
			if d > 0 && d%lo.step == 0 {
				w := d / lo.step
				if w >= 1 && w <= MaxForwardOmega {
					lo.planStoreForward(sym, a.aff.c, int(w))
				}
			}
		}
	case nstores == 0:
		// Forward every load from the one reading farthest ahead.
		leader := accs[0].aff.c
		for _, a := range accs {
			if sign(lo.step)*(a.aff.c-leader) > 0 {
				leader = a.aff.c
			}
		}
		for _, a := range accs {
			d := leader - a.aff.c
			if d != 0 && d%lo.step == 0 {
				w := d / lo.step
				if w >= 1 && w <= MaxForwardOmega {
					e := lo.elem(elemKey{sym, a.aff.c, true})
					e.hasLoadFwd, e.loadFwdC, e.loadFwdOmega = true, leader, int(w)
				}
			}
		}
	}
}

// planStoreForward forwards loads of a(i + c) from the array's store, w
// iterations back.
func (lo *lowerer) planStoreForward(sym int, c int64, w int) {
	e := lo.elem(elemKey{sym, c, true})
	e.hasStoreFwd, e.storeFwd = true, w
	lo.syms[sym].forwardsStore = true
}

// accessStmts and accessExpr record the body's array accesses in
// program order, and count its expression nodes.
func (lo *lowerer) accessStmts(stmts []Stmt, pred bool) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *AssignStmt:
			lo.accessExpr(s.Rhs, pred)
			if ar, ok := s.Lhs.(*ArrayRef); ok {
				lo.access(ar, true, pred)
				lo.accessExpr(ar.Index, pred)
			}
		case *IfStmt:
			lo.accessExpr(s.Cond, pred)
			lo.accessStmts(s.Then, true)
			lo.accessStmts(s.Else, true)
		}
	}
}

func (lo *lowerer) accessExpr(e Expr, pred bool) {
	lo.nodes++
	switch e := e.(type) {
	case *ArrayRef:
		lo.access(e, false, pred)
		lo.accessExpr(e.Index, pred)
	case *BinExpr:
		lo.accessExpr(e.L, pred)
		lo.accessExpr(e.R, pred)
	case *UnExpr:
		lo.accessExpr(e.X, pred)
	case *CallExpr:
		for _, a := range e.Args {
			lo.accessExpr(a, pred)
		}
	}
}

func (lo *lowerer) access(ar *ArrayRef, isStore, pred bool) {
	lo.accs = append(lo.accs, plannedAccess{
		sym: lo.state(lo.u.Syms[ar.Name]).sym.id, aff: lo.affineOf(ar.Index),
		isStore: isStore, pred: pred, order: len(lo.accs) + 1,
	})
}

func sign(x int64) int64 {
	if x < 0 {
		return -1
	}
	return 1
}
