package frontend

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/machine"
)

// operands copies args into the operand arena and returns the copy,
// capped so that appending to it cannot overwrite a neighbour.
func (lo *lowerer) operands(args ...ir.Operand) []ir.Operand {
	if len(args) == 0 {
		return nil
	}
	if cap(lo.opnds)-len(lo.opnds) < len(args) {
		lo.opnds = make([]ir.Operand, 0, max(64, len(args), 2*cap(lo.opnds)))
	}
	n := len(lo.opnds)
	lo.opnds = append(lo.opnds, args...)
	return lo.opnds[n:len(lo.opnds):len(lo.opnds)]
}

// guardOp guards op by g: a copy of g's predicate operand, since the
// patch passes rewrite each op's guard in place.
func (lo *lowerer) guardOp(op *ir.Op, g guard) {
	if g.ok {
		op.Pred = &lo.operands(g.op)[0]
		op.PredNeg = g.neg
	}
}

// emit appends an op guarded by the current predicate and returns its
// result value id (ir.None for stores).
func (lo *lowerer) emit(code machine.Opcode, args []ir.Operand, name string, file ir.RegFile, typ ir.Type) ir.ValueID {
	var result ir.ValueID = ir.None
	if code != machine.Store {
		result = lo.l.NewValue(name, file, typ).ID
	}
	lo.guardOp(lo.l.NewOp(code, lo.operands(args...), result), lo.g)
	return result
}

// emitUnpred appends an op with no guard regardless of context
// (speculative pure ops, condition cones, leader loads).
func (lo *lowerer) emitUnpred(code machine.Opcode, args []ir.Operand, name string, file ir.RegFile, typ ir.Type) ir.ValueID {
	saved := lo.g
	lo.g = guard{}
	v := lo.emit(code, args, name, file, typ)
	lo.g = saved
	return v
}

// constVal interns a literal as a def-less GPR constant.
func (lo *lowerer) constVal(s ir.Scalar, typ ir.Type, name string) ir.Operand {
	if v, ok := lo.constCache[s]; ok {
		return ir.Operand{Val: v}
	}
	v := lo.l.Const(name, typ, s)
	lo.constCache[s] = v.ID
	return ir.Operand{Val: v.ID}
}

// intConst and realConst intern an integer or real literal, named c
// followed by its value as %d or %g formats it; the name is built only
// for a new constant.
func (lo *lowerer) intConst(v int64) ir.Operand {
	if c, ok := lo.constCache[ir.IntS(v)]; ok {
		return ir.Operand{Val: c}
	}
	return lo.constVal(ir.IntS(v), ir.Int, intName("c", v))
}

func (lo *lowerer) realConst(v float64) ir.Operand {
	if c, ok := lo.constCache[ir.FloatS(v)]; ok {
		return ir.Operand{Val: c}
	}
	return lo.constVal(ir.FloatS(v), ir.Float, realName(v))
}

// Value names are built with strconv, as fmt.Sprintf would format them
// (TestValueNamesMatchSprintf):

// realName is fmt.Sprintf("c%g", v).
func realName(v float64) string {
	var buf [32]byte
	return string(strconv.AppendFloat(append(buf[:0], 'c'), v, 'g', -1, 64))
}

// pointerName is fmt.Sprintf("p.%s%+d", array, c).
func pointerName(array string, c int64) string {
	var buf [64]byte
	name := append(append(buf[:0], "p."...), array...)
	if c >= 0 {
		name = append(name, '+')
	}
	return string(strconv.AppendInt(name, c, 10))
}

// elemAddrName is fmt.Sprintf("addr.%s(%d)", array, idx).
func elemAddrName(array string, idx int64) string {
	var buf [64]byte
	name := append(append(append(buf[:0], "addr."...), array...), '(')
	return string(append(strconv.AppendInt(name, idx, 10), ')'))
}

// valueType is the IR type of a symbol's values.
func valueType(sym *Symbol) ir.Type {
	if sym.Type == TInteger {
		return ir.Int
	}
	return ir.Float
}

// invariantScalar returns the GPR live-in for a scalar the loop never
// assigns (parameters, outer-loop indices, globals).
func (lo *lowerer) invariantScalar(st *symState) ir.Operand {
	if st.liveIn != ir.None {
		return ir.Operand{Val: st.liveIn}
	}
	v := lo.l.NewValue(st.sym.Name, ir.GPR, valueType(st.sym))
	st.liveIn = v.ID
	lo.scalars = append(lo.scalars, namedValue{st.sym.Name, v.ID})
	return ir.Operand{Val: v.ID}
}

// stepOperand yields the loop step as an operand.
func (lo *lowerer) stepOperand() ir.Operand {
	if lo.stepKnown {
		return lo.constVal(ir.IntS(lo.step), ir.Addr, "step")
	}
	op, t, err := lo.expr(lo.do.Step)
	if err != nil || t != TInteger {
		// Step was type-checked already; non-integer cannot happen.
		panic("frontend: bad step")
	}
	return op
}

// indexValue materializes the DO variable as an address recurrence.
func (lo *lowerer) indexValue() ir.Operand {
	if lo.indexVal >= 0 {
		return ir.Operand{Val: lo.indexVal}
	}
	v := lo.l.NewValue("i."+lo.do.Var, ir.RR, ir.Int)
	// Record the value before lowering the step, which may read it.
	lo.indexVal = v.ID
	lo.l.NewOp(machine.AAdd, lo.operands(ir.Operand{Val: v.ID, Omega: 1}, lo.stepOperand()), v.ID)
	lo.recipes = append(lo.recipes, Recipe{Val: v.ID, Kind: RecipeIndex})
	return ir.Operand{Val: v.ID}
}

// pointerFor materializes the address recurrence for affine accesses
// a(i + c): one strength-reduced pointer per distinct (array, c).
func (lo *lowerer) pointerFor(sym *Symbol, c int64) ir.Operand {
	e := lo.elem(elemKey{sym.id, c, true})
	if e.pointer != ir.None {
		return ir.Operand{Val: e.pointer}
	}
	v := lo.l.NewValue(pointerName(sym.Name, c), ir.RR, ir.Addr)
	// Record the value before lowering the step, which may read it.
	e.pointer = v.ID
	lo.l.NewOp(machine.AAdd, lo.operands(ir.Operand{Val: v.ID, Omega: 1}, lo.stepOperand()), v.ID)
	lo.recipes = append(lo.recipes, Recipe{Val: v.ID, Kind: RecipeAffine, Array: sym.Name, C: c})
	return ir.Operand{Val: v.ID}
}

// constAddr returns the GPR live-in address of an invariant element.
func (lo *lowerer) constAddr(sym *Symbol, idx int64) ir.Operand {
	e := lo.elem(elemKey{sym.id, idx, false})
	if e.constAddr != ir.None {
		return ir.Operand{Val: e.constAddr}
	}
	v := lo.l.NewValue(elemAddrName(sym.Name, idx), ir.GPR, ir.Addr)
	e.constAddr = v.ID
	lo.elemAddrs = append(lo.elemAddrs, elemAddr{ConstAddrKey{sym.Name, idx}, v.ID})
	return ir.Operand{Val: v.ID}
}

// arrayBase returns the GPR live-in base address of an array (used only
// for non-affine subscripts).
func (lo *lowerer) arrayBase(st *symState) ir.Operand {
	if st.base != ir.None {
		return ir.Operand{Val: st.base}
	}
	v := lo.l.NewValue("base."+st.sym.Name, ir.GPR, ir.Addr)
	st.base = v.ID
	lo.bases = append(lo.bases, namedValue{st.sym.Name, v.ID})
	return ir.Operand{Val: v.ID}
}

// storePlaceholder returns (creating on demand) the placeholder value
// standing for "the value the array's single store writes", patched to
// the real stored value after lowering.
func (lo *lowerer) storePlaceholder(st *symState, typ ir.Type) ir.ValueID {
	if st.placeholder != ir.None {
		return st.placeholder
	}
	v := lo.l.NewValue("fwd."+st.sym.Name, ir.RR, typ)
	st.placeholder = v.ID
	lo.forwarded = append(lo.forwarded, st.sym.id)
	return v.ID
}

// stmts lowers a statement list under the current guard.
func (lo *lowerer) stmts(list []Stmt) error {
	for _, s := range list {
		switch s := s.(type) {
		case *AssignStmt:
			if err := lo.assign(s); err != nil {
				return err
			}
		case *IfStmt:
			if err := lo.ifStmt(s); err != nil {
				return err
			}
		case *DoStmt:
			return errf(s.Pos(), "nested DO reached lowering (bug)")
		}
	}
	return nil
}

func (lo *lowerer) ifStmt(s *IfStmt) error {
	lo.numIf++
	cond, err := lo.cond(s.Cond)
	if err != nil {
		return err
	}
	parentG := lo.g

	// Combined guards: with no parent the compare value itself guards
	// both branches (the else side via the negated sense); under a
	// parent we materialize parent∧p and parent∧¬p.
	setGuard := func(neg bool) error {
		if !parentG.ok {
			lo.g = guard{op: cond, neg: neg, ok: true}
			return nil
		}
		parent := parentG.op
		if parentG.neg {
			// Materialize the positive sense of the parent.
			pv := lo.emitUnpred(machine.PNot, []ir.Operand{parent}, "np", ir.ICR, ir.Pred)
			parent = ir.Operand{Val: pv}
		}
		leaf := cond
		if neg {
			nv := lo.emitUnpred(machine.PNot, []ir.Operand{cond}, "nc", ir.ICR, ir.Pred)
			leaf = ir.Operand{Val: nv}
		}
		cv := lo.emitUnpred(machine.PAnd, []ir.Operand{parent, leaf}, "pp", ir.ICR, ir.Pred)
		lo.g = guard{op: ir.Operand{Val: cv}, ok: true}
		return nil
	}

	if err := setGuard(false); err != nil {
		return err
	}
	if err := lo.stmts(s.Then); err != nil {
		return err
	}
	if len(s.Else) > 0 {
		if err := setGuard(true); err != nil {
			return err
		}
		if err := lo.stmts(s.Else); err != nil {
			return err
		}
	}
	lo.g = parentG
	return nil
}

// cond lowers a condition expression to a predicate operand. Condition
// cones are evaluated speculatively (unpredicated): they read only
// always-defined values — loads issued fresh and unguarded, scalar
// merges, and invariants — so speculation is safe.
func (lo *lowerer) cond(e Expr) (ir.Operand, error) {
	saved := lo.g
	lo.g = guard{}
	defer func() { lo.g = saved }()
	return lo.condIn(e)
}

func (lo *lowerer) condIn(e Expr) (ir.Operand, error) {
	switch e := e.(type) {
	case *BinExpr:
		switch e.Op {
		case "&&", "||":
			l, err := lo.condIn(e.L)
			if err != nil {
				return l, err
			}
			r, err := lo.condIn(e.R)
			if err != nil {
				return r, err
			}
			code := machine.PAnd
			if e.Op == "||" {
				code = machine.POr
			}
			return ir.Operand{Val: lo.emit(code, []ir.Operand{l, r}, "p", ir.ICR, ir.Pred)}, nil
		case "<", "<=", ">", ">=", "==", "/=":
			lop, lt, err := lo.expr(e.L)
			if err != nil {
				return lop, err
			}
			rop, rt, err := lo.expr(e.R)
			if err != nil {
				return rop, err
			}
			t := TInteger
			if lt == TReal || rt == TReal {
				t = TReal
				lop = lo.convert(lop, lt, TReal)
				rop = lo.convert(rop, rt, TReal)
			}
			var code machine.Opcode
			switch e.Op {
			case "<":
				code = pick(t, machine.ICmpLT, machine.FCmpLT)
			case "<=":
				code = pick(t, machine.ICmpLE, machine.FCmpLE)
			case ">":
				code = pick(t, machine.ICmpGT, machine.FCmpGT)
			case ">=":
				code = pick(t, machine.ICmpGE, machine.FCmpGE)
			case "==":
				code = pick(t, machine.ICmpEQ, machine.FCmpEQ)
			default:
				code = pick(t, machine.ICmpNE, machine.FCmpNE)
			}
			return ir.Operand{Val: lo.emit(code, []ir.Operand{lop, rop}, "p", ir.ICR, ir.Pred)}, nil
		}
	case *UnExpr:
		if e.Op == "!" {
			x, err := lo.condIn(e.X)
			if err != nil {
				return x, err
			}
			return ir.Operand{Val: lo.emit(machine.PNot, []ir.Operand{x}, "p", ir.ICR, ir.Pred)}, nil
		}
	}
	return ir.Operand{}, errf(e.Pos(), "condition must be a comparison or logical expression")
}

func pick(t BaseType, i, f machine.Opcode) machine.Opcode {
	if t == TInteger {
		return i
	}
	return f
}

func (lo *lowerer) convert(op ir.Operand, from, to BaseType) ir.Operand {
	if from == to {
		return op
	}
	if to == TReal {
		return ir.Operand{Val: lo.emit(machine.IToF, []ir.Operand{op}, "cvt", ir.RR, ir.Float)}
	}
	return ir.Operand{Val: lo.emit(machine.FToI, []ir.Operand{op}, "cvt", ir.RR, ir.Int)}
}

// expr lowers an expression, returning its operand and type. Ops emitted
// here carry the current guard.
func (lo *lowerer) expr(e Expr) (ir.Operand, BaseType, error) {
	switch e := e.(type) {
	case *IntLit:
		return lo.intConst(e.Val), TInteger, nil
	case *RealLit:
		return lo.realConst(e.Val), TReal, nil
	case *VarRef:
		if e.Name == lo.do.Var {
			return lo.indexValue(), TInteger, nil
		}
		sym := lo.u.Syms[e.Name]
		st := lo.state(sym)
		if st.assigned {
			return lo.scalarRead(st), sym.Type, nil
		}
		return lo.invariantScalar(st), sym.Type, nil
	case *ArrayRef:
		return lo.arrayLoad(e)
	case *BinExpr:
		return lo.binExpr(e)
	case *UnExpr:
		if e.Op == "!" {
			return ir.Operand{}, TInteger, errf(e.Pos(), ".not. outside a condition")
		}
		x, t, err := lo.expr(e.X)
		if err != nil {
			return x, t, err
		}
		if t == TReal {
			return ir.Operand{Val: lo.emit(machine.FNeg, []ir.Operand{x}, "neg", ir.RR, ir.Float)}, TReal, nil
		}
		zero := lo.constVal(ir.IntS(0), ir.Int, "c0")
		return ir.Operand{Val: lo.emit(machine.ISub, []ir.Operand{zero, x}, "neg", ir.RR, ir.Int)}, TInteger, nil
	case *CallExpr:
		return lo.call(e)
	}
	return ir.Operand{}, TReal, errf(e.Pos(), "unsupported expression")
}

func (lo *lowerer) binExpr(e *BinExpr) (ir.Operand, BaseType, error) {
	switch e.Op {
	case "&&", "||", "<", "<=", ">", ">=", "==", "/=":
		return ir.Operand{}, TInteger, errf(e.Pos(), "logical expression used as a value")
	}
	l, lt, err := lo.expr(e.L)
	if err != nil {
		return l, lt, err
	}
	r, rt, err := lo.expr(e.R)
	if err != nil {
		return r, rt, err
	}
	t := TInteger
	if lt == TReal || rt == TReal {
		t = TReal
		l = lo.convert(l, lt, TReal)
		r = lo.convert(r, rt, TReal)
	}
	var code machine.Opcode
	switch e.Op {
	case "+":
		code = pick(t, machine.IAdd, machine.FAdd)
	case "-":
		code = pick(t, machine.ISub, machine.FSub)
	case "*":
		code = pick(t, machine.IMul, machine.FMul)
	case "/":
		code = pick(t, machine.IDiv, machine.FDiv)
	default:
		return ir.Operand{}, t, errf(e.Pos(), "unsupported operator %q", e.Op)
	}
	typ := ir.Int
	if t == TReal {
		typ = ir.Float
	}
	return ir.Operand{Val: lo.emit(code, []ir.Operand{l, r}, "t", ir.RR, typ)}, t, nil
}

func (lo *lowerer) call(e *CallExpr) (ir.Operand, BaseType, error) {
	// Intrinsics take at most two arguments.
	var argBuf [2]ir.Operand
	var typeBuf [2]BaseType
	args, types := argBuf[:0], typeBuf[:0]
	for _, a := range e.Args {
		op, t, err := lo.expr(a)
		if err != nil {
			return op, t, err
		}
		args, types = append(args, op), append(types, t)
	}
	toReal := func(i int) ir.Operand { return lo.convert(args[i], types[i], TReal) }
	switch e.Name {
	case "sqrt":
		return ir.Operand{Val: lo.emit(machine.FSqrt, []ir.Operand{toReal(0)}, "t", ir.RR, ir.Float)}, TReal, nil
	case "abs":
		if types[0] == TInteger {
			return ir.Operand{}, TInteger, errf(e.Pos(), "integer abs is not supported; use real operands")
		}
		return ir.Operand{Val: lo.emit(machine.FAbs, args[:1], "t", ir.RR, ir.Float)}, TReal, nil
	case "real", "float":
		return lo.convert(args[0], types[0], TReal), TReal, nil
	case "int":
		return lo.convert(args[0], types[0], TInteger), TInteger, nil
	case "mod":
		if types[0] != TInteger || types[1] != TInteger {
			return ir.Operand{}, TInteger, errf(e.Pos(), "mod requires integer operands")
		}
		return ir.Operand{Val: lo.emit(machine.IMod, args, "t", ir.RR, ir.Int)}, TInteger, nil
	case "max", "amax1":
		return ir.Operand{Val: lo.emit(machine.FMax, []ir.Operand{toReal(0), toReal(1)}, "t", ir.RR, ir.Float)}, TReal, nil
	case "min", "amin1":
		return ir.Operand{Val: lo.emit(machine.FMin, []ir.Operand{toReal(0), toReal(1)}, "t", ir.RR, ir.Float)}, TReal, nil
	}
	return ir.Operand{}, TReal, errf(e.Pos(), "unknown intrinsic %s", e.Name)
}

// scalarRead reads a loop-assigned scalar: the current version if one
// exists this iteration, else the previous iteration's final version via
// a carried placeholder (patched later).
func (lo *lowerer) scalarRead(st *symState) ir.Operand {
	if st.hasCur {
		return st.cur
	}
	return ir.Operand{Val: lo.carriedPlaceholder(st)}
}

// carriedPlaceholder is patched to (final version, ω+1) by patchCarried.
func (lo *lowerer) carriedPlaceholder(st *symState) ir.ValueID {
	if st.carried != ir.None {
		return st.carried
	}
	v := lo.l.NewValue("carry."+st.sym.Name, ir.RR, valueType(st.sym))
	st.carried = v.ID
	lo.carried = append(lo.carried, st.sym.id)
	return v.ID
}

// assign lowers one assignment statement under the current guard.
func (lo *lowerer) assign(s *AssignStmt) error {
	switch lhs := s.Lhs.(type) {
	case *VarRef:
		if lhs.Name == lo.do.Var {
			return errf(s.Pos(), "assignment to the DO variable")
		}
		sym := lo.u.Syms[lhs.Name]
		st := lo.state(sym)
		rhs, rt, err := lo.expr(s.Rhs)
		if err != nil {
			return err
		}
		rhs = lo.convert(rhs, rt, sym.Type)
		if g := lo.g; g.ok {
			// Predicated assignment: a merge value with two defs under
			// complementary senses — the Cydra way of joining branches.
			copyOp := machine.FCopy
			if sym.Type == TInteger {
				copyOp = machine.Copy
			}
			if st.mergeName == "" {
				st.mergeName = "m." + lhs.Name
			}
			merge := lo.l.NewValue(st.mergeName, ir.RR, valueType(sym))
			old := lo.scalarRead(st)
			lo.guardOp(lo.l.NewOp(copyOp, lo.operands(rhs), merge.ID), g)
			lo.guardOp(lo.l.NewOp(copyOp, lo.operands(old), merge.ID), guard{op: g.op, neg: !g.neg, ok: true})
			st.cur, st.hasCur = ir.Operand{Val: merge.ID}, true
		} else {
			st.cur, st.hasCur = rhs, true
		}
		return nil
	case *ArrayRef:
		sym := lo.u.Syms[lhs.Name]
		data, dt, err := lo.expr(s.Rhs)
		if err != nil {
			return err
		}
		data = lo.convert(data, dt, sym.Type)
		addr, aff, err := lo.address(lhs)
		if err != nil {
			return err
		}
		op := lo.l.NewOp(machine.Store, lo.operands(addr, data), ir.None)
		lo.guardOp(op, lo.g)
		lo.emitted = append(lo.emitted, emittedAccess{op: op.ID, isStore: true, sym: sym.id, aff: aff})
		// Remember the stored value for store-forwarded loads.
		if st := lo.state(sym); st.forwardsStore {
			st.storeVal, st.hasStoreVal = data, true
		}
		return nil
	}
	return errf(s.Pos(), "bad assignment target")
}

// address lowers an array subscript to an address operand.
func (lo *lowerer) address(ref *ArrayRef) (ir.Operand, affineSub, error) {
	sym := lo.u.Syms[ref.Name]
	aff := lo.affineOf(ref.Index)
	switch {
	case aff.ok && aff.hasI:
		return lo.pointerFor(sym, aff.c), aff, nil
	case aff.ok:
		return lo.constAddr(sym, aff.c), aff, nil
	default:
		sub, t, err := lo.expr(ref.Index)
		if err != nil {
			return ir.Operand{}, aff, err
		}
		if t != TInteger {
			return ir.Operand{}, aff, errf(ref.Pos(), "subscript must be integer")
		}
		one := lo.constVal(ir.IntS(1), ir.Addr, "c1")
		off := lo.emit(machine.ASub, []ir.Operand{sub, one}, "off", ir.RR, ir.Addr)
		addr := lo.emit(machine.AAdd, []ir.Operand{lo.arrayBase(lo.state(sym)), {Val: off}}, "addr", ir.RR, ir.Addr)
		return ir.Operand{Val: addr}, aff, nil
	}
}

// loadName is the name of the array's load values.
func (st *symState) loadName() string {
	if st.ldName == "" {
		st.ldName = "ld." + st.sym.Name
	}
	return st.ldName
}

// arrayLoad lowers an array read: a forwarded register read when load/
// store elimination applies, otherwise a Load (CSE'd when unguarded).
func (lo *lowerer) arrayLoad(ref *ArrayRef) (ir.Operand, BaseType, error) {
	sym := lo.u.Syms[ref.Name]
	st := lo.state(sym)
	typ := valueType(sym)
	aff := lo.affineOf(ref.Index)
	key := elemKey{sym.id, aff.c, aff.hasI}
	if e := lo.elems[key]; e != nil && aff.ok && aff.hasI {
		if e.hasStoreFwd {
			sp := lo.storePlaceholder(st, typ)
			return ir.Operand{Val: sp, Omega: e.storeFwd}, sym.Type, nil
		}
		if e.hasLoadFwd {
			leader := lo.leaderLoad(sym, e.loadFwdC, typ)
			return ir.Operand{Val: leader, Omega: e.loadFwdOmega}, sym.Type, nil
		}
	}
	// CSE only for unguarded loads; a guarded load may not execute.
	cacheable := !lo.g.ok && aff.ok
	if cacheable {
		if e := lo.elems[key]; e != nil && e.cse != ir.None {
			return ir.Operand{Val: e.cse}, sym.Type, nil
		}
	}
	addr, aff, err := lo.address(ref)
	if err != nil {
		return ir.Operand{}, sym.Type, err
	}
	v := lo.emit(machine.Load, []ir.Operand{addr}, st.loadName(), ir.RR, typ)
	lo.emitted = append(lo.emitted, emittedAccess{op: lo.l.Value(v).Defs[0], sym: sym.id, aff: aff})
	if cacheable {
		lo.elem(key).cse = v
	}
	return ir.Operand{Val: v}, sym.Type, nil
}

// leaderLoad emits (once) the unguarded load every other read of the
// array forwards from, and records its preheader recipe.
func (lo *lowerer) leaderLoad(sym *Symbol, c int64, typ ir.Type) ir.ValueID {
	e := lo.elem(elemKey{sym.id, c, true})
	if e.leader != ir.None {
		return e.leader
	}
	addr := lo.pointerFor(sym, c)
	v := lo.emitUnpred(machine.Load, []ir.Operand{addr}, lo.state(sym).loadName(), ir.RR, typ)
	e.leader = v
	lo.emitted = append(lo.emitted, emittedAccess{op: lo.l.Value(v).Defs[0], sym: sym.id, aff: affineSub{ok: true, hasI: true, c: c}})
	lo.recipes = append(lo.recipes, Recipe{Val: v, Kind: RecipeMemLoad, Array: sym.Name, C: c})
	// The leader is also this (array, c)'s load for CSE purposes.
	if !lo.g.ok {
		e.cse = v
	}
	return v
}

// patchCarried resolves carried placeholders: every read of
// "carry.name" becomes a read of the scalar's final version, one
// iteration back. Placeholders resolve in creation order, so the copies
// resolveFinal adds come in a fixed order.
func (lo *lowerer) patchCarried() error {
	if len(lo.carried) == 0 {
		// Still record live-out final versions.
		return lo.finalizeScalars()
	}
	lo.carriedOwner = ownerTable(lo.carriedOwner, len(lo.l.Values))
	for k, id := range lo.carried {
		lo.carriedOwner[lo.syms[id].carried] = k
	}
	final := make([]ir.Operand, len(lo.carried)) // by carried index
	for k, id := range lo.carried {
		op, err := lo.resolveFinal(id)
		if err != nil {
			return err
		}
		final[k] = op
	}
	owner := lo.carriedOwner
	rewrite := func(o *ir.Operand) {
		if int(o.Val) < len(owner) && owner[o.Val] >= 0 {
			f := final[owner[o.Val]]
			o.Val = f.Val
			o.Omega += f.Omega + 1
		}
	}
	for _, op := range lo.l.Ops {
		for i := range op.Args {
			rewrite(&op.Args[i])
		}
		if op.Pred != nil {
			rewrite(op.Pred)
		}
	}
	return lo.finalizeScalars()
}

// ownerTable returns t resized to n entries of -1.
func ownerTable(t []int, n int) []int {
	t = slices.Grow(t[:0], n)[:n]
	for i := range t {
		t[i] = -1
	}
	return t
}

// resolveFinal returns the value anchoring a scalar's end-of-iteration
// version: always a loop-variant read at distance 0, so that the
// scalar's carried read is exactly (final, ω=1) and its preheader
// instance at iteration −1 is exactly the variable's pre-loop value.
// Copies are materialized when the raw final version is an invariant, a
// forwarded (ω > 0) read, or another scalar's carried placeholder.
func (lo *lowerer) resolveFinal(id int) (ir.Operand, error) {
	st := &lo.syms[id]
	name := st.sym.Name
	if st.visiting {
		return ir.Operand{}, errf(lo.do.Pos(), "unsupported mutual scalar recurrence through %s (swap pattern)", name)
	}
	st.visiting = true
	defer func() { st.visiting = false }()

	if !st.hasCur {
		// Read but never assigned on any path this iteration — cannot
		// happen: only assigned scalars get a placeholder.
		return ir.Operand{}, errf(lo.do.Pos(), "scalar %s carried but never assigned", name)
	}
	cur := st.cur
	// A final version that is another scalar's carried placeholder means
	// "this scalar ends the iteration holding that one's previous value".
	if owner := lo.carriedOwner; int(cur.Val) < len(owner) && owner[cur.Val] >= 0 {
		r, err := lo.resolveFinal(lo.carried[owner[cur.Val]])
		if err != nil {
			return ir.Operand{}, err
		}
		cur = ir.Operand{Val: r.Val, Omega: cur.Omega + r.Omega + 1}
	}
	if v := lo.l.Value(cur.Val); !v.IsVariant() || cur.Omega > 0 {
		copyOp := machine.FCopy
		if st.sym.Type == TInteger {
			copyOp = machine.Copy
		}
		nv := lo.emitUnpred(copyOp, []ir.Operand{cur}, "fin."+name, ir.RR, valueType(st.sym))
		cur = ir.Operand{Val: nv}
	}
	st.cur = cur
	return cur, nil
}

// finalizeScalars anchors every assigned scalar's final version, records
// it for live-out marking, and registers a preheader recipe (BuildEnv
// seeds only the instances actually read).
func (lo *lowerer) finalizeScalars() error {
	ids := lo.ids[:0]
	for id := range lo.syms {
		if lo.syms[id].hasCur {
			ids = append(ids, id)
		}
	}
	lo.ids = ids
	slices.SortFunc(ids, func(a, b int) int { return strings.Compare(lo.syms[a].sym.Name, lo.syms[b].sym.Name) })
	for _, id := range ids {
		cur, err := lo.resolveFinal(id)
		if err != nil {
			return err
		}
		name := lo.syms[id].sym.Name
		lo.finals = append(lo.finals, namedValue{name, cur.Val})
		lo.recipes = append(lo.recipes, Recipe{Val: cur.Val, Kind: RecipeScalar, Scalar: name})
	}
	return nil
}

// patchStoreForwards resolves "fwd.array" placeholders to the stored
// value and records their preheader recipes. Every placeholder is
// resolved first, in creation order, and then every read rewritten in
// one pass, so a copy that reads another array's placeholder (a value
// forwarded through two stores) is rewritten too.
func (lo *lowerer) patchStoreForwards() error {
	if len(lo.forwarded) == 0 {
		return nil
	}
	resolved := make([]ir.Operand, len(lo.forwarded))
	for k, id := range lo.forwarded {
		st := &lo.syms[id]
		array := st.sym.Name
		if !st.hasStoreVal {
			return errf(lo.do.Pos(), "forwarded load from %s found no store (bug)", array)
		}
		d := st.storeVal
		if val := lo.l.Value(d.Val); !val.IsVariant() || d.Omega > 0 {
			// Stored value is a constant/invariant or itself a carried
			// read: anchor it with a copy so forwards have a variant.
			copyOp := machine.FCopy
			if val.Type == ir.Int || val.Type == ir.Addr {
				copyOp = machine.Copy
			}
			d = ir.Operand{Val: lo.emitUnpred(copyOp, []ir.Operand{d}, "fwd0."+array, ir.RR, val.Type)}
		}
		resolved[k] = d
		// The store's affine offset drives the preheader addresses.
		var storeC int64
		found := false
		for _, a := range lo.emitted {
			if a.isStore && a.sym == id && a.aff.ok && a.aff.hasI {
				storeC, found = a.aff.c, true
			}
		}
		if !found {
			return errf(lo.do.Pos(), "store forwarding without affine store (bug)")
		}
		lo.recipes = append(lo.recipes, Recipe{Val: d.Val, Kind: RecipeMemLoad, Array: array, C: storeC})
	}
	lo.fwdOwner = ownerTable(lo.fwdOwner, len(lo.l.Values))
	owner := lo.fwdOwner
	for k, id := range lo.forwarded {
		owner[lo.syms[id].placeholder] = k
	}
	rewrite := func(o *ir.Operand) {
		if k := owner[o.Val]; k >= 0 {
			o.Val = resolved[k].Val
			o.Omega += resolved[k].Omega
		}
	}
	for _, op := range lo.l.Ops {
		for i := range op.Args {
			rewrite(&op.Args[i])
		}
		if op.Pred != nil {
			rewrite(op.Pred)
		}
	}
	return nil
}

// memArcBound is the most arcs memDeps can add: two for every pair of
// same-array emitted accesses that includes a store. It counts in the
// symbol table, so it is linear in the accesses and allocates nothing.
func (lo *lowerer) memArcBound() int {
	for _, a := range lo.emitted {
		st := &lo.syms[a.sym]
		st.accesses++
		if a.isStore {
			st.stores++
		}
	}
	n := 0
	for _, a := range lo.emitted {
		st := &lo.syms[a.sym]
		if st.accesses == 0 {
			continue // counted
		}
		loads := st.accesses - st.stores
		n += st.accesses*(st.accesses-1) - loads*(loads-1)
		st.accesses, st.stores = 0, 0
	}
	return n
}

// memDeps adds memory ordering arcs between the surviving accesses
// (Section 3.1: exact ω where dependence analysis can prove it,
// conservative lower bounds elsewhere). Accesses guarded by
// complementary senses of the same predicate came from the two sides of
// one IF: dependence analysis ran on the branchy CFG before
// if-conversion, where no path connects them, so they never conflict
// within an iteration — and the cross-iteration direction is kept.
func (lo *lowerer) memDeps() {
	storeLat := lo.m.Info(machine.Store).Latency
	complementary := func(x, y *ir.Op) bool {
		return x.Pred != nil && y.Pred != nil &&
			x.Pred.Val == y.Pred.Val && x.Pred.Omega == y.Pred.Omega &&
			x.PredNeg != y.PredNeg
	}
	for i := range lo.emitted {
		a := &lo.emitted[i]
		for j := i + 1; j < len(lo.emitted); j++ {
			b := &lo.emitted[j]
			if a.sym != b.sym || (!a.isStore && !b.isStore) {
				continue
			}
			opA, opB := lo.l.Op(a.op), lo.l.Op(b.op)
			if complementary(opA, opB) {
				// Exclusive branches: only cross-iteration ordering in
				// both directions (an iteration may take either side).
				exact := a.aff.ok && b.aff.ok && a.aff.hasI && b.aff.hasI && lo.stepKnown
				if exact && (a.aff.c-b.aff.c)%lo.step != 0 {
					continue
				}
				latAB, latBA := 0, 0
				if a.isStore {
					latAB = storeLat
				}
				if b.isStore {
					latBA = storeLat
				}
				lo.l.AddDep(ir.Dep{From: a.op, To: b.op, Latency: latAB, Omega: 1, Kind: ir.DepMem})
				lo.l.AddDep(ir.Dep{From: b.op, To: a.op, Latency: latBA, Omega: 1, Kind: ir.DepMem})
				continue
			}
			latAB := 0
			if a.isStore {
				latAB = storeLat
			}
			latBA := 0
			if b.isStore {
				latBA = storeLat
			}
			exact := a.aff.ok && b.aff.ok && a.aff.hasI && b.aff.hasI && lo.stepKnown
			if exact {
				d := a.aff.c - b.aff.c
				if d%lo.step != 0 {
					continue // provably never alias
				}
				w := d / lo.step
				switch {
				case w > 0:
					// a@k aliases b@(k+w): a must precede b by w iterations.
					lo.l.AddDep(ir.Dep{From: a.op, To: b.op, Latency: latAB, Omega: int(w), Kind: ir.DepMem})
				case w < 0:
					lo.l.AddDep(ir.Dep{From: b.op, To: a.op, Latency: latBA, Omega: int(-w), Kind: ir.DepMem})
				default:
					// Same address every iteration pair (k,k): program
					// order within the iteration, conflict across
					// iterations in both directions.
					lo.l.AddDep(ir.Dep{From: a.op, To: b.op, Latency: latAB, Omega: 0, Kind: ir.DepMem})
					lo.l.AddDep(ir.Dep{From: b.op, To: a.op, Latency: latBA, Omega: 1, Kind: ir.DepMem})
				}
				continue
			}
			// Conservative: textual order now, and the reverse one
			// iteration later.
			lo.l.AddDep(ir.Dep{From: a.op, To: b.op, Latency: latAB, Omega: 0, Kind: ir.DepMem})
			lo.l.AddDep(ir.Dep{From: b.op, To: a.op, Latency: latBA, Omega: 1, Kind: ir.DepMem})
		}
	}
}
