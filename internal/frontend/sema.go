package frontend

import "fmt"

// Symbol is one resolved name.
type Symbol struct {
	Name    string
	Type    BaseType
	IsArray bool
	Dim     Expr // declared extent (nil for scalars)
	IsParam bool
	// Assigned marks symbols written somewhere in the subroutine.
	Assigned bool

	// id numbers the unit's symbols densely in creation order, so the
	// lowerer keeps per-symbol state in slices.
	id int
}

// Unit is an analyzed subroutine.
type Unit struct {
	Prog *Program
	Syms map[string]*Symbol
}

// implicitType applies FORTRAN implicit typing: names starting with
// i..n are integer, everything else real.
func implicitType(name string) BaseType {
	if name != "" && name[0] >= 'i' && name[0] <= 'n' {
		return TInteger
	}
	return TReal
}

// Analyze resolves names, applies implicit typing to undeclared
// variables, and type-checks every statement.
func Analyze(prog *Program) (*Unit, error) {
	return new(analyzer).analyze(prog, new(Unit))
}

// analyze analyzes prog into u, reusing u.Syms (emptied) if it is set.
func (a *analyzer) analyze(prog *Program, u *Unit) (*Unit, error) {
	// Declarations usually cover the parameters and the loop indices.
	declared := 0
	for _, d := range prog.Decls {
		declared += len(d.Names)
	}
	hint := max(len(prog.Params), declared) + 2
	u.Prog = prog
	if u.Syms == nil {
		u.Syms = make(map[string]*Symbol, hint)
	}
	a.u = u
	for _, p := range prog.Params {
		sym := a.u.Syms[p]
		if sym == nil {
			sym = a.newSym(p)
		}
		// A repeated parameter name starts its symbol over.
		*sym = Symbol{Name: p, Type: implicitType(p), IsParam: true, id: sym.id}
	}
	for _, d := range prog.Decls {
		for _, dn := range d.Names {
			sym := a.u.Syms[dn.Name]
			if sym == nil {
				sym = a.newSym(dn.Name)
			}
			sym.Type = d.Type
			if dn.Dim != nil {
				sym.IsArray = true
				sym.Dim = dn.Dim
			}
		}
	}
	// Walk the body: create implicit symbols, check types, and record
	// assignments.
	if err := a.stmts(prog.Body); err != nil {
		return nil, err
	}
	return a.u, nil
}

// analyzer is Analyze's state: the unit and the slab its symbols come
// from.
type analyzer struct {
	u    *Unit
	syms slab[Symbol]
}

// reset readies an analyzer whose previous unit is dead for another
// analysis.
func (a *analyzer) reset() {
	a.u = nil
	a.syms.reset()
}

// newSym adds a symbol with the given name and no attributes.
func (a *analyzer) newSym(name string) *Symbol {
	sym := a.syms.new()
	sym.Name, sym.id = name, len(a.u.Syms)
	a.u.Syms[name] = sym
	return sym
}

// lookup returns name's symbol, creating an implicitly typed one.
func (a *analyzer) lookup(name string) *Symbol {
	sym := a.u.Syms[name]
	if sym == nil {
		sym = a.newSym(name)
		sym.Type = implicitType(name)
	}
	return sym
}

func (a *analyzer) expr(e Expr) (BaseType, error) {
	switch e := e.(type) {
	case *IntLit:
		return TInteger, nil
	case *RealLit:
		return TReal, nil
	case *VarRef:
		sym := a.lookup(e.Name)
		if sym.IsArray {
			return sym.Type, errf(e.Pos(), "array %s used without subscript", e.Name)
		}
		return sym.Type, nil
	case *ArrayRef:
		sym := a.lookup(e.Name)
		if !sym.IsArray {
			return sym.Type, errf(e.Pos(), "%s is not an array", e.Name)
		}
		it, err := a.expr(e.Index)
		if err != nil {
			return sym.Type, err
		}
		if it != TInteger {
			return sym.Type, errf(e.Pos(), "subscript of %s must be integer", e.Name)
		}
		return sym.Type, nil
	case *BinExpr:
		lt, err := a.expr(e.L)
		if err != nil {
			return lt, err
		}
		rt, err := a.expr(e.R)
		if err != nil {
			return rt, err
		}
		switch e.Op {
		case "&&", "||":
			return TInteger, nil // logical; only valid inside IF conditions
		case "<", "<=", ">", ">=", "==", "/=":
			return TInteger, nil
		}
		if lt == TReal || rt == TReal {
			return TReal, nil
		}
		return TInteger, nil
	case *UnExpr:
		return a.expr(e.X)
	case *CallExpr:
		for _, arg := range e.Args {
			if _, err := a.expr(arg); err != nil {
				return TReal, err
			}
		}
		switch e.Name {
		case "sqrt", "real", "float", "amax1", "amin1":
			return TReal, nil
		case "int", "mod":
			return TInteger, nil
		case "abs", "max", "min":
			t, _ := a.expr(e.Args[0])
			return t, nil
		}
		return TReal, fmt.Errorf("line %d: unknown intrinsic %s", e.Pos(), e.Name)
	}
	return TReal, fmt.Errorf("unreachable expression kind %T", e)
}

func (a *analyzer) stmts(stmts []Stmt) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *AssignStmt:
			if _, err := a.expr(s.Rhs); err != nil {
				return err
			}
			switch lhs := s.Lhs.(type) {
			case *VarRef:
				a.lookup(lhs.Name).Assigned = true
			case *ArrayRef:
				sym := a.lookup(lhs.Name)
				if !sym.IsArray {
					return errf(lhs.Pos(), "%s is not an array", lhs.Name)
				}
				sym.Assigned = true
				if _, err := a.expr(lhs.Index); err != nil {
					return err
				}
			}
		case *IfStmt:
			if _, err := a.expr(s.Cond); err != nil {
				return err
			}
			if err := a.stmts(s.Then); err != nil {
				return err
			}
			if err := a.stmts(s.Else); err != nil {
				return err
			}
		case *DoStmt:
			sym := a.lookup(s.Var)
			if sym.Type != TInteger {
				return errf(s.Pos(), "loop variable %s must be integer", s.Var)
			}
			sym.Assigned = true
			for _, b := range [...]Expr{s.Lo, s.Hi, s.Step} {
				if b == nil {
					continue
				}
				t, err := a.expr(b)
				if err != nil {
					return err
				}
				if t != TInteger {
					return errf(s.Pos(), "DO bounds must be integer")
				}
			}
			if err := a.stmts(s.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// TypeOf computes an expression's type after analysis (no new symbols).
func (u *Unit) TypeOf(e Expr) BaseType {
	switch e := e.(type) {
	case *IntLit:
		return TInteger
	case *RealLit:
		return TReal
	case *VarRef:
		return u.Syms[e.Name].Type
	case *ArrayRef:
		return u.Syms[e.Name].Type
	case *BinExpr:
		switch e.Op {
		case "&&", "||", "<", "<=", ">", ">=", "==", "/=":
			return TInteger
		}
		if u.TypeOf(e.L) == TReal || u.TypeOf(e.R) == TReal {
			return TReal
		}
		return TInteger
	case *UnExpr:
		return u.TypeOf(e.X)
	case *CallExpr:
		switch e.Name {
		case "sqrt", "real", "float", "amax1", "amin1":
			return TReal
		case "int", "mod":
			return TInteger
		default:
			return u.TypeOf(e.Args[0])
		}
	}
	return TReal
}

// InnermostLoops returns every innermost DO loop in the subroutine, in
// source order — the units the paper's compiler modulo schedules.
func (u *Unit) InnermostLoops() []*DoStmt {
	return appendInnermost(nil, u.Prog.Body)
}

func appendInnermost(out []*DoStmt, stmts []Stmt) []*DoStmt {
	for _, s := range stmts {
		switch s := s.(type) {
		case *DoStmt:
			before := len(out)
			out = appendInnermost(out, s.Body)
			if len(out) == before {
				// No nested DO: s is innermost.
				out = append(out, s)
			}
		case *IfStmt:
			out = appendInnermost(out, s.Then)
			out = appendInnermost(out, s.Else)
		}
	}
	return out
}
