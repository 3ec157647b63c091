package frontend

import (
	"strconv"
	"sync"
)

// Parse parses one subroutine.
func Parse(src string) (*Program, error) {
	return new(parser).parse(src, new(Program))
}

// parse lexes src into a pooled token slice and parses it into prog.
func (p *parser) parse(src string, prog *Program) (*Program, error) {
	bp := tokenBufs.Get().(*[]Token)
	toks, err := lexInto(*bp, src)
	defer func() {
		// Drop the tokens' strings, so a pooled slice pins no source.
		clear(toks)
		p.toks, p.pos = nil, 0
		if cap(toks) <= maxPooledTokens {
			*bp = toks[:0]
			tokenBufs.Put(bp)
		}
	}()
	if err != nil {
		return nil, err
	}
	p.toks = toks
	return p.program(prog)
}

// tokenBufs recycles Parse's token slices: the AST keeps the tokens'
// strings, never the slice. A slice longer than maxPooledTokens (2 MiB)
// is left to the collector.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

const maxPooledTokens = 1 << 16

type parser struct {
	toks []Token
	pos  int

	// The AST's nodes and lists come from slabs: one allocation per
	// chunk rather than one per node or list.
	ints    slab[IntLit]
	reals   slab[RealLit]
	vars    slab[VarRef]
	arrays  slab[ArrayRef]
	bins    slab[BinExpr]
	uns     slab[UnExpr]
	calls   slab[CallExpr]
	assigns slab[AssignStmt]
	ifs     slab[IfStmt]
	dos     slab[DoStmt]
	decls   slab[Decl]
	names   slab[DeclName]
	strs    slab[string]
	exprs   slab[Expr]
	lists   slab[Stmt]
	declPs  slab[*Decl]

	// stmts and declStack stack the statements of the blocks being
	// parsed and the declarations; each list is copied out at its exact
	// size when it ends.
	stmts     []Stmt
	declStack []*Decl
}

// reset readies a parser whose previous AST is dead for another parse.
func (p *parser) reset() {
	p.ints.reset()
	p.reals.reset()
	p.vars.reset()
	p.arrays.reset()
	p.bins.reset()
	p.uns.reset()
	p.calls.reset()
	p.assigns.reset()
	p.ifs.reset()
	p.dos.reset()
	p.decls.reset()
	p.names.reset()
	p.strs.reset()
	p.exprs.reset()
	p.lists.reset()
	p.declPs.reset()
	clear(p.stmts)
	clear(p.declStack)
	p.stmts, p.declStack = p.stmts[:0], p.declStack[:0]
}

// slab hands out zeroed Ts and lists of Ts from shared chunks; a chunk
// is never reallocated, so what it hands out stays valid. A new slab
// allocates exactly what each call asks for, so an AST that outlives
// its parse holds no slack; reset sizes the next chunk from everything
// handed out since the last reset, so a recycled slab soon stops
// allocating. Callers set fields one by one:
// copying a whole struct in would cost a bulk write barrier while the
// collector runs.
type slab[T any] struct {
	buf  []T
	used int
}

// new returns a zeroed T.
func (s *slab[T]) new() *T { return &s.make(1)[0] }

// make returns n zeroed Ts, capped so that appending to them copies.
func (s *slab[T]) make(n int) []T {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]T, 0, n)
	}
	s.used += n
	i := len(s.buf)
	s.buf = s.buf[:i+n]
	return s.buf[i : i+n : i+n]
}

// clone returns a copy of list, or nil for an empty one.
func (s *slab[T]) clone(list []T) []T {
	if len(list) == 0 {
		return nil
	}
	out := s.make(len(list))
	copy(out, list)
	return out
}

// reset readies the slab for reuse once nothing it handed out is live:
// it keeps the newest chunk, zeroed, if that holds everything handed
// out since the last reset, and replaces it with one twice that size if
// not, so sources of varying size soon fit.
func (s *slab[T]) reset() {
	if cap(s.buf) < s.used {
		s.buf = make([]T, 0, 2*s.used)
	} else {
		clear(s.buf)
		s.buf = s.buf[:0]
	}
	s.used = 0
}

// ifStmtNode returns a slab-allocated IfStmt.
func (p *parser) ifStmtNode(cond Expr, then, els []Stmt, line int) *IfStmt {
	s := p.ifs.new()
	s.Cond, s.Then, s.Else, s.Line = cond, then, els, line
	return s
}

// binary returns a slab-allocated BinExpr.
func (p *parser) binary(op string, l, r Expr, line int) *BinExpr {
	e := p.bins.new()
	e.Op, e.L, e.R, e.Line = op, l, r, line
	return e
}

// unaryOp returns a slab-allocated UnExpr.
func (p *parser) unaryOp(op string, x Expr, line int) *UnExpr {
	e := p.uns.new()
	e.Op, e.X, e.Line = op, x, line
	return e
}

// call returns a slab-allocated CallExpr.
func (p *parser) call(name string, args []Expr, line int) *CallExpr {
	e := p.calls.new()
	e.Name, e.Args, e.Line = name, args, line
	return e
}

func (p *parser) cur() Token    { return p.toks[p.pos] }
func (p *parser) kind() TokKind { return p.toks[p.pos].Kind }
func (p *parser) next() Token   { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) skipNewlines() {
	for p.kind() == TokNewline {
		p.pos++
	}
}

func (p *parser) expect(k TokKind, what string) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errf(t.Line, "expected %s, found %s", what, t)
	}
	p.pos++
	return t, nil
}

func (p *parser) expectKw(kw string) error {
	t := p.cur()
	if t.Kind != TokKw || t.Text != kw {
		return errf(t.Line, "expected %q, found %s", kw, t)
	}
	p.pos++
	return nil
}

func (p *parser) atKw(kw string) bool {
	t := &p.toks[p.pos]
	return t.Kind == TokKw && t.Text == kw
}

func (p *parser) endOfStmt() error {
	switch p.kind() {
	case TokNewline:
		p.pos++
		return nil
	case TokEOF:
		return nil
	}
	t := p.cur()
	return errf(t.Line, "unexpected %s at end of statement", t)
}

// countAhead counts the tokens of kind k at parenthesis depth 0 from
// the current token to the end of the statement, to size a list.
func (p *parser) countAhead(k TokKind) int {
	n, depth := 0, 0
	for _, t := range p.toks[p.pos:] {
		switch t.Kind {
		case TokNewline, TokEOF:
			return n
		case TokLParen:
			depth++
		case TokRParen:
			depth--
		}
		if t.Kind == k && depth == 0 {
			n++
		}
	}
	return n
}

// popStmts returns a copy of the statements stacked from base on and
// unstacks them; a block without statements is nil.
func (p *parser) popStmts(base int) []Stmt {
	if len(p.stmts) == base {
		return nil
	}
	out := p.lists.clone(p.stmts[base:])
	clear(p.stmts[base:])
	p.stmts = p.stmts[:base]
	return out
}

func (p *parser) program(prog *Program) (*Program, error) {
	p.skipNewlines()
	if err := p.expectKw("subroutine"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "subroutine name")
	if err != nil {
		return nil, err
	}
	prog.Name = name.Text
	if p.kind() == TokLParen {
		p.pos++
		if n := p.countAhead(TokIdent); n > 0 {
			prog.Params = p.strs.make(n)[:0]
		}
		for p.kind() != TokRParen {
			id, err := p.expect(TokIdent, "parameter name")
			if err != nil {
				return nil, err
			}
			prog.Params = append(prog.Params, id.Text)
			if p.kind() == TokComma {
				p.pos++
			}
		}
		p.pos++
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	p.skipNewlines()

	// Declarations.
	for p.atKw("integer") || p.atKw("real") || p.atKw("dimension") {
		d, err := p.decl()
		if err != nil {
			return nil, err
		}
		p.declStack = append(p.declStack, d)
		p.skipNewlines()
	}
	prog.Decls = p.declPs.clone(p.declStack)

	// Body.
	for {
		p.skipNewlines()
		t := p.cur()
		if t.Kind == TokEOF {
			break
		}
		if p.atKw("end") {
			p.pos++
			break
		}
		if p.atKw("return") || p.atKw("continue") {
			p.pos++
			if err := p.endOfStmt(); err != nil {
				return nil, err
			}
			continue
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	prog.Body = p.popStmts(0)
	return prog, nil
}

func (p *parser) decl() (*Decl, error) {
	t := p.next() // integer / real / dimension
	d := p.decls.new()
	d.Line = t.Line
	switch t.Text {
	case "integer":
		d.Type = TInteger
	case "real", "dimension":
		d.Type = TReal
	}
	// Optional *4 / *8 width suffix on real.
	if p.kind() == TokStar {
		p.pos++
		if _, err := p.expect(TokInt, "type width"); err != nil {
			return nil, err
		}
	}
	d.Names = p.names.make(p.countAhead(TokComma) + 1)[:0]
	for {
		id, err := p.expect(TokIdent, "declared name")
		if err != nil {
			return nil, err
		}
		dn := DeclName{Name: id.Text}
		if p.kind() == TokLParen {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			dn.Dim = e
			if _, err := p.expect(TokRParen, ")"); err != nil {
				return nil, err
			}
		}
		d.Names = append(d.Names, dn)
		if p.kind() != TokComma {
			break
		}
		p.pos++
	}
	return d, p.endOfStmt()
}

func (p *parser) stmtBlock(terminators ...string) ([]Stmt, string, error) {
	base := len(p.stmts)
	for {
		p.skipNewlines()
		t := p.cur()
		if t.Kind == TokEOF {
			return nil, "", errf(t.Line, "unexpected end of file inside block")
		}
		if t.Kind == TokKw {
			for _, term := range terminators {
				if t.Text == term {
					p.pos++
					return p.popStmts(base), term, nil
				}
			}
			// "end do" / "end if" two-word forms.
			if t.Text == "end" {
				nt := p.toks[p.pos+1]
				if nt.Kind == TokKw && (nt.Text == "do" || nt.Text == "if") {
					for _, term := range terminators {
						if term == "end"+nt.Text {
							p.pos += 2
							return p.popStmts(base), term, nil
						}
					}
				}
			}
			if t.Text == "continue" {
				p.pos++
				if err := p.endOfStmt(); err != nil {
					return nil, "", err
				}
				continue
			}
		}
		s, err := p.stmt()
		if err != nil {
			return nil, "", err
		}
		p.stmts = append(p.stmts, s)
	}
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.atKw("do"):
		return p.doStmt()
	case p.atKw("if"):
		return p.ifStmt()
	case t.Kind == TokIdent:
		lhs, err := p.primary()
		if err != nil {
			return nil, err
		}
		switch lhs.(type) {
		case *VarRef, *ArrayRef:
		default:
			return nil, errf(t.Line, "assignment target must be a variable or array element")
		}
		if _, err := p.expect(TokAssign, "="); err != nil {
			return nil, err
		}
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		a := p.assigns.new()
		a.Lhs, a.Rhs, a.Line = lhs, rhs, t.Line
		return a, p.endOfStmt()
	case t.Kind == TokKw && (t.Text == "call" || t.Text == "goto"):
		return nil, errf(t.Line, "%s statements cannot be modulo scheduled (paper, Section 6)", t.Text)
	}
	return nil, errf(t.Line, "unexpected %s", t)
}

func (p *parser) doStmt() (Stmt, error) {
	t := p.next() // do
	// Optional label form: "do 10 i = ..." with "10 continue" terminator
	// is not supported; use end do.
	if p.kind() == TokInt {
		return nil, errf(t.Line, "labelled DO loops are not supported; use END DO")
	}
	v, err := p.expect(TokIdent, "loop variable")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign, "="); err != nil {
		return nil, err
	}
	lo, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma, ","); err != nil {
		return nil, err
	}
	hi, err := p.expr()
	if err != nil {
		return nil, err
	}
	var step Expr
	if p.kind() == TokComma {
		p.pos++
		step, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	body, _, err := p.stmtBlock("enddo")
	if err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	do := p.dos.new()
	do.Var, do.Lo, do.Hi, do.Step, do.Body, do.Line = v.Text, lo, hi, step, body, t.Line
	return do, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	t := p.next() // if
	if _, err := p.expect(TokLParen, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	if !p.atKw("then") {
		// Single-statement logical IF: if (cond) stmt
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return p.ifStmtNode(cond, p.lists.clone([]Stmt{s}), nil, t.Line), nil
	}
	p.pos++ // then
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	thenBlk, term, err := p.stmtBlock("else", "elseif", "endif")
	if err != nil {
		return nil, err
	}
	var elseBlk []Stmt
	switch term {
	case "else":
		if p.atKw("if") {
			// ELSE IF chain: the nested IF is the entire else branch and
			// consumes the shared END IF.
			nested, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			return p.ifStmtNode(cond, thenBlk, p.lists.clone([]Stmt{nested}), t.Line), nil
		}
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		elseBlk, _, err = p.stmtBlock("endif")
		if err != nil {
			return nil, err
		}
	case "elseif":
		nested, err := p.elseifStmt()
		if err != nil {
			return nil, err
		}
		return p.ifStmtNode(cond, thenBlk, p.lists.clone([]Stmt{nested}), t.Line), nil
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	return p.ifStmtNode(cond, thenBlk, elseBlk, t.Line), nil
}

// elseifStmt parses the remainder of an ELSEIF (cond) THEN … chain; the
// ELSEIF keyword has already been consumed.
func (p *parser) elseifStmt() (Stmt, error) {
	t := p.toks[p.pos-1]
	if _, err := p.expect(TokLParen, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	if !p.atKw("then") {
		return nil, errf(t.Line, "elseif requires THEN")
	}
	p.pos++
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	thenBlk, term, err := p.stmtBlock("else", "elseif", "endif")
	if err != nil {
		return nil, err
	}
	var elseBlk []Stmt
	switch term {
	case "else":
		if p.atKw("if") {
			nested, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			return p.ifStmtNode(cond, thenBlk, p.lists.clone([]Stmt{nested}), t.Line), nil
		}
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		elseBlk, _, err = p.stmtBlock("endif")
		if err != nil {
			return nil, err
		}
	case "elseif":
		nested, err := p.elseifStmt()
		if err != nil {
			return nil, err
		}
		return p.ifStmtNode(cond, thenBlk, p.lists.clone([]Stmt{nested}), t.Line), nil
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	return p.ifStmtNode(cond, thenBlk, elseBlk, t.Line), nil
}

// Expression grammar, loosest first:
//
//	expr   := orExpr
//	orExpr := andExpr (".or." andExpr)*
//	andExpr:= notExpr (".and." notExpr)*
//	notExpr:= [".not."] relExpr
//	relExpr:= addExpr [relop addExpr]
//	addExpr:= mulExpr (("+"|"-") mulExpr)*
//	mulExpr:= unary (("*"|"/") unary)*
//	unary  := ["-"] primary
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.kind() == TokOr {
		t := p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = p.binary("||", l, r, t.Line)
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.kind() == TokAnd {
		t := p.next()
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = p.binary("&&", l, r, t.Line)
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.kind() == TokNot {
		t := p.next()
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return p.unaryOp("!", x, t.Line), nil
	}
	return p.relExpr()
}

func (p *parser) relExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.kind() == TokRelop {
		t := p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return p.binary(t.Text, l, r, t.Line), nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.kind() == TokPlus || p.kind() == TokMinus {
		t := p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		op := "+"
		if t.Kind == TokMinus {
			op = "-"
		}
		l = p.binary(op, l, r, t.Line)
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.kind() == TokStar || p.kind() == TokSlash {
		t := p.next()
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		op := "*"
		if t.Kind == TokSlash {
			op = "/"
		}
		l = p.binary(op, l, r, t.Line)
	}
	return l, nil
}

func (p *parser) unary() (Expr, error) {
	if p.kind() == TokMinus {
		t := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return p.unaryOp("-", x, t.Line), nil
	}
	if p.kind() == TokPlus {
		p.pos++
		return p.unary()
	}
	return p.primary()
}

var intrinsics = map[string]int{
	"sqrt": 1, "abs": 1, "real": 1, "int": 1, "float": 1,
	"mod": 2, "max": 2, "min": 2, "amax1": 2, "amin1": 2,
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	// REAL(x) conversion: "real" lexes as a keyword but is an intrinsic
	// in expression position.
	if t.Kind == TokKw && t.Text == "real" && p.toks[p.pos+1].Kind == TokLParen {
		p.pos += 2
		arg, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return p.call("real", p.exprs.clone([]Expr{arg}), t.Line), nil
	}
	switch t.Kind {
	case TokInt:
		p.pos++
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Line, "bad integer literal %q", t.Text)
		}
		e := p.ints.new()
		e.Val, e.Line = v, t.Line
		return e, nil
	case TokReal:
		p.pos++
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Line, "bad real literal %q", t.Text)
		}
		e := p.reals.new()
		e.Val, e.Line = v, t.Line
		return e, nil
	case TokLParen:
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		p.pos++
		if p.kind() != TokLParen {
			e := p.vars.new()
			e.Name, e.Line = t.Text, t.Line
			return e, nil
		}
		p.pos++
		if arity, ok := intrinsics[t.Text]; ok {
			args := p.exprs.make(arity)[:0]
			for {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.kind() != TokComma {
					break
				}
				p.pos++
			}
			if _, err := p.expect(TokRParen, ")"); err != nil {
				return nil, err
			}
			if len(args) != arity {
				return nil, errf(t.Line, "%s takes %d argument(s), got %d", t.Text, arity, len(args))
			}
			return p.call(t.Text, args, t.Line), nil
		}
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		e := p.arrays.new()
		e.Name, e.Index, e.Line = t.Text, idx, t.Line
		return e, nil
	}
	return nil, errf(t.Line, "unexpected %s in expression", t)
}
