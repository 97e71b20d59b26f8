// Package parser implements the recursive-descent parser for the W2
// language. It builds the syntax tree declared in internal/ast and performs
// no name or type resolution; those are the checker's job (internal/sem).
//
// In the parallel compiler the master parses a module once: ParseOutline
// discovers the structure (how many sections, how many functions per
// section) for partitioning and keeps the tree, which the master's frontend
// then checks. A remote worker that has no cached frontend for the source
// parses it again in its own frontend. Every use goes through Parse.
package parser

import (
	"fmt"
	"strconv"

	"repro/internal/ast"
	"repro/internal/source"
)

// Parse parses a complete W2 module from src. Syntax errors are reported to
// diags; the returned module is non-nil whenever the "module" header parsed,
// even in the presence of errors, but callers must consult diags before
// trusting it.
func Parse(file string, src []byte, diags *source.DiagBag) *ast.Module {
	p := &parser{diags: diags, sc: source.NewScanner(file, src, diags)}
	p.next()
	m := p.module()
	if p.tok != source.EOF {
		p.errorf("unexpected %s after end of module", p.tokDesc())
	}
	return m
}

// ParseExpr parses a single expression, used by tests and tools.
func ParseExpr(src string, diags *source.DiagBag) ast.Expr {
	p := &parser{diags: diags, sc: source.NewScanner("<expr>", []byte(src), diags)}
	p.next()
	e := p.expr()
	if p.tok != source.EOF {
		p.errorf("unexpected %s after expression", p.tokDesc())
	}
	return e
}

type parser struct {
	sc    *source.Scanner
	diags *source.DiagBag

	tok source.Token
	lit string
	pos source.Pos
}

func (p *parser) next() {
	p.tok, p.lit, p.pos = p.sc.Next()
}

func (p *parser) tokDesc() string {
	if p.tok.IsLiteral() {
		return fmt.Sprintf("%s %q", p.tok, p.lit)
	}
	return fmt.Sprintf("%q", p.tok.String())
}

func (p *parser) errorf(format string, args ...any) {
	p.diags.Errorf(p.pos, format, args...)
}

// expect consumes the current token if it is tok, else reports an error and
// leaves the token in place (the caller's recovery logic decides how to
// resynchronize).
func (p *parser) expect(tok source.Token) source.Pos {
	pos := p.pos
	if p.tok != tok {
		p.errorf("expected %q, found %s", tok.String(), p.tokDesc())
		return pos
	}
	p.next()
	return pos
}

// accept consumes the current token if it is tok and reports whether it did.
func (p *parser) accept(tok source.Token) bool {
	if p.tok == tok {
		p.next()
		return true
	}
	return false
}

// sync skips tokens until one of the given tokens (or EOF) is current. It is
// the parser's panic-mode recovery.
func (p *parser) sync(stop ...source.Token) {
	for p.tok != source.EOF {
		for _, s := range stop {
			if p.tok == s {
				return
			}
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) module() *ast.Module {
	m := &ast.Module{ModulePos: p.pos}
	p.expect(source.MODULE)
	m.Name = p.ident("module name")

	if p.accept(source.LPAREN) {
		if p.tok != source.RPAREN {
			m.Streams = append(m.Streams, p.streamParam())
			for p.accept(source.COMMA) {
				m.Streams = append(m.Streams, p.streamParam())
			}
		}
		p.expect(source.RPAREN)
	}

	for p.tok == source.SECTION {
		m.Sections = append(m.Sections, p.section())
	}
	if len(m.Sections) == 0 {
		p.errorf("module %s declares no sections", m.Name)
	}
	return m
}

func (p *parser) streamParam() *ast.StreamParam {
	sp := &ast.StreamParam{NamePos: p.pos}
	switch p.tok {
	case source.IN:
		sp.Dir = ast.StreamIn
		p.next()
	case source.OUT:
		sp.Dir = ast.StreamOut
		p.next()
	default:
		p.errorf("expected \"in\" or \"out\" in stream parameter, found %s", p.tokDesc())
	}
	sp.Name = p.ident("stream name")
	p.expect(source.COLON)
	sp.Type = p.typeExpr()
	return sp
}

func (p *parser) section() *ast.Section {
	s := &ast.Section{SectionPos: p.pos}
	p.expect(source.SECTION)
	s.Index = p.intLit("section number")
	if p.accept(source.OF) {
		s.Of = p.intLit("section count")
	}
	s.LbracePos = p.expect(source.LBRACE)
	for p.tok == source.FUNCTION {
		f := p.funcDecl()
		f.SectionIndex = s.Index
		f.FuncIndex = len(s.Funcs)
		s.Funcs = append(s.Funcs, f)
	}
	if len(s.Funcs) == 0 {
		p.errorf("section %d declares no functions", s.Index)
	}
	p.expect(source.RBRACE)
	return s
}

func (p *parser) funcDecl() *ast.FuncDecl {
	f := &ast.FuncDecl{FuncPos: p.pos}
	p.expect(source.FUNCTION)
	f.Name = p.ident("function name")
	p.expect(source.LPAREN)
	if p.tok != source.RPAREN {
		f.Params = append(f.Params, p.param())
		for p.accept(source.COMMA) {
			f.Params = append(f.Params, p.param())
		}
	}
	p.expect(source.RPAREN)
	if p.accept(source.COLON) {
		f.Result = p.typeExpr()
	}
	f.Body = p.block()
	return f
}

func (p *parser) param() *ast.Param {
	prm := &ast.Param{NamePos: p.pos}
	prm.Name = p.ident("parameter name")
	p.expect(source.COLON)
	prm.Type = p.typeExpr()
	return prm
}

func (p *parser) typeExpr() *ast.TypeExpr {
	t := &ast.TypeExpr{NamePos: p.pos}
	t.Name = p.ident("type name")
	switch t.Name {
	case "int", "float", "bool", "":
	default:
		p.diags.Errorf(t.NamePos, "unknown type %q (want int, float, or bool)", t.Name)
	}
	for p.tok == source.LBRACK {
		p.next()
		t.Dims = append(t.Dims, p.intLit("array dimension"))
		p.expect(source.RBRACK)
	}
	return t
}

func (p *parser) ident(what string) string {
	if p.tok != source.IDENT {
		p.errorf("expected %s, found %s", what, p.tokDesc())
		return ""
	}
	name := p.lit
	p.next()
	return name
}

func (p *parser) intLit(what string) int {
	if p.tok != source.INT {
		p.errorf("expected %s, found %s", what, p.tokDesc())
		return 0
	}
	v, err := strconv.Atoi(p.lit)
	if err != nil {
		p.errorf("integer %q out of range", p.lit)
	}
	p.next()
	return v
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) block() *ast.Block {
	b := &ast.Block{LbracePos: p.pos}
	p.expect(source.LBRACE)
	for p.tok != source.RBRACE && p.tok != source.EOF {
		before := p.pos
		b.Stmts = append(b.Stmts, p.stmt())
		if p.pos == before {
			// No progress (cascading error): skip to a statement boundary.
			p.sync(source.SEMICOLON, source.RBRACE)
			p.accept(source.SEMICOLON)
		}
	}
	b.RbracePos = p.expect(source.RBRACE)
	return b
}

func (p *parser) stmt() ast.Stmt {
	switch p.tok {
	case source.VAR:
		return p.varDecl()
	case source.IF:
		return p.ifStmt()
	case source.WHILE:
		return p.whileStmt()
	case source.FOR:
		return p.forStmt()
	case source.RETURN:
		pos := p.pos
		p.next()
		r := &ast.Return{ReturnPos: pos}
		if p.tok != source.SEMICOLON {
			r.Value = p.expr()
		}
		p.expect(source.SEMICOLON)
		return r
	case source.RECEIVE:
		return p.receiveStmt()
	case source.SEND:
		return p.sendStmt()
	case source.BREAK:
		pos := p.pos
		p.next()
		p.expect(source.SEMICOLON)
		return &ast.Break{BreakPos: pos}
	case source.CONTINUE:
		pos := p.pos
		p.next()
		p.expect(source.SEMICOLON)
		return &ast.Continue{ContinuePos: pos}
	case source.LBRACE:
		return p.block()
	default:
		return p.simpleStmt()
	}
}

func (p *parser) varDecl() ast.Stmt {
	v := &ast.VarDecl{VarPos: p.pos}
	p.expect(source.VAR)
	v.Name = p.ident("variable name")
	p.expect(source.COLON)
	v.Type = p.typeExpr()
	if p.accept(source.ASSIGN) {
		v.Init = p.expr()
	}
	p.expect(source.SEMICOLON)
	return v
}

func (p *parser) ifStmt() ast.Stmt {
	s := &ast.If{IfPos: p.pos}
	p.expect(source.IF)
	s.Cond = p.expr()
	s.Then = p.block()
	if p.accept(source.ELSE) {
		if p.tok == source.IF {
			s.Else = p.ifStmt()
		} else {
			s.Else = p.block()
		}
	}
	return s
}

func (p *parser) whileStmt() ast.Stmt {
	s := &ast.While{WhilePos: p.pos}
	p.expect(source.WHILE)
	s.Cond = p.expr()
	s.Body = p.block()
	return s
}

func (p *parser) forStmt() ast.Stmt {
	s := &ast.For{ForPos: p.pos}
	p.expect(source.FOR)
	namePos := p.pos
	s.Var = &ast.Ident{NamePos: namePos, Name: p.ident("loop variable")}
	p.expect(source.ASSIGN)
	s.Lo = p.expr()
	p.expect(source.TO)
	s.Hi = p.expr()
	if p.accept(source.STEP) {
		s.Step = p.expr()
	}
	s.Body = p.block()
	return s
}

func (p *parser) receiveStmt() ast.Stmt {
	s := &ast.Receive{RecvPos: p.pos}
	p.expect(source.RECEIVE)
	p.expect(source.LPAREN)
	s.Chan = p.channel()
	p.expect(source.COMMA)
	s.LHS = p.expr()
	p.expect(source.RPAREN)
	p.expect(source.SEMICOLON)
	return s
}

func (p *parser) sendStmt() ast.Stmt {
	s := &ast.Send{SendPos: p.pos}
	p.expect(source.SEND)
	p.expect(source.LPAREN)
	s.Chan = p.channel()
	p.expect(source.COMMA)
	s.Value = p.expr()
	p.expect(source.RPAREN)
	p.expect(source.SEMICOLON)
	return s
}

// channel parses a systolic channel name. The Warp cell has an X and a Y
// pathway; the parser accepts any identifier and validates the spelling so
// the checker does not need a special case.
func (p *parser) channel() string {
	pos := p.pos
	name := p.ident("channel name (X or Y)")
	if name != "X" && name != "Y" {
		p.diags.Errorf(pos, "unknown channel %q (want X or Y)", name)
	}
	return name
}

func (p *parser) simpleStmt() ast.Stmt {
	lhs := p.expr()
	if p.accept(source.ASSIGN) {
		rhs := p.expr()
		p.expect(source.SEMICOLON)
		return &ast.Assign{LHS: lhs, RHS: rhs}
	}
	p.expect(source.SEMICOLON)
	return &ast.ExprStmt{X: lhs}
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) expr() ast.Expr {
	return p.binaryExpr(1)
}

func (p *parser) binaryExpr(minPrec int) ast.Expr {
	x := p.unaryExpr()
	for {
		prec := p.tok.Precedence()
		if prec < minPrec {
			return x
		}
		op := p.tok
		p.next()
		y := p.binaryExpr(prec + 1)
		x = &ast.BinaryExpr{Op: op, X: x, Y: y}
	}
}

func (p *parser) unaryExpr() ast.Expr {
	switch p.tok {
	case source.SUB, source.NOT:
		op, pos := p.tok, p.pos
		p.next()
		return &ast.UnaryExpr{OpPos: pos, Op: op, X: p.unaryExpr()}
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() ast.Expr {
	var x ast.Expr
	switch p.tok {
	case source.IDENT:
		id := &ast.Ident{NamePos: p.pos, Name: p.lit}
		p.next()
		if p.tok == source.LPAREN {
			x = p.callExpr(id)
		} else {
			x = id
		}
	case source.INT:
		v, err := strconv.ParseInt(p.lit, 10, 64)
		if err != nil {
			p.errorf("integer literal %q out of range", p.lit)
		}
		x = &ast.IntLit{LitPos: p.pos, Value: v}
		p.next()
	case source.FLOAT:
		v, err := strconv.ParseFloat(p.lit, 64)
		if err != nil {
			p.errorf("malformed float literal %q", p.lit)
		}
		x = &ast.FloatLit{LitPos: p.pos, Value: v}
		p.next()
	case source.TRUE, source.FALSE:
		x = &ast.BoolLit{LitPos: p.pos, Value: p.tok == source.TRUE}
		p.next()
	case source.LPAREN:
		p.next()
		x = p.expr()
		p.expect(source.RPAREN)
	default:
		p.errorf("expected expression, found %s", p.tokDesc())
		bad := &ast.IntLit{LitPos: p.pos, Value: 0}
		p.next() // make progress
		return bad
	}

	for p.tok == source.LBRACK {
		p.next()
		idx := p.expr()
		p.expect(source.RBRACK)
		x = &ast.IndexExpr{X: x, Index: idx}
	}
	return x
}

func (p *parser) callExpr(fun *ast.Ident) ast.Expr {
	call := &ast.CallExpr{Fun: fun}
	p.expect(source.LPAREN)
	if p.tok != source.RPAREN {
		call.Args = append(call.Args, p.expr())
		for p.accept(source.COMMA) {
			call.Args = append(call.Args, p.expr())
		}
	}
	p.expect(source.RPAREN)
	return call
}
