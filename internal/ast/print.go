package ast

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Fprint writes m back out as W2 source text. The output re-parses to an
// equivalent tree, which the parser tests rely on (print/parse round trip).
func Fprint(w io.Writer, m *Module) error {
	p := &printer{w: w}
	p.module(m)
	return p.err
}

// Format returns the module as W2 source text.
func Format(m *Module) string {
	var sb strings.Builder
	Fprint(&sb, m) // strings.Builder never errors
	return sb.String()
}

type printer struct {
	w      io.Writer
	indent int
	err    error
}

func (p *printer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *printer) line(format string, args ...any) {
	p.printf("%s", strings.Repeat("    ", p.indent))
	p.printf(format, args...)
	p.printf("\n")
}

func (p *printer) module(m *Module) {
	p.printf("module %s", m.Name)
	if len(m.Streams) > 0 {
		p.printf(" (")
		for i, s := range m.Streams {
			if i > 0 {
				p.printf(", ")
			}
			p.printf("%s %s: %s", s.Dir, s.Name, typeExprString(s.Type))
		}
		p.printf(")")
	}
	p.printf("\n")
	for _, sec := range m.Sections {
		p.printf("\n")
		p.section(sec)
	}
}

func (p *printer) section(s *Section) {
	if s.Of > 0 {
		p.line("section %d of %d {", s.Index, s.Of)
	} else {
		p.line("section %d {", s.Index)
	}
	p.indent++
	for i, f := range s.Funcs {
		if i > 0 {
			p.printf("\n")
		}
		p.funcDecl(f)
	}
	p.indent--
	p.line("}")
}

func (p *printer) funcDecl(f *FuncDecl) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "function %s(", f.Name)
	for i, prm := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s: %s", prm.Name, typeExprString(prm.Type))
	}
	sb.WriteString(")")
	if f.Result != nil {
		fmt.Fprintf(&sb, ": %s", typeExprString(f.Result))
	}
	sb.WriteString(" {")
	p.line("%s", sb.String())
	p.indent++
	for _, st := range f.Body.Stmts {
		p.stmt(st)
	}
	p.indent--
	p.line("}")
}

func typeExprString(t *TypeExpr) string {
	var sb strings.Builder
	sb.WriteString(t.Name)
	for _, d := range t.Dims {
		fmt.Fprintf(&sb, "[%d]", d)
	}
	return sb.String()
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		p.line("{")
		p.indent++
		for _, st := range s.Stmts {
			p.stmt(st)
		}
		p.indent--
		p.line("}")
	case *VarDecl:
		if s.Init != nil {
			p.line("var %s: %s = %s;", s.Name, typeExprString(s.Type), ExprString(s.Init))
		} else {
			p.line("var %s: %s;", s.Name, typeExprString(s.Type))
		}
	case *Assign:
		p.line("%s = %s;", ExprString(s.LHS), ExprString(s.RHS))
	case *If:
		p.line("if %s {", ExprString(s.Cond))
		p.indent++
		for _, st := range s.Then.Stmts {
			p.stmt(st)
		}
		p.indent--
		switch e := s.Else.(type) {
		case nil:
			p.line("}")
		case *Block:
			p.line("} else {")
			p.indent++
			for _, st := range e.Stmts {
				p.stmt(st)
			}
			p.indent--
			p.line("}")
		case *If:
			// Render "else if" by printing the nested if inline.
			p.line("} else {")
			p.indent++
			p.stmt(e)
			p.indent--
			p.line("}")
		}
	case *While:
		p.line("while %s {", ExprString(s.Cond))
		p.indent++
		for _, st := range s.Body.Stmts {
			p.stmt(st)
		}
		p.indent--
		p.line("}")
	case *For:
		hdr := fmt.Sprintf("for %s = %s to %s", s.Var.Name, ExprString(s.Lo), ExprString(s.Hi))
		if s.Step != nil {
			hdr += " step " + ExprString(s.Step)
		}
		p.line("%s {", hdr)
		p.indent++
		for _, st := range s.Body.Stmts {
			p.stmt(st)
		}
		p.indent--
		p.line("}")
	case *Return:
		if s.Value != nil {
			p.line("return %s;", ExprString(s.Value))
		} else {
			p.line("return;")
		}
	case *ExprStmt:
		p.line("%s;", ExprString(s.X))
	case *Receive:
		p.line("receive(%s, %s);", s.Chan, ExprString(s.LHS))
	case *Send:
		p.line("send(%s, %s);", s.Chan, ExprString(s.Value))
	case *Break:
		p.line("break;")
	case *Continue:
		p.line("continue;")
	default:
		p.line("/* unknown statement %T */", s)
	}
}

// ExprString renders an expression as source text with minimal, correct
// parenthesization.
func ExprString(e Expr) string {
	return exprString(e, 0)
}

func exprString(e Expr, outerPrec int) string {
	switch e := e.(type) {
	case *Ident:
		return e.Name
	case *IntLit:
		return strconv.FormatInt(e.Value, 10)
	case *FloatLit:
		s := strconv.FormatFloat(e.Value, 'g', -1, 64)
		// Ensure the literal re-scans as FLOAT, not INT.
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *BoolLit:
		if e.Value {
			return "true"
		}
		return "false"
	case *BinaryExpr:
		prec := e.Op.Precedence()
		s := exprString(e.X, prec) + " " + e.Op.String() + " " + exprString(e.Y, prec+1)
		if prec < outerPrec {
			return "(" + s + ")"
		}
		return s
	case *UnaryExpr:
		const unaryPrec = 6
		s := e.Op.String() + exprString(e.X, unaryPrec)
		if unaryPrec < outerPrec {
			return "(" + s + ")"
		}
		return s
	case *CallExpr:
		var sb strings.Builder
		sb.WriteString(e.Fun.Name)
		sb.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(exprString(a, 0))
		}
		sb.WriteString(")")
		return sb.String()
	case *IndexExpr:
		return exprString(e.X, 7) + "[" + exprString(e.Index, 0) + "]"
	}
	return fmt.Sprintf("/*?%T*/", e)
}

// CountLines returns the number of source lines the module formats to,
// which is the "lines of code" metric the paper uses to size functions
// (Figure 7 plots speedup against lines of code).
func CountLines(m *Module) int {
	return strings.Count(Format(m), "\n")
}

// FuncLines returns the formatted line count of a single function: the
// lines Format prints for it. It counts what the printer emits instead of
// printing, so it allocates nothing.
func FuncLines(f *FuncDecl) int {
	return 2 + stmtsLines(f.Body.Stmts) // header and closing brace
}

func stmtsLines(stmts []Stmt) int {
	n := 0
	for _, s := range stmts {
		n += stmtLines(s)
	}
	return n
}

// stmtLines mirrors printer.stmt: a statement prints one line, and one with
// a body adds the body's lines and a closing-brace line.
func stmtLines(s Stmt) int {
	switch s := s.(type) {
	case *Block:
		return 2 + stmtsLines(s.Stmts)
	case *If:
		n := 1 + stmtsLines(s.Then.Stmts)
		switch e := s.Else.(type) {
		case nil:
			return n + 1
		case *Block:
			return n + 2 + stmtsLines(e.Stmts) // "} else {" and "}"
		case *If:
			return n + 2 + stmtLines(e)
		}
		return n
	case *While:
		return 2 + stmtsLines(s.Body.Stmts)
	case *For:
		return 2 + stmtsLines(s.Body.Stmts)
	}
	return 1
}
