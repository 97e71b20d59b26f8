package sem

import (
	"repro/internal/ast"
	"repro/internal/source"
	"repro/internal/types"
)

// Info holds the results of checking a module.
type Info struct {
	// Uses maps every resolved identifier use to its object.
	Uses map[*ast.Ident]*Object
	// FuncObjs maps each function declaration to its object.
	FuncObjs map[*ast.FuncDecl]*Object
	// Locals lists, per function, every local variable and parameter object
	// in declaration order; code generation uses it for frame layout.
	Locals map[*ast.FuncDecl][]*Object
}

// ObjectOf returns the object an identifier resolves to, or nil.
func (i *Info) ObjectOf(id *ast.Ident) *Object { return i.Uses[id] }

// Check type-checks the module and reports problems to diags. The returned
// Info is valid even when errors were found, but callers must consult diags
// before code generation.
func Check(m *ast.Module, diags *source.DiagBag) *Info {
	c := &checker{diags: diags, info: newInfo()}
	c.module(m)
	return c.info
}

type checker struct {
	diags *source.DiagBag
	info  *Info

	fn        *ast.FuncDecl // function being checked
	loopDepth int
}

func (c *checker) errorf(pos source.Pos, format string, args ...any) {
	c.diags.Errorf(pos, format, args...)
}

// ---------------------------------------------------------------------------
// Declarations

func (c *checker) module(m *ast.Module) {
	moduleScope := NewScope(nil)
	for _, sp := range m.Streams {
		t := c.resolveType(sp.Type)
		obj := &Object{Name: sp.Name, Kind: StreamObj, Type: t, Pos: sp.Pos(), Decl: sp}
		if prev := moduleScope.Insert(obj); prev != nil {
			c.errorf(sp.Pos(), "stream %s redeclared (previous declaration at %s)", sp.Name, prev.Pos)
		}
	}

	seenSection := make(map[int]source.Pos)
	for _, sec := range m.Sections {
		if pos, dup := seenSection[sec.Index]; dup {
			c.errorf(sec.Pos(), "section %d redeclared (previous declaration at %s)", sec.Index, pos)
		}
		seenSection[sec.Index] = sec.Pos()
		if sec.Of != 0 && sec.Of != len(m.Sections) {
			c.errorf(sec.Pos(), "section %d declares \"of %d\" but module has %d sections",
				sec.Index, sec.Of, len(m.Sections))
		}
		c.section(sec, moduleScope)
	}
}

// section checks the functions of one section. Function names live in a
// per-section scope; a function may call only functions declared before it
// in the same section, which rules out recursion and keeps functions
// independently compilable (the paper's "minimal inter-procedural
// optimization").
func (c *checker) section(sec *ast.Section, moduleScope *Scope) {
	secScope := NewScope(moduleScope)
	for _, fn := range sec.Funcs {
		sig := c.signature(fn)
		fn.Sig = sig
		obj := &Object{Name: fn.Name, Kind: FuncObj, Type: sig, Pos: fn.Pos(), Decl: fn}
		c.info.FuncObjs[fn] = obj
		// Check the body BEFORE inserting the function's own name, so the
		// body cannot call the function recursively.
		c.funcBody(fn, secScope)
		if prev := secScope.Insert(obj); prev != nil {
			c.errorf(fn.Pos(), "function %s redeclared in section %d (previous declaration at %s)",
				fn.Name, sec.Index, prev.Pos)
		}
	}
}

func (c *checker) signature(fn *ast.FuncDecl) *types.Func {
	sig := &types.Func{Result: types.VoidType}
	for _, p := range fn.Params {
		t := c.resolveType(p.Type)
		if !types.IsScalar(t) && !types.IsInvalid(t) {
			c.errorf(p.Pos(), "parameter %s of function %s has non-scalar type %s (signatures must be scalar)",
				p.Name, fn.Name, t)
			t = types.InvalidType
		}
		sig.Params = append(sig.Params, t)
	}
	if fn.Result != nil {
		t := c.resolveType(fn.Result)
		if !types.IsScalar(t) && !types.IsInvalid(t) {
			c.errorf(fn.Result.Pos(), "result of function %s has non-scalar type %s (signatures must be scalar)",
				fn.Name, t)
			t = types.InvalidType
		}
		sig.Result = t
	}
	return sig
}

func (c *checker) funcBody(fn *ast.FuncDecl, secScope *Scope) {
	c.fn = fn
	c.loopDepth = 0
	fnScope := NewScope(secScope)
	for _, p := range fn.Params {
		obj := &Object{Name: p.Name, Kind: ParamObj, Type: c.resolveType(p.Type), Pos: p.Pos(), Decl: p}
		if prev := fnScope.Insert(obj); prev != nil {
			c.errorf(p.Pos(), "parameter %s redeclared (previous declaration at %s)", p.Name, prev.Pos)
		} else {
			c.info.Locals[fn] = append(c.info.Locals[fn], obj)
		}
	}
	c.block(fn.Body, fnScope)
	if !fn.Sig.Result.Equal(types.VoidType) && !blockReturns(fn.Body) {
		c.errorf(fn.Pos(), "function %s: missing return (not all paths return a %s value)",
			fn.Name, fn.Sig.Result)
	}
	c.fn = nil
}

func (c *checker) resolveType(te *ast.TypeExpr) types.Type {
	if te == nil {
		return types.InvalidType
	}
	var base types.Type
	switch te.Name {
	case "int":
		base = types.IntType
	case "float":
		base = types.FloatType
	case "bool":
		base = types.BoolType
	default:
		base = types.InvalidType
	}
	// Dims are written outermost first: float[2][3] is a 2-array of 3-arrays.
	t := base
	for i := len(te.Dims) - 1; i >= 0; i-- {
		d := te.Dims[i]
		if d <= 0 {
			c.errorf(te.Pos(), "array dimension must be positive, got %d", d)
			d = 1
		}
		t = &types.Array{Elem: t, Len: d}
	}
	te.T = t
	return t
}

// ---------------------------------------------------------------------------
// Statements

func (c *checker) block(b *ast.Block, outer *Scope) {
	scope := NewScope(outer)
	for _, s := range b.Stmts {
		c.stmt(s, scope)
	}
}

func (c *checker) stmt(s ast.Stmt, scope *Scope) {
	switch s := s.(type) {
	case *ast.Block:
		c.block(s, scope)
	case *ast.VarDecl:
		t := c.resolveType(s.Type)
		if s.Init != nil {
			it := c.expr(s.Init, scope)
			c.assignable(s.Init.Pos(), t, it, &s.Init, "initialization of "+s.Name)
		}
		obj := &Object{Name: s.Name, Kind: VarObj, Type: t, Pos: s.Pos(), Decl: s}
		if prev := scope.Insert(obj); prev != nil {
			c.errorf(s.Pos(), "%s redeclared in this block (previous declaration at %s)", s.Name, prev.Pos)
		} else {
			c.info.Locals[c.fn] = append(c.info.Locals[c.fn], obj)
		}
	case *ast.Assign:
		lt := c.lvalue(s.LHS, scope)
		rt := c.expr(s.RHS, scope)
		c.assignable(s.Pos(), lt, rt, &s.RHS, "assignment")
	case *ast.If:
		ct := c.expr(s.Cond, scope)
		c.wantBool(s.Cond.Pos(), ct, "if condition")
		c.block(s.Then, scope)
		if s.Else != nil {
			c.stmt(s.Else, scope)
		}
	case *ast.While:
		ct := c.expr(s.Cond, scope)
		c.wantBool(s.Cond.Pos(), ct, "while condition")
		c.loopDepth++
		c.block(s.Body, scope)
		c.loopDepth--
	case *ast.For:
		obj := scope.Lookup(s.Var.Name)
		if obj == nil {
			c.errorf(s.Var.Pos(), "undeclared loop variable %s", s.Var.Name)
		} else {
			c.info.Uses[s.Var] = obj
			if obj.Kind == FuncObj || obj.Kind == StreamObj {
				c.errorf(s.Var.Pos(), "%s %s cannot be a loop variable", obj.Kind, obj.Name)
			} else if !obj.Type.Equal(types.IntType) && !types.IsInvalid(obj.Type) {
				c.errorf(s.Var.Pos(), "loop variable %s must have type int, not %s", s.Var.Name, obj.Type)
			}
			s.Var.SetType(types.IntType)
		}
		c.wantInt(s.Lo.Pos(), c.expr(s.Lo, scope), "loop lower bound")
		c.wantInt(s.Hi.Pos(), c.expr(s.Hi, scope), "loop upper bound")
		if s.Step != nil {
			c.wantInt(s.Step.Pos(), c.expr(s.Step, scope), "loop step")
			if lit, ok := s.Step.(*ast.IntLit); ok && lit.Value == 0 {
				c.errorf(s.Step.Pos(), "loop step must not be zero")
			}
		}
		c.loopDepth++
		c.block(s.Body, scope)
		c.loopDepth--
	case *ast.Return:
		var want types.Type = types.VoidType
		if c.fn != nil && c.fn.Sig != nil {
			want = c.fn.Sig.Result
		}
		if s.Value == nil {
			if !want.Equal(types.VoidType) {
				c.errorf(s.Pos(), "missing return value (function returns %s)", want)
			}
			return
		}
		if want.Equal(types.VoidType) {
			c.errorf(s.Pos(), "unexpected return value in function without result type")
			c.expr(s.Value, scope)
			return
		}
		got := c.expr(s.Value, scope)
		c.assignable(s.Pos(), want, got, &s.Value, "return")
	case *ast.ExprStmt:
		t := c.expr(s.X, scope)
		if _, ok := s.X.(*ast.CallExpr); !ok {
			c.errorf(s.Pos(), "expression statement must be a call")
		} else if !t.Equal(types.VoidType) && !types.IsInvalid(t) {
			c.diags.Warnf(s.Pos(), "result of call is discarded")
		}
	case *ast.Receive:
		lt := c.lvalue(s.LHS, scope)
		if !types.IsNumeric(lt) && !types.IsInvalid(lt) {
			c.errorf(s.Pos(), "receive target must be numeric scalar, not %s", lt)
		}
	case *ast.Send:
		vt := c.expr(s.Value, scope)
		if !types.IsNumeric(vt) && !types.IsInvalid(vt) {
			c.errorf(s.Pos(), "send value must be numeric scalar, not %s", vt)
		}
	case *ast.Break:
		if c.loopDepth == 0 {
			c.errorf(s.Pos(), "break outside loop")
		}
	case *ast.Continue:
		if c.loopDepth == 0 {
			c.errorf(s.Pos(), "continue outside loop")
		}
	}
}

// lvalue checks an assignment/receive target and returns its type.
func (c *checker) lvalue(e ast.Expr, scope *Scope) types.Type {
	switch e := e.(type) {
	case *ast.Ident:
		obj := scope.Lookup(e.Name)
		if obj == nil {
			c.errorf(e.Pos(), "undeclared name %s", e.Name)
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
		c.info.Uses[e] = obj
		if obj.Kind == FuncObj || obj.Kind == StreamObj {
			c.errorf(e.Pos(), "cannot assign to %s %s", obj.Kind, obj.Name)
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
		if !types.IsScalar(obj.Type) && !types.IsInvalid(obj.Type) {
			c.errorf(e.Pos(), "assignment target must be a scalar element, not %s", obj.Type)
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
		e.SetType(obj.Type)
		return obj.Type
	case *ast.IndexExpr:
		t := c.indexExpr(e, scope)
		if !types.IsScalar(t) && !types.IsInvalid(t) {
			c.errorf(e.Pos(), "assignment target must be a scalar element, not %s", t)
			return types.InvalidType
		}
		return t
	default:
		c.errorf(e.Pos(), "cannot assign to this expression")
		c.expr(e, scope)
		return types.InvalidType
	}
}

// assignable checks that a value of type src can be assigned to dst and
// inserts an implicit int→float widening conversion (rewriting *slot) when
// needed.
func (c *checker) assignable(pos source.Pos, dst, src types.Type, slot *ast.Expr, what string) {
	if types.IsInvalid(dst) || types.IsInvalid(src) {
		return
	}
	if dst.Equal(src) {
		return
	}
	if dst.Equal(types.FloatType) && src.Equal(types.IntType) {
		*slot = widen(*slot)
		return
	}
	c.errorf(pos, "%s: cannot use %s value as %s", what, src, dst)
}

// widen wraps e in an implicit float() conversion.
func widen(e ast.Expr) ast.Expr {
	call := &ast.CallExpr{
		Fun:     &ast.Ident{NamePos: e.Pos(), Name: "float"},
		Args:    []ast.Expr{e},
		Builtin: "float",
	}
	call.SetType(types.FloatType)
	return call
}

func (c *checker) wantBool(pos source.Pos, t types.Type, what string) {
	if !t.Equal(types.BoolType) && !types.IsInvalid(t) {
		c.errorf(pos, "%s must be bool, not %s", what, t)
	}
}

func (c *checker) wantInt(pos source.Pos, t types.Type, what string) {
	if !t.Equal(types.IntType) && !types.IsInvalid(t) {
		c.errorf(pos, "%s must be int, not %s", what, t)
	}
}

// blockReturns reports whether execution of b always reaches a return.
func blockReturns(b *ast.Block) bool {
	for _, s := range b.Stmts {
		if stmtReturns(s) {
			return true
		}
	}
	return false
}

func stmtReturns(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.Return:
		return true
	case *ast.Block:
		return blockReturns(s)
	case *ast.If:
		if s.Else == nil {
			return false
		}
		return blockReturns(s.Then) && stmtReturns(s.Else)
	}
	return false
}

// ---------------------------------------------------------------------------
// Expressions

func (c *checker) expr(e ast.Expr, scope *Scope) types.Type {
	switch e := e.(type) {
	case *ast.Ident:
		obj := scope.Lookup(e.Name)
		if obj == nil {
			c.errorf(e.Pos(), "undeclared name %s", e.Name)
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
		c.info.Uses[e] = obj
		if obj.Kind == FuncObj {
			c.errorf(e.Pos(), "function %s used as value (missing call?)", obj.Name)
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
		e.SetType(obj.Type)
		return obj.Type
	case *ast.IntLit:
		e.SetType(types.IntType)
		return types.IntType
	case *ast.FloatLit:
		e.SetType(types.FloatType)
		return types.FloatType
	case *ast.BoolLit:
		e.SetType(types.BoolType)
		return types.BoolType
	case *ast.BinaryExpr:
		return c.binaryExpr(e, scope)
	case *ast.UnaryExpr:
		xt := c.expr(e.X, scope)
		switch e.Op {
		case source.SUB:
			if !types.IsNumeric(xt) && !types.IsInvalid(xt) {
				c.errorf(e.Pos(), "operator - requires a numeric operand, not %s", xt)
				xt = types.InvalidType
			}
		case source.NOT:
			if !xt.Equal(types.BoolType) && !types.IsInvalid(xt) {
				c.errorf(e.Pos(), "operator ! requires a bool operand, not %s", xt)
				xt = types.InvalidType
			}
		}
		e.SetType(xt)
		return xt
	case *ast.CallExpr:
		return c.callExpr(e, scope)
	case *ast.IndexExpr:
		return c.indexExpr(e, scope)
	}
	return types.InvalidType
}

func (c *checker) binaryExpr(e *ast.BinaryExpr, scope *Scope) types.Type {
	xt := c.expr(e.X, scope)
	yt := c.expr(e.Y, scope)
	if types.IsInvalid(xt) || types.IsInvalid(yt) {
		e.SetType(types.InvalidType)
		return types.InvalidType
	}

	numericPair := func() types.Type {
		// Widen int operand if the other is float.
		if xt.Equal(types.FloatType) && yt.Equal(types.IntType) {
			e.Y = widen(e.Y)
			yt = types.FloatType
		}
		if yt.Equal(types.FloatType) && xt.Equal(types.IntType) {
			e.X = widen(e.X)
			xt = types.FloatType
		}
		if !types.IsNumeric(xt) || !xt.Equal(yt) {
			c.errorf(e.Pos(), "operator %s requires matching numeric operands, got %s and %s", e.Op, xt, yt)
			return types.InvalidType
		}
		return xt
	}

	switch e.Op {
	case source.ADD, source.SUB, source.MUL, source.QUO:
		t := numericPair()
		e.SetType(t)
		return t
	case source.REM:
		if !xt.Equal(types.IntType) || !yt.Equal(types.IntType) {
			c.errorf(e.Pos(), "operator %% requires int operands, got %s and %s", xt, yt)
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
		e.SetType(types.IntType)
		return types.IntType
	case source.LSS, source.LEQ, source.GTR, source.GEQ:
		if t := numericPair(); types.IsInvalid(t) {
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
		e.SetType(types.BoolType)
		return types.BoolType
	case source.EQL, source.NEQ:
		if xt.Equal(types.BoolType) && yt.Equal(types.BoolType) {
			e.SetType(types.BoolType)
			return types.BoolType
		}
		if t := numericPair(); types.IsInvalid(t) {
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
		e.SetType(types.BoolType)
		return types.BoolType
	case source.LAND, source.LOR:
		if !xt.Equal(types.BoolType) || !yt.Equal(types.BoolType) {
			c.errorf(e.Pos(), "operator %s requires bool operands, got %s and %s", e.Op, xt, yt)
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
		e.SetType(types.BoolType)
		return types.BoolType
	}
	c.errorf(e.Pos(), "unknown binary operator %s", e.Op)
	e.SetType(types.InvalidType)
	return types.InvalidType
}

// builtinSig describes one builtin function.
type builtinSig struct {
	arity int
	check func(c *checker, e *ast.CallExpr, args []types.Type) types.Type
}

var builtins = map[string]builtinSig{
	"sqrt": {1, func(c *checker, e *ast.CallExpr, a []types.Type) types.Type {
		if a[0].Equal(types.IntType) {
			e.Args[0] = widen(e.Args[0])
			a[0] = types.FloatType
		}
		if !a[0].Equal(types.FloatType) {
			c.errorf(e.Pos(), "sqrt requires a float argument, not %s", a[0])
			return types.InvalidType
		}
		return types.FloatType
	}},
	"abs": {1, func(c *checker, e *ast.CallExpr, a []types.Type) types.Type {
		if !types.IsNumeric(a[0]) {
			c.errorf(e.Pos(), "abs requires a numeric argument, not %s", a[0])
			return types.InvalidType
		}
		return a[0]
	}},
	"min": {2, checkMinMax},
	"max": {2, checkMinMax},
	"float": {1, func(c *checker, e *ast.CallExpr, a []types.Type) types.Type {
		if !types.IsNumeric(a[0]) {
			c.errorf(e.Pos(), "float() requires a numeric argument, not %s", a[0])
			return types.InvalidType
		}
		return types.FloatType
	}},
	"int": {1, func(c *checker, e *ast.CallExpr, a []types.Type) types.Type {
		if !types.IsNumeric(a[0]) {
			c.errorf(e.Pos(), "int() requires a numeric argument, not %s", a[0])
			return types.InvalidType
		}
		return types.IntType
	}},
}

func checkMinMax(c *checker, e *ast.CallExpr, a []types.Type) types.Type {
	x, y := a[0], a[1]
	if x.Equal(types.FloatType) && y.Equal(types.IntType) {
		e.Args[1] = widen(e.Args[1])
		y = types.FloatType
	}
	if y.Equal(types.FloatType) && x.Equal(types.IntType) {
		e.Args[0] = widen(e.Args[0])
		x = types.FloatType
	}
	if !types.IsNumeric(x) || !x.Equal(y) {
		c.errorf(e.Pos(), "%s requires matching numeric arguments, got %s and %s", e.Fun.Name, x, y)
		return types.InvalidType
	}
	return x
}

func (c *checker) callExpr(e *ast.CallExpr, scope *Scope) types.Type {
	argTypes := make([]types.Type, len(e.Args))
	for i, a := range e.Args {
		argTypes[i] = c.expr(a, scope)
	}
	for _, at := range argTypes {
		if types.IsInvalid(at) {
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
	}

	// Builtins take precedence and cannot be shadowed (they are not
	// declarable names in any scope).
	if b, ok := builtins[e.Fun.Name]; ok {
		e.Builtin = e.Fun.Name
		if len(e.Args) != b.arity {
			c.errorf(e.Pos(), "%s expects %d argument(s), got %d", e.Fun.Name, b.arity, len(e.Args))
			e.SetType(types.InvalidType)
			return types.InvalidType
		}
		t := b.check(c, e, argTypes)
		e.SetType(t)
		return t
	}

	obj := scope.Lookup(e.Fun.Name)
	if obj == nil {
		c.errorf(e.Pos(), "call of undeclared function %s", e.Fun.Name)
		e.SetType(types.InvalidType)
		return types.InvalidType
	}
	c.info.Uses[e.Fun] = obj
	if obj.Kind != FuncObj {
		c.errorf(e.Pos(), "%s %s is not a function", obj.Kind, obj.Name)
		e.SetType(types.InvalidType)
		return types.InvalidType
	}
	sig := obj.Type.(*types.Func)
	if len(e.Args) != len(sig.Params) {
		c.errorf(e.Pos(), "function %s expects %d argument(s), got %d", obj.Name, len(sig.Params), len(e.Args))
		e.SetType(sig.Result)
		return sig.Result
	}
	for i, pt := range sig.Params {
		c.assignable(e.Args[i].Pos(), pt, argTypes[i], &e.Args[i], "argument")
	}
	e.SetType(sig.Result)
	return sig.Result
}

func (c *checker) indexExpr(e *ast.IndexExpr, scope *Scope) types.Type {
	xt := c.expr(e.X, scope)
	it := c.expr(e.Index, scope)
	c.wantInt(e.Index.Pos(), it, "array index")
	if types.IsInvalid(xt) {
		e.SetType(types.InvalidType)
		return types.InvalidType
	}
	arr, ok := xt.(*types.Array)
	if !ok {
		c.errorf(e.Pos(), "indexing a non-array value of type %s", xt)
		e.SetType(types.InvalidType)
		return types.InvalidType
	}
	if lit, ok := e.Index.(*ast.IntLit); ok && (lit.Value < 0 || lit.Value >= int64(arr.Len)) {
		c.errorf(e.Index.Pos(), "constant index %d out of range [0, %d)", lit.Value, arr.Len)
	}
	e.SetType(arr.Elem)
	return arr.Elem
}
