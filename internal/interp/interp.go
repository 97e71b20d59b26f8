// Package interp is a reference interpreter for checked W2 programs. It
// defines the observable semantics of the language and serves as the oracle
// for differential testing: a module compiled by the code generator and
// executed on the Warp array simulator must produce the same output streams
// as this interpreter.
package interp

import (
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/types"
)

// Value is a W2 runtime value: int, float, or bool.
type Value struct {
	K types.Kind
	I int64
	F float64
	B bool
}

// IntVal, FloatVal, and BoolVal construct values.
func IntVal(v int64) Value     { return Value{K: types.Int, I: v} }
func FloatVal(v float64) Value { return Value{K: types.Float, F: v} }
func BoolVal(v bool) Value     { return Value{K: types.Bool, B: v} }

func (v Value) String() string {
	switch v.K {
	case types.Int:
		return fmt.Sprintf("%d", v.I)
	case types.Float:
		return fmt.Sprintf("%g", v.F)
	case types.Bool:
		return fmt.Sprintf("%t", v.B)
	}
	return "<invalid>"
}

// AsFloat returns the numeric value as float64 (ints are widened).
func (v Value) AsFloat() float64 {
	if v.K == types.Int {
		return float64(v.I)
	}
	return v.F
}

// RuntimeError is an execution error with a source position.
type RuntimeError struct {
	Pos source.Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg) }

// Limits bounds interpretation so buggy programs terminate.
type Limits struct {
	// MaxSteps caps the number of executed statements (0 means the default).
	MaxSteps int
}

const defaultMaxSteps = 50_000_000

// Interp executes one section program of a checked module.
type Interp struct {
	info  *sem.Info
	steps int
	max   int

	in  []Value // X channel input stream (consumed from the front)
	out []Value // Y channel output stream
}

// RunSection executes the entry function of sec with the given X input
// stream and returns the Y output stream. The entry function must take no
// parameters.
func RunSection(info *sem.Info, sec *ast.Section, input []Value, lim Limits) ([]Value, error) {
	entry := sec.Entry()
	if entry == nil {
		return nil, fmt.Errorf("section %d has no functions", sec.Index)
	}
	if len(entry.Params) != 0 {
		return nil, fmt.Errorf("entry function %s of section %d must take no parameters", entry.Name, sec.Index)
	}
	max := lim.MaxSteps
	if max <= 0 {
		max = defaultMaxSteps
	}
	it := &Interp{info: info, max: max, in: append([]Value(nil), input...)}
	if _, err := it.call(entry, nil); err != nil {
		return nil, err
	}
	return it.out, nil
}

// RunModule executes all sections in declaration order as a pipeline: the
// module's X input feeds section 1; each section's Y output becomes the next
// section's X input; the final section's Y output is the module's result.
// This mirrors the Warp array, where sections occupy consecutive groups of
// cells.
func RunModule(m *ast.Module, info *sem.Info, input []Value, lim Limits) ([]Value, error) {
	data := input
	for _, sec := range m.Sections {
		out, err := RunSection(info, sec, data, lim)
		if err != nil {
			return nil, fmt.Errorf("section %d: %w", sec.Index, err)
		}
		data = out
	}
	return data, nil
}

// CallFunction invokes one function with scalar arguments, for unit-level
// differential tests. It uses fresh empty channels.
func CallFunction(info *sem.Info, fn *ast.FuncDecl, args []Value, lim Limits) (Value, []Value, error) {
	max := lim.MaxSteps
	if max <= 0 {
		max = defaultMaxSteps
	}
	it := &Interp{info: info, max: max}
	v, err := it.call(fn, args)
	return v, it.out, err
}

// ---------------------------------------------------------------------------
// Execution

// frame is one function activation. Scalars live in vals; arrays in arrs as
// flat element slices.
type frame struct {
	vals map[*sem.Object]Value
	arrs map[*sem.Object][]Value
}

// control-flow signals
type signal int

const (
	sigNone signal = iota
	sigReturn
	sigBreak
	sigContinue
)

func (it *Interp) call(fn *ast.FuncDecl, args []Value) (Value, error) {
	locals := it.info.Locals[fn]
	fr := &frame{
		vals: make(map[*sem.Object]Value),
		arrs: make(map[*sem.Object][]Value),
	}
	// Bind parameters (they are always scalar) and zero-initialize locals.
	pi := 0
	for _, obj := range locals {
		switch t := obj.Type.(type) {
		case *types.Basic:
			if obj.Kind == sem.ParamObj {
				if pi >= len(args) {
					return Value{}, fmt.Errorf("function %s: missing argument for %s", fn.Name, obj.Name)
				}
				fr.vals[obj] = args[pi]
				pi++
			} else {
				fr.vals[obj] = zeroValue(t)
			}
		case *types.Array:
			elems := make([]Value, t.TotalLen())
			z := zeroValue(t.ScalarElem().(*types.Basic))
			for i := range elems {
				elems[i] = z
			}
			fr.arrs[obj] = elems
		}
	}
	ret, sig, err := it.block(fn.Body, fr)
	if err != nil {
		return Value{}, err
	}
	if sig == sigReturn {
		return ret, nil
	}
	return Value{}, nil
}

func zeroValue(t *types.Basic) Value {
	switch t.Kind {
	case types.Int:
		return IntVal(0)
	case types.Float:
		return FloatVal(0)
	case types.Bool:
		return BoolVal(false)
	}
	return Value{}
}

func (it *Interp) block(b *ast.Block, fr *frame) (Value, signal, error) {
	for _, s := range b.Stmts {
		v, sig, err := it.stmt(s, fr)
		if err != nil || sig != sigNone {
			return v, sig, err
		}
	}
	return Value{}, sigNone, nil
}

func (it *Interp) tick(pos source.Pos) error {
	it.steps++
	if it.steps > it.max {
		return &RuntimeError{Pos: pos, Msg: "step limit exceeded (infinite loop?)"}
	}
	return nil
}

func (it *Interp) stmt(s ast.Stmt, fr *frame) (Value, signal, error) {
	if err := it.tick(s.Pos()); err != nil {
		return Value{}, sigNone, err
	}
	switch s := s.(type) {
	case *ast.Block:
		return it.block(s, fr)
	case *ast.VarDecl:
		if s.Init != nil {
			v, err := it.expr(s.Init, fr)
			if err != nil {
				return Value{}, sigNone, err
			}
			obj := it.declObj(s)
			if obj != nil {
				fr.vals[obj] = v
			}
		}
		return Value{}, sigNone, nil
	case *ast.Assign:
		v, err := it.expr(s.RHS, fr)
		if err != nil {
			return Value{}, sigNone, err
		}
		return Value{}, sigNone, it.store(s.LHS, v, fr)
	case *ast.If:
		c, err := it.expr(s.Cond, fr)
		if err != nil {
			return Value{}, sigNone, err
		}
		if c.B {
			return it.block(s.Then, fr)
		}
		if s.Else != nil {
			return it.stmt(s.Else, fr)
		}
		return Value{}, sigNone, nil
	case *ast.While:
		for {
			c, err := it.expr(s.Cond, fr)
			if err != nil {
				return Value{}, sigNone, err
			}
			if !c.B {
				return Value{}, sigNone, nil
			}
			v, sig, err := it.block(s.Body, fr)
			if err != nil {
				return Value{}, sigNone, err
			}
			switch sig {
			case sigReturn:
				return v, sigReturn, nil
			case sigBreak:
				return Value{}, sigNone, nil
			}
			if err := it.tick(s.Pos()); err != nil {
				return Value{}, sigNone, err
			}
		}
	case *ast.For:
		return it.forStmt(s, fr)
	case *ast.Return:
		if s.Value == nil {
			return Value{}, sigReturn, nil
		}
		v, err := it.expr(s.Value, fr)
		return v, sigReturn, err
	case *ast.ExprStmt:
		_, err := it.expr(s.X, fr)
		return Value{}, sigNone, err
	case *ast.Receive:
		if len(it.in) == 0 {
			return Value{}, sigNone, &RuntimeError{Pos: s.Pos(), Msg: "receive on empty X channel"}
		}
		v := it.in[0]
		it.in = it.in[1:]
		// Convert channel word to the target's type.
		v = convertChan(v, s.LHS.Type())
		return Value{}, sigNone, it.store(s.LHS, v, fr)
	case *ast.Send:
		v, err := it.expr(s.Value, fr)
		if err != nil {
			return Value{}, sigNone, err
		}
		it.out = append(it.out, v)
		return Value{}, sigNone, nil
	case *ast.Break:
		return Value{}, sigBreak, nil
	case *ast.Continue:
		return Value{}, sigContinue, nil
	}
	return Value{}, sigNone, &RuntimeError{Pos: s.Pos(), Msg: fmt.Sprintf("unknown statement %T", s)}
}

// convertChan adapts a channel word to the receiving variable's type. The
// Warp queues carry raw 32-bit words; the compiler knows statically whether
// a queue transfer is an int or a float, so the interpreter converts
// numerically.
func convertChan(v Value, t types.Type) Value {
	b, ok := t.(*types.Basic)
	if !ok {
		return v
	}
	switch b.Kind {
	case types.Int:
		if v.K == types.Float {
			return IntVal(int64(v.F))
		}
	case types.Float:
		if v.K == types.Int {
			return FloatVal(float64(v.I))
		}
	}
	return v
}

func (it *Interp) forStmt(s *ast.For, fr *frame) (Value, signal, error) {
	lo, err := it.expr(s.Lo, fr)
	if err != nil {
		return Value{}, sigNone, err
	}
	hi, err := it.expr(s.Hi, fr)
	if err != nil {
		return Value{}, sigNone, err
	}
	step := int64(1)
	if s.Step != nil {
		sv, err := it.expr(s.Step, fr)
		if err != nil {
			return Value{}, sigNone, err
		}
		step = sv.I
		if step == 0 {
			return Value{}, sigNone, &RuntimeError{Pos: s.Step.Pos(), Msg: "loop step is zero"}
		}
	}
	obj := it.info.Uses[s.Var]
	if obj == nil {
		return Value{}, sigNone, &RuntimeError{Pos: s.Var.Pos(), Msg: "unresolved loop variable"}
	}
	i := lo.I
	for ; (step > 0 && i <= hi.I) || (step < 0 && i >= hi.I); i += step {
		fr.vals[obj] = IntVal(i)
		v, sig, err := it.block(s.Body, fr)
		if err != nil {
			return Value{}, sigNone, err
		}
		switch sig {
		case sigReturn:
			return v, sigReturn, nil
		case sigBreak:
			return Value{}, sigNone, nil
		}
		if err := it.tick(s.Pos()); err != nil {
			return Value{}, sigNone, err
		}
	}
	// On normal exit the loop variable holds the first value that failed
	// the bound test (matching the compiled code, which increments the
	// variable in place); after break it keeps the breaking iteration's
	// value.
	fr.vals[obj] = IntVal(i)
	return Value{}, sigNone, nil
}

// declObj finds the object for a var declaration in the current function's
// locals table.
func (it *Interp) declObj(d *ast.VarDecl) *sem.Object {
	for _, objs := range it.info.Locals {
		for _, o := range objs {
			if o.Decl == d {
				return o
			}
		}
	}
	return nil
}

func (it *Interp) store(lhs ast.Expr, v Value, fr *frame) error {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		obj := it.info.Uses[lhs]
		if obj == nil {
			return &RuntimeError{Pos: lhs.Pos(), Msg: "unresolved identifier " + lhs.Name}
		}
		fr.vals[obj] = v
		return nil
	case *ast.IndexExpr:
		obj, off, err := it.flatIndex(lhs, fr)
		if err != nil {
			return err
		}
		fr.arrs[obj][off] = v
		return nil
	}
	return &RuntimeError{Pos: lhs.Pos(), Msg: "bad assignment target"}
}

// flatIndex resolves a (possibly nested) index expression to the array
// object and the flat element offset, with bounds checking.
func (it *Interp) flatIndex(e *ast.IndexExpr, fr *frame) (*sem.Object, int, error) {
	// Collect indices innermost-last.
	var idxs []ast.Expr
	x := ast.Expr(e)
	for {
		ie, ok := x.(*ast.IndexExpr)
		if !ok {
			break
		}
		idxs = append([]ast.Expr{ie.Index}, idxs...)
		x = ie.X
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, 0, &RuntimeError{Pos: e.Pos(), Msg: "indexed expression is not a variable"}
	}
	obj := it.info.Uses[id]
	if obj == nil {
		return nil, 0, &RuntimeError{Pos: id.Pos(), Msg: "unresolved identifier " + id.Name}
	}
	arr, ok := obj.Type.(*types.Array)
	if !ok {
		return nil, 0, &RuntimeError{Pos: e.Pos(), Msg: "indexing non-array " + id.Name}
	}
	// Walk dimensions outermost-first.
	off := 0
	t := types.Type(arr)
	for _, ie := range idxs {
		at, ok := t.(*types.Array)
		if !ok {
			return nil, 0, &RuntimeError{Pos: ie.Pos(), Msg: "too many indices on " + id.Name}
		}
		iv, err := it.expr(ie, fr)
		if err != nil {
			return nil, 0, err
		}
		if iv.I < 0 || iv.I >= int64(at.Len) {
			return nil, 0, &RuntimeError{Pos: ie.Pos(),
				Msg: fmt.Sprintf("index %d out of range [0, %d) on %s", iv.I, at.Len, id.Name)}
		}
		stride := 1
		if inner, ok := at.Elem.(*types.Array); ok {
			stride = inner.TotalLen()
		}
		off += int(iv.I) * stride
		t = at.Elem
	}
	if _, stillArray := t.(*types.Array); stillArray {
		return nil, 0, &RuntimeError{Pos: e.Pos(), Msg: "partial indexing of " + id.Name + " yields an array"}
	}
	return obj, off, nil
}

func (it *Interp) expr(e ast.Expr, fr *frame) (Value, error) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := it.info.Uses[e]
		if obj == nil {
			return Value{}, &RuntimeError{Pos: e.Pos(), Msg: "unresolved identifier " + e.Name}
		}
		if v, ok := fr.vals[obj]; ok {
			return v, nil
		}
		return Value{}, &RuntimeError{Pos: e.Pos(), Msg: "array " + e.Name + " used as scalar"}
	case *ast.IntLit:
		return IntVal(e.Value), nil
	case *ast.FloatLit:
		return FloatVal(e.Value), nil
	case *ast.BoolLit:
		return BoolVal(e.Value), nil
	case *ast.BinaryExpr:
		return it.binary(e, fr)
	case *ast.UnaryExpr:
		x, err := it.expr(e.X, fr)
		if err != nil {
			return Value{}, err
		}
		switch e.Op {
		case source.SUB:
			if x.K == types.Int {
				return IntVal(-x.I), nil
			}
			return FloatVal(-x.F), nil
		case source.NOT:
			return BoolVal(!x.B), nil
		}
		return Value{}, &RuntimeError{Pos: e.Pos(), Msg: "unknown unary operator"}
	case *ast.CallExpr:
		return it.callExpr(e, fr)
	case *ast.IndexExpr:
		obj, off, err := it.flatIndex(e, fr)
		if err != nil {
			return Value{}, err
		}
		return fr.arrs[obj][off], nil
	}
	return Value{}, &RuntimeError{Pos: e.Pos(), Msg: fmt.Sprintf("unknown expression %T", e)}
}

func (it *Interp) binary(e *ast.BinaryExpr, fr *frame) (Value, error) {
	// Short-circuit operators evaluate the right operand lazily.
	if e.Op == source.LAND || e.Op == source.LOR {
		x, err := it.expr(e.X, fr)
		if err != nil {
			return Value{}, err
		}
		if e.Op == source.LAND && !x.B {
			return BoolVal(false), nil
		}
		if e.Op == source.LOR && x.B {
			return BoolVal(true), nil
		}
		return it.expr(e.Y, fr)
	}

	x, err := it.expr(e.X, fr)
	if err != nil {
		return Value{}, err
	}
	y, err := it.expr(e.Y, fr)
	if err != nil {
		return Value{}, err
	}

	isInt := x.K == types.Int && y.K == types.Int
	switch e.Op {
	case source.ADD:
		if isInt {
			return IntVal(x.I + y.I), nil
		}
		return FloatVal(x.AsFloat() + y.AsFloat()), nil
	case source.SUB:
		if isInt {
			return IntVal(x.I - y.I), nil
		}
		return FloatVal(x.AsFloat() - y.AsFloat()), nil
	case source.MUL:
		if isInt {
			return IntVal(x.I * y.I), nil
		}
		return FloatVal(x.AsFloat() * y.AsFloat()), nil
	case source.QUO:
		if isInt {
			if y.I == 0 {
				return Value{}, &RuntimeError{Pos: e.Pos(), Msg: "integer division by zero"}
			}
			return IntVal(x.I / y.I), nil
		}
		return FloatVal(x.AsFloat() / y.AsFloat()), nil
	case source.REM:
		if y.I == 0 {
			return Value{}, &RuntimeError{Pos: e.Pos(), Msg: "integer modulo by zero"}
		}
		return IntVal(x.I % y.I), nil
	case source.EQL:
		if x.K == types.Bool {
			return BoolVal(x.B == y.B), nil
		}
		if isInt {
			return BoolVal(x.I == y.I), nil
		}
		return BoolVal(x.AsFloat() == y.AsFloat()), nil
	case source.NEQ:
		if x.K == types.Bool {
			return BoolVal(x.B != y.B), nil
		}
		if isInt {
			return BoolVal(x.I != y.I), nil
		}
		return BoolVal(x.AsFloat() != y.AsFloat()), nil
	case source.LSS:
		if isInt {
			return BoolVal(x.I < y.I), nil
		}
		return BoolVal(x.AsFloat() < y.AsFloat()), nil
	case source.LEQ:
		if isInt {
			return BoolVal(x.I <= y.I), nil
		}
		return BoolVal(x.AsFloat() <= y.AsFloat()), nil
	case source.GTR:
		if isInt {
			return BoolVal(x.I > y.I), nil
		}
		return BoolVal(x.AsFloat() > y.AsFloat()), nil
	case source.GEQ:
		if isInt {
			return BoolVal(x.I >= y.I), nil
		}
		return BoolVal(x.AsFloat() >= y.AsFloat()), nil
	}
	return Value{}, &RuntimeError{Pos: e.Pos(), Msg: "unknown binary operator " + e.Op.String()}
}

func (it *Interp) callExpr(e *ast.CallExpr, fr *frame) (Value, error) {
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := it.expr(a, fr)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}

	if e.Builtin != "" {
		return evalBuiltin(e, args)
	}

	obj := it.info.Uses[e.Fun]
	if obj == nil {
		return Value{}, &RuntimeError{Pos: e.Pos(), Msg: "unresolved function " + e.Fun.Name}
	}
	fn, ok := obj.Decl.(*ast.FuncDecl)
	if !ok {
		return Value{}, &RuntimeError{Pos: e.Pos(), Msg: e.Fun.Name + " is not a function"}
	}
	return it.call(fn, args)
}

func evalBuiltin(e *ast.CallExpr, args []Value) (Value, error) {
	switch e.Builtin {
	case "sqrt":
		x := args[0].AsFloat()
		if x < 0 {
			return Value{}, &RuntimeError{Pos: e.Pos(), Msg: "sqrt of negative value"}
		}
		return FloatVal(math.Sqrt(x)), nil
	case "abs":
		if args[0].K == types.Int {
			v := args[0].I
			if v < 0 {
				v = -v
			}
			return IntVal(v), nil
		}
		return FloatVal(math.Abs(args[0].F)), nil
	case "min":
		if args[0].K == types.Int {
			if args[0].I < args[1].I {
				return args[0], nil
			}
			return args[1], nil
		}
		return FloatVal(math.Min(args[0].F, args[1].F)), nil
	case "max":
		if args[0].K == types.Int {
			if args[0].I > args[1].I {
				return args[0], nil
			}
			return args[1], nil
		}
		return FloatVal(math.Max(args[0].F, args[1].F)), nil
	case "float":
		return FloatVal(args[0].AsFloat()), nil
	case "int":
		if args[0].K == types.Int {
			return args[0], nil
		}
		return IntVal(int64(args[0].F)), nil
	}
	return Value{}, &RuntimeError{Pos: e.Pos(), Msg: "unknown builtin " + e.Builtin}
}
